package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
)

// benchMetric is one metric as BENCHMARK.json declares it. Per-layer
// metrics carry no bound.
type benchMetric struct {
	Name   string   `json:"name"`
	Better string   `json:"better"`
	Bound  *float64 `json:"bound"`
}

type benchDef struct {
	EndToEnd []benchMetric `json:"end_to_end"`
	PerLayer []benchMetric `json:"per_layer"`
}

// runSet holds the runs of one result set, by workload, in file order.
type runSet struct {
	order []string
	runs  map[string][]map[string]float64
}

// readSet parses captured benchmark output: any number of runs, each a
// provenance line naming the workload followed, eventually, by the
// run's final result line.
func readSet(path string) (*runSet, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	rs := &runSet{runs: map[string][]map[string]float64{}}
	workload := ""
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		line := sc.Bytes()
		if len(line) == 0 || line[0] != '{' {
			continue
		}
		var rec struct {
			Provenance *provenance
			Correct    bool
			Metrics    map[string]metricVal
		}
		if err := json.Unmarshal(line, &rec); err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		switch {
		case rec.Provenance != nil:
			workload = rec.Provenance.Workload
		case rec.Metrics != nil:
			if workload == "" {
				return nil, fmt.Errorf("%s: result line without a provenance line before it", path)
			}
			if !rec.Correct {
				return nil, fmt.Errorf("%s: a %s run failed its output checks", path, workload)
			}
			if _, seen := rs.runs[workload]; !seen {
				rs.order = append(rs.order, workload)
			}
			vals := map[string]float64{}
			for name, m := range rec.Metrics {
				vals[name] = m.Value
			}
			rs.runs[workload] = append(rs.runs[workload], vals)
			workload = ""
		}
	}
	return rs, sc.Err()
}

// verdict applies the benchmark's comparison rule to the runs of one
// metric on one workload, paired by position (old[i] with new[i]):
//
//   - better: the change wins at least nine tenths of the pairs (ties
//     count for neither) and its median beats the old median by more
//     than the old runs' interquartile range;
//   - worse: the new median is worse than the old one by more than the
//     bound's share of the old median (per-layer metrics, which have no
//     bound: the mirror image of better);
//   - unresolved: the old runs spread wider than the bound and not every
//     new run beats every old run, or, without a bound, neither of the
//     above holds;
//   - within bound: otherwise.
//
// It also returns the share of pairs the change won.
func verdict(old, nw []float64, higherBetter bool, bound float64, bounded bool) (string, float64) {
	gain := func(a, b float64) float64 { // how much b improves on a
		if higherBetter {
			return b - a
		}
		return a - b
	}
	n := min(len(old), len(nw))
	var wins, losses int
	for i := 0; i < n; i++ {
		switch g := gain(old[i], nw[i]); {
		case g > 0:
			wins++
		case g < 0:
			losses++
		}
	}
	winShare := ratio(float64(wins), float64(n))
	q1, mOld, q3 := quartiles(old)
	_, mNew, _ := quartiles(nw)
	iqr, d := q3-q1, gain(mOld, mNew)
	if n > 0 && float64(wins) >= 0.9*float64(n) && d > iqr {
		return "better", winShare
	}
	if !bounded {
		if n > 0 && float64(losses) >= 0.9*float64(n) && -d > iqr {
			return "worse", winShare
		}
		return "unresolved", winShare
	}
	if -d > bound*math.Abs(mOld) {
		return "worse", winShare
	}
	allBetter := len(old) > 0 && len(nw) > 0
	for _, a := range old {
		for _, b := range nw {
			if gain(a, b) <= 0 {
				allBetter = false
			}
		}
	}
	if iqr > bound*math.Abs(mOld) && !allBetter {
		return "unresolved", winShare
	}
	return "within bound", winShare
}

// compareMain prints one row per workload and metric of BENCHMARK.json
// found in both result sets.
func compareMain(w io.Writer, benchPath, oldPath, newPath string) error {
	raw, err := os.ReadFile(benchPath)
	if err != nil {
		return err
	}
	var def benchDef
	if err := json.Unmarshal(raw, &def); err != nil {
		return fmt.Errorf("%s: %w", benchPath, err)
	}
	oldSet, err := readSet(oldPath)
	if err != nil {
		return err
	}
	newSet, err := readSet(newPath)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "%-10s %-32s %-34s %-34s %5s  %s\n", "workload", "metric",
		"old median [q1, q3]", "new median [q1, q3]", "won", "verdict")
	for _, wl := range oldSet.order {
		olds, news := oldSet.runs[wl], newSet.runs[wl]
		if len(news) == 0 {
			continue
		}
		for _, m := range append(def.EndToEnd, def.PerLayer...) {
			o, n := column(olds, m.Name), column(news, m.Name)
			if len(o) == 0 || len(n) == 0 {
				continue
			}
			bound := 0.0
			if m.Bound != nil {
				bound = *m.Bound
			}
			v, won := verdict(o, n, m.Better == "higher", bound, m.Bound != nil)
			fmt.Fprintf(w, "%-10s %-32s %-34s %-34s %4.0f%%  %s\n", wl, m.Name,
				spread(o), spread(n), 100*won, v)
		}
	}
	return nil
}

// column extracts one metric's values from runs that reported it.
func column(runs []map[string]float64, name string) []float64 {
	var out []float64
	for _, r := range runs {
		if v, ok := r[name]; ok {
			out = append(out, v)
		}
	}
	return out
}

func spread(xs []float64) string {
	q1, m, q3 := quartiles(xs)
	return fmt.Sprintf("%.4g [%.4g, %.4g] n=%d", m, q1, q3, len(xs))
}
