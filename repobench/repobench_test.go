package main

import (
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
)

func TestQuartilesMatchPython(t *testing.T) {
	// Expected values are statistics.quantiles(xs, n=4) from Python 3.
	cases := []struct {
		xs         []float64
		q1, q2, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 5.5, 8.25},
		{[]float64{3.5, 1.25, 9, 2, 7, 7, 4}, 2, 4, 7},
		{[]float64{5, 1}, 0, 3, 6},
		{[]float64{10, 20, 30}, 10, 20, 30},
		{[]float64{2, 4, 8, 16, 32, 64, 128, 256, 512, 1024, 2048}, 8, 64, 512},
	}
	for _, c := range cases {
		q1, q2, q3 := quartiles(c.xs)
		if q1 != c.q1 || q2 != c.q2 || q3 != c.q3 {
			t.Errorf("quartiles(%v) = %v %v %v, want %v %v %v", c.xs, q1, q2, q3, c.q1, c.q2, c.q3)
		}
	}
	if _, m, _ := quartiles([]float64{7}); m != 7 {
		t.Errorf("median of one value = %v, want 7", m)
	}
}

func TestPercentileNearestRank(t *testing.T) {
	var s sample
	for i := 100; i >= 1; i-- {
		s = append(s, float64(i))
	}
	for _, c := range []struct{ p, want float64 }{{50, 50}, {99, 99}, {99.9, 100}, {1, 1}, {0.1, 1}, {100, 100}} {
		if got := s.pct(c.p); got != c.want {
			t.Errorf("pct(%v) = %v, want %v", c.p, got, c.want)
		}
	}
	if s[0] != 100 {
		t.Error("pct reordered its sample")
	}
	if got := (sample{}).pct(99); got != 0 {
		t.Errorf("pct of empty sample = %v, want 0", got)
	}
}

func TestSupportedPercentile(t *testing.T) {
	for _, c := range []struct {
		n    int
		want float64
	}{{0, 50}, {19, 50}, {20, 50}, {100, 90}, {999, 90}, {1000, 99}, {9999, 99}, {10000, 99.9}, {100000, 99.99}} {
		if got := supportedPercentile(c.n); got != c.want {
			t.Errorf("supportedPercentile(%d) = %v, want %v", c.n, got, c.want)
		}
	}
}

func TestPoissonScheduleIsSeeded(t *testing.T) {
	const rate, dur = 30_000.0, int64(2e9)
	a := poissonSchedule(newRNG(7, srvRNGStream), rate, dur)
	b := poissonSchedule(newRNG(7, srvRNGStream), rate, dur)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("same seed gave different schedules")
	}
	if c := poissonSchedule(newRNG(8, srvRNGStream), rate, dur); reflect.DeepEqual(a, c) {
		t.Fatal("different seeds gave the same schedule")
	}
	// The count is Poisson with mean rate·dur: stay within 5 sigma.
	mean := rate * float64(dur) / 1e9
	if d := math.Abs(float64(len(a)) - mean); d > 5*math.Sqrt(mean) {
		t.Errorf("%d arrivals, want about %.0f", len(a), mean)
	}
	for i := 1; i < len(a); i++ {
		if a[i].due < a[i-1].due || a[i].due >= dur {
			t.Fatalf("arrival %d due %d out of order or past %d", i, a[i].due, dur)
		}
	}
}

func TestPlanServerIsSeeded(t *testing.T) {
	cfg := config{workload: "server", seed: 3, seconds: 1}
	a, b := planServer(cfg), planServer(cfg)
	if !reflect.DeepEqual(a.off, b.off) || !reflect.DeepEqual(a.x, b.x) {
		t.Fatal("same seed planned different server inputs")
	}
}

func TestAnalyseWindows(t *testing.T) {
	// Ten requests due 100 ms apart over a 1 s phase, each answered 1 ms
	// late; the last one timed out. Replies land 2, 2, 2, 2 and 1 per
	// 200 ms window.
	ld := &load{
		off:    make([]int64, 10),
		recvAt: make([]int64, 10),
		status: make([]uint8, 10),
	}
	for id := range ld.off {
		ld.off[id] = int64(id) * 1e8
		ld.recvAt[id] = ld.off[id] + 1e6
		ld.status[id] = statusOK
	}
	ld.status[9] = statusTimeout
	ph := &phase{dur: 1e9, end: 10, sendEnd: 1e9, cpu: 9e6}
	st := ld.analyse(ph)
	if st.sent != 10 || st.ok != 9 || st.failed != 1 {
		t.Errorf("sent %d ok %d failed %d, want 10 9 1", st.sent, st.ok, st.failed)
	}
	if st.okRate != 10 || st.p50 != 1 || st.cpuPerReq != 1000 {
		t.Errorf("rate %v/s p50 %v ms cpu %v us, want 10, 1, 1000", st.okRate, st.p50, st.cpuPerReq)
	}
}

func TestSpinClosedForm(t *testing.T) {
	for _, n := range []uint32{0, 1, 2, 500, 4500, computeIters} {
		for _, salt := range []uint64{0, 1, 12345, math.MaxUint64 - 3} {
			if got, want := spin(n, salt), spinClosed(n, salt); got != want {
				t.Errorf("spin(%d, %d) = %d, closed form %d", n, salt, got, want)
			}
		}
	}
}

func TestSelfTime(t *testing.T) {
	root := span{Start: 100, End: 200}
	cases := []struct {
		kids []span
		want int64
	}{
		{nil, 100},
		{[]span{{Start: 110, End: 120}, {Start: 150, End: 170}}, 70},
		{[]span{{Start: 110, End: 140}, {Start: 130, End: 150}}, 60},                         // overlap counted once
		{[]span{{Start: 110, End: 150}, {Start: 120, End: 130}}, 60},                         // nested
		{[]span{{Start: 50, End: 120}, {Start: 190, End: 260}}, 70},                          // clipped to the root
		{[]span{{Start: 0, End: 90}, {Start: 210, End: 300}}, 100},                           // outside
		{[]span{{Start: 100, End: 200}}, 0},                                                  // covers all
		{[]span{{Start: 150, End: 160}, {Start: 110, End: 120}, {Start: 155, End: 180}}, 60}, // unsorted
	}
	for _, c := range cases {
		if got := selfTime(root, c.kids); got != c.want {
			t.Errorf("selfTime(%v) = %d, want %d", c.kids, got, c.want)
		}
	}
}

func TestSpanLogSumsSelfTimeByLayer(t *testing.T) {
	l := newSpanLog(2)
	for i := 0; i < 3; i++ {
		l.add(span{Req: uint32(i), Name: "request", Start: 0, End: 1000}, []span{
			{Name: "io.flush", Start: 100, End: 300},
			{Name: "compute", Start: 200, End: 400},
			{Name: "admit.Admit", Start: 500, End: 500}, // never ran: dropped
		})
	}
	if l.self["root"] != 3*700 || l.self["io.flush"] != 3*200 || l.self["compute"] != 3*200 || l.self["admit.Admit"] != 0 {
		t.Errorf("self times %v", l.self)
	}
	if len(l.kept) != 2*3 { // trees 0 and 2, root and two live children each
		t.Errorf("kept %d spans, want 6", len(l.kept))
	}
	if k := l.kept[1]; k.Req != 0 || k.Parent != "request" {
		t.Errorf("child span %+v lacks its request id or parent", k)
	}
	r := newResult()
	l.selfMetrics(r)
	if got := r.metrics["self_us.root"].Value; math.Abs(got-0.7) > 1e-12 {
		t.Errorf("self_us.root = %v, want 0.7", got)
	}
}

func TestVerdict(t *testing.T) {
	base := []float64{100, 101, 99, 100, 102, 98, 100, 101, 99, 100}
	shift := func(d float64) []float64 {
		out := make([]float64, len(base))
		for i, v := range base {
			out[i] = v + d
		}
		return out
	}
	cases := []struct {
		name         string
		old, nw      []float64
		higherBetter bool
		bound        float64
		bounded      bool
		want         string
	}{
		{"clear gain, higher better", base, shift(10), true, 0.1, true, "better"},
		{"clear gain, lower better", base, shift(-10), false, 0.1, true, "better"},
		{"small loss inside bound", base, shift(-3), true, 0.1, true, "within bound"},
		{"loss past bound", base, shift(-15), true, 0.1, true, "worse"},
		{"gain smaller than spread", base, shift(1), true, 0.1, true, "within bound"},
		{"spread wider than bound", []float64{50, 150, 80, 120, 100}, []float64{60, 140, 90, 110, 100}, true, 0.1, true, "unresolved"},
		{"no bound, clear loss", base, shift(-10), true, 0, false, "worse"},
		{"no bound, no clear change", base, shift(0.5), true, 0, false, "unresolved"},
	}
	for _, c := range cases {
		if got, _ := verdict(c.old, c.nw, c.higherBetter, c.bound, c.bounded); got != c.want {
			t.Errorf("%s: verdict %q, want %q", c.name, got, c.want)
		}
	}
	// Ties count for neither side.
	if _, won := verdict([]float64{1, 2, 3, 4}, []float64{1, 3, 3, 5}, true, 0.1, true); won != 0.5 {
		t.Errorf("won share %v, want 0.5", won)
	}
}

func TestCompareReadsCapturedOutput(t *testing.T) {
	dir := t.TempDir()
	write := func(name string, vals ...float64) string {
		var b strings.Builder
		for _, v := range vals {
			b.WriteString(`{"provenance":{"workload":"fanout","seed":1}}` + "\n")
			b.WriteString("metric fanout throughput_per_s = 1 1/s\n")
			m, _ := json.Marshal(map[string]any{"correct": true, "attempted": 1, "failed": 0,
				"metrics": map[string]metricVal{"throughput_per_s": {v, "1/s"}}})
			b.Write(append(m, '\n'))
		}
		p := filepath.Join(dir, name)
		if err := os.WriteFile(p, []byte(b.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		return p
	}
	bench := filepath.Join(dir, "BENCHMARK.json")
	def := `{"end_to_end":[{"name":"throughput_per_s","unit":"1/s","better":"higher","bound":0.1}],"per_layer":[]}`
	if err := os.WriteFile(bench, []byte(def), 0o644); err != nil {
		t.Fatal(err)
	}
	old := write("old.txt", 100, 101, 99, 100, 102, 98, 100, 101, 99, 100)
	nw := write("new.txt", 80, 81, 79, 80, 82, 78, 80, 81, 79, 80)
	var out strings.Builder
	if err := compareMain(&out, bench, old, nw); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "fanout") || !strings.Contains(out.String(), "worse") {
		t.Errorf("compare output lacks the fanout row's verdict:\n%s", out.String())
	}
}
