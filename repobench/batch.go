package main

import (
	"fmt"
	goruntime "runtime"
	"time"

	"lhws"
)

// repOut is what one rep of a batch workload measured.
type repOut struct {
	setup, wall time.Duration
	cpu         int64  // process CPU ns over the timed part
	lat         sample // ms per operation: a fanout round, a mapreduce leaf
	sum         uint64
	childErrs   int64
	st          *lhws.RuntimeStats
	err         error
}

// repeatReps is the measuring loop shared by the batch workloads. Each
// rep is one fresh runtime running the workload once after its warm-up;
// reps repeat until the budget is spent. Untraced, it reports the
// median over reps of set-up time, peak memory, leaf throughput, CPU
// per leaf and the median operation latency. Traced, it alternates
// untraced and traced reps: the untraced ones give the allocation
// count, the p99 latency and the reference for the tracing overhead;
// after each traced rep, collect turns that rep's stamps into layer
// samples and spans. check reports whether a rep's outputs were right;
// every leaf of a wrong or failed rep counts as failed.
func repeatReps(cfg config, leaves int, run func(traced bool) repOut, check func(*result, repOut) bool, collect func(*layers)) *result {
	r := newResult()
	var setups, plain, traced, cpus, mems, p50s, p99s []float64
	l := &layers{spans: newSpanLog(8)}
	var allocs, plainLeaves float64
	m0 := readMem()
	deadline := time.Now().Add(cfg.measured(1))
	for i := 0; i == 0 || (i < 2 && cfg.trace) || time.Now().Before(deadline); i++ {
		tracedRep := cfg.trace && i%2 == 1
		// Each rep starts from a collected heap, so one rep's garbage
		// does not set the next one's collection schedule.
		goruntime.GC()
		var before memSnap
		if cfg.trace && !tracedRep {
			before = readMem()
		}
		mw := watchMem()
		rep := run(tracedRep)
		mem := mw.end()
		r.attempted += int64(leaves)
		if !check(r, rep) {
			r.failed += int64(leaves)
		}
		rate := float64(leaves) / rep.wall.Seconds()
		setups = append(setups, rep.setup.Seconds())
		l.addStats(rep.st)
		if tracedRep {
			traced = append(traced, rate)
			collect(l)
			continue
		}
		if cfg.trace {
			allocs += float64(readMem().mallocs - before.mallocs)
			plainLeaves += float64(leaves)
		}
		plain = append(plain, rate)
		mems = append(mems, mem)
		cpus = append(cpus, float64(rep.cpu)/1e3/float64(leaves))
		p50s = append(p50s, rep.lat.pct(50))
		p99s = append(p99s, rep.lat.pct(99))
	}
	if !cfg.trace {
		r.add("setup_s", median(setups), "s")
		r.add("mem_peak_mb", median(mems), "MB")
		r.add("throughput_per_s", median(plain), "1/s")
		r.add("cpu_us_per_op", median(cpus), "us")
		r.add("p50_ms", median(p50s), "ms")
		return r
	}
	l.p99ms = median(p99s)
	l.gcPauseMs = float64(readMem().pauseNs-m0.pauseNs) / 1e6
	l.allocsPerOp = ratio(allocs, plainLeaves)
	l.overhead = ratio(median(plain), median(traced)) - 1
	l.failFrac = ratio(float64(r.failed), float64(r.attempted))
	writeSpans(cfg, l, r)
	l.emit(r)
	return r
}

// writeSpans stores the traced run's kept spans and names the file in
// the output.
func writeSpans(cfg config, l *layers, r *result) {
	path, err := l.spans.write(spanDir, fmt.Sprintf("%s-seed%d.spans.jsonl", cfg.workload, cfg.seed))
	if err != nil {
		r.fail("write spans: %v", err)
		return
	}
	r.note("spans of %d traced trees written to %s", l.spans.trees, path)
}

// spanDir is where traced runs write their spans, relative to the
// checkout's root.
const spanDir = ".bench_build/spans"
