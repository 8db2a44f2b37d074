package main

import (
	goruntime "runtime"
	"runtime/metrics"
	"time"

	"lhws"
)

// layers holds what a traced run measured at each layer boundary. Every
// workload reports the full set; a layer the workload never crosses
// reads 0 (README.md lists which workload exercises which layer).
// Duration samples are in nanoseconds.
type layers struct {
	spawnStart, join         sample
	overshoot, fireLate      sample
	withDeadline, release    sample
	admitNs                  sample
	readWake, flush, handoff sample
	loadgenLate              sample
	stats                    lhws.RuntimeStats
	inflightPeak, rejectFrac float64
	framesPerRead, perFlush  float64
	bufNewRatio, allocsPerOp float64
	gcPauseMs                float64
	p999r5k, p999r30k        float64
	p99ms, p50r30k, p99r30k  float64 // the tails, and the server's other rates
	cpuR5k                   float64
	overhead, failFrac       float64
	spans                    *spanLog
}

// addStats folds one run's runtime counters into the traced total.
func (l *layers) addStats(st *lhws.RuntimeStats) {
	if st == nil {
		return
	}
	t := &l.stats
	t.TasksSpawned += st.TasksSpawned
	t.Suspensions += st.Suspensions
	t.StealAttempts += st.StealAttempts
	t.Steals += st.Steals
	t.BatchItems += st.BatchItems
	t.ResumeBatches += st.ResumeBatches
	t.ResumeBatchTasks += st.ResumeBatchTasks
	t.MaxDequesPerWorker = max(t.MaxDequesPerWorker, st.MaxDequesPerWorker)
}

// emit adds every per-layer metric to r, in the order BENCHMARK.json
// lists them.
func (l *layers) emit(r *result) {
	us := func(s sample, p float64) float64 { return s.pct(p) / 1e3 }
	for _, c := range []struct {
		name string
		s    sample
	}{{"spawn_start", l.spawnStart}, {"join", l.join}, {"overshoot", l.overshoot}, {"fire_late", l.fireLate},
		{"admit", l.admitNs}, {"read_wake", l.readWake}, {"flush", l.flush}, {"handoff", l.handoff}, {"loadgen", l.loadgenLate}} {
		if len(c.s) > 0 {
			r.note("%s: %d samples, supports up to p%g", c.name, len(c.s), supportedPercentile(len(c.s)))
		}
	}
	st := &l.stats
	tasks := float64(st.TasksSpawned)
	r.add("runtime.spawn_start_us.p50", us(l.spawnStart, 50), "us")
	r.add("runtime.spawn_start_us.p99", us(l.spawnStart, 99), "us")
	r.add("runtime.join_us.p50", us(l.join, 50), "us")
	r.add("runtime.join_us.p99", us(l.join, 99), "us")
	r.add("runtime.suspensions_per_task", ratio(float64(st.Suspensions), tasks), "count")
	r.add("steal.attempts_per_task", ratio(float64(st.StealAttempts), tasks), "count")
	r.add("steal.success_ratio", ratio(float64(st.Steals), float64(st.StealAttempts)), "ratio")
	r.add("steal.items_per_steal", ratio(float64(st.BatchItems), float64(st.Steals)), "count")
	r.add("steal.stolen_share", ratio(float64(st.BatchItems), tasks), "ratio")
	r.add("resume.overshoot_us.p50", us(l.overshoot, 50), "us")
	r.add("resume.overshoot_us.p99", us(l.overshoot, 99), "us")
	r.add("resume.tasks_per_batch", ratio(float64(st.ResumeBatchTasks), float64(st.ResumeBatches)), "count")
	r.add("timerwheel.fire_late_us.p50", us(l.fireLate, 50), "us")
	r.add("timerwheel.fire_late_us.p99", us(l.fireLate, 99), "us")
	r.add("runtime.max_deques_per_worker", float64(st.MaxDequesPerWorker), "count")
	r.add("cancel.with_deadline_ns.p50", l.withDeadline.pct(50), "ns")
	r.add("cancel.release_ns.p50", l.release.pct(50), "ns")
	r.add("admit.admit_ns.p50", l.admitNs.pct(50), "ns")
	r.add("admit.admit_ns.p99", l.admitNs.pct(99), "ns")
	r.add("admit.inflight_peak", l.inflightPeak, "count")
	r.add("admit.reject_frac", l.rejectFrac, "ratio")
	r.add("io.read_wake_us.p50", us(l.readWake, 50), "us")
	r.add("io.read_wake_us.p99", us(l.readWake, 99), "us")
	r.add("io.frames_per_read", l.framesPerRead, "count")
	r.add("io.flush_us.p50", us(l.flush, 50), "us")
	r.add("io.flush_us.p99", us(l.flush, 99), "us")
	r.add("io.frames_per_flush", l.perFlush, "count")
	r.add("runtime.chan_handoff_us.p50", us(l.handoff, 50), "us")
	r.add("bufpool.new_ratio", l.bufNewRatio, "ratio")
	r.add("allocs_per_op", l.allocsPerOp, "count")
	r.add("loadgen.late_ms.p99", l.loadgenLate.pct(99)/1e6, "ms")
	r.add("gc.pause_total_ms", l.gcPauseMs, "ms")
	r.add("tail.p999_ms.r5k", l.p999r5k, "ms")
	r.add("tail.p999_ms.r30k", l.p999r30k, "ms")
	r.add("trace.overhead_frac", l.overhead, "ratio")
	r.add("fail_frac", l.failFrac, "ratio")
	r.add("p99_ms", l.p99ms, "ms")
	r.add("p50_ms.r30k", l.p50r30k, "ms")
	r.add("p99_ms.r30k", l.p99r30k, "ms")
	r.add("cpu_us_per_req.r5k", l.cpuR5k, "us")
	l.spans.selfMetrics(r)
}

// memSnap is a GC/allocation reading taken between measured phases.
type memSnap struct{ mallocs, pauseNs uint64 }

func readMem() memSnap {
	var ms goruntime.MemStats
	goruntime.ReadMemStats(&ms)
	return memSnap{ms.Mallocs, ms.PauseTotalNs}
}

// probe is one timer armed on the runtime's wheel; fired-due is how late
// the wheel ran it.
type probe struct{ due, fired int64 }

func probeFired(arg any) { p := arg.(*probe); p.fired = now() }

// armProbe arms p on c's wheel with a delay that walks across one wheel
// tick as k varies, so the probes sample every phase of the tick.
func armProbe(c *lhws.Ctx, p *probe, k int) {
	d := 2*time.Millisecond + time.Duration(k%8)*(time.Millisecond/32)
	p.due = now() + int64(d)
	c.Wheel().AfterFunc(d, probeFired, p)
}

// addProbe appends the firing delay of each probe that fired. A probe
// still pending when its run ended never fires and is skipped.
func (l *layers) addProbe(p *probe) {
	if p.fired != 0 {
		l.fireLate = append(l.fireLate, float64(p.fired-p.due))
	}
}

// memWatch samples, every memTick, the memory the Go runtime holds from
// the OS — mapped read-write and not released back — and keeps the
// peak. Unlike the process's lifetime peak RSS it can be restarted, so
// each rep of a batch workload gets its own peak.
type memWatch struct {
	stop, done chan struct{}
	peak       uint64
}

const memTick = 2 * time.Millisecond

var memMetrics = []string{"/memory/classes/total:bytes", "/memory/classes/heap/released:bytes"}

func heldBytes(s []metrics.Sample) uint64 {
	metrics.Read(s)
	return s[0].Value.Uint64() - s[1].Value.Uint64()
}

func watchMem() *memWatch {
	m := &memWatch{stop: make(chan struct{}), done: make(chan struct{})}
	s := make([]metrics.Sample, len(memMetrics))
	for i, name := range memMetrics {
		s[i].Name = name
	}
	m.peak = heldBytes(s)
	go func() {
		defer close(m.done)
		tick := time.NewTicker(memTick)
		defer tick.Stop()
		for {
			select {
			case <-m.stop:
				m.peak = max(m.peak, heldBytes(s))
				return
			case <-tick.C:
				m.peak = max(m.peak, heldBytes(s))
			}
		}
	}()
	return m
}

// end stops the watch and returns its peak in MB.
func (m *memWatch) end() float64 {
	close(m.stop)
	<-m.done
	return float64(m.peak) / (1 << 20)
}
