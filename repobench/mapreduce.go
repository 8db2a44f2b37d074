package main

import (
	"sync/atomic"
	"time"

	"lhws"
)

// mapreduce: the paper's §6.1 / Figure 8 map-reduce on the real runtime.
// Every leaf waits mrLatency and then spins, so thousands of tasks are
// suspended at once: the timer wheel (arm→fire) and the pfor-tree resume
// injection carry the run, and steals are rare.
const (
	mrLeaves    = 100_000
	mrWarm      = 2_000 // leaves of the set-up run
	mrLatency   = 20 * time.Millisecond
	mrMinIters  = 2_200 // spins of about 1–2 µs
	mrMaxIters  = 4_500
	mrRNGStream = 2
)

// mrTrace holds the stamps of one sampled leaf and of the spawn whose
// right half starts at the same index.
type mrTrace struct {
	latStart, latEnd, compEnd               int64
	spawn, entry, exit, awaitCall, awaitRet int64
	probe                                   probe
}

func runMapReduce(cfg config) *result {
	iters := uniformIters(newRNG(cfg.seed, mrRNGStream), mrLeaves, mrMinIters, mrMaxIters)
	// The closed form of the reduction: the sum over leaves of spin's
	// closed form.
	var want uint64
	for i, n := range iters {
		want += spinClosed(n, uint64(i))
	}
	var tr []mrTrace
	if cfg.trace {
		tr = make([]mrTrace, mrLeaves/leafSample+1)
	}
	run := func(traced bool) repOut {
		rep := repOut{lat: make(sample, mrLeaves)}
		m := &mapReducer{iters: iters, lat: rep.lat}
		if traced {
			m.tr = tr
			clear(tr)
		}
		t0 := time.Now()
		rep.st, rep.err = lhws.RunTasks(lhws.RuntimeConfig{Workers: workers, Mode: lhws.LatencyHiding}, func(c *lhws.Ctx) {
			warm := &mapReducer{iters: iters}
			warm.run(c, 0, mrWarm)
			rep.setup = time.Since(t0)
			cpu0, t1 := cpuNs(), time.Now()
			rep.sum = m.run(c, 0, mrLeaves)
			rep.wall, rep.cpu = time.Since(t1), cpuNs()-cpu0
			rep.childErrs = m.errs.Load() + warm.errs.Load()
		})
		return rep
	}
	check := func(r *result, rep repOut) bool {
		switch {
		case rep.err != nil:
			r.fail("run: %v", rep.err)
		case rep.childErrs != 0:
			r.fail("%d subtrees failed", rep.childErrs)
		case rep.sum != want:
			r.fail("reduction %d, closed form %d", rep.sum, want)
		default:
			return true
		}
		return false
	}
	return repeatReps(cfg, mrLeaves, run, check, func(l *layers) {
		for i := range tr {
			t := &tr[i]
			if t.compEnd != 0 {
				l.overshoot = append(l.overshoot, float64(t.latEnd-t.latStart-int64(mrLatency)))
				l.addProbe(&t.probe)
				l.spans.add(span{Req: uint32(i), Name: "leaf", Start: t.latStart, End: t.compEnd}, []span{
					{Name: "runtime.Latency", Start: t.latStart, End: t.latEnd},
					{Name: "compute", Start: t.latEnd, End: t.compEnd},
				})
			}
			if t.awaitRet != 0 {
				l.spawnStart = append(l.spawnStart, float64(t.entry-t.spawn))
				l.join = append(l.join, float64(t.awaitRet-max(t.exit, t.awaitCall)))
			}
		}
	})
}

// mapReducer runs Figure 8 over one input: split the index range, fork
// the right half, fetch-and-map single elements at the leaves, and add
// on the way up. lat, when set, receives each leaf's latency in ms from
// its fetch to its mapped value; tr, when set, the stamps of sampled
// leaves and spawns.
type mapReducer struct {
	iters []uint32
	lat   sample
	tr    []mrTrace
	errs  atomic.Int64 // right halves that failed
}

func (m *mapReducer) run(c *lhws.Ctx, lo, hi int) uint64 {
	if hi-lo == 1 {
		return m.leaf(c, lo)
	}
	mid := (lo + hi) / 2
	var t *mrTrace
	if m.tr != nil && mid%leafSample == 0 {
		t = &m.tr[mid/leafSample]
		t.spawn = now()
	}
	right := lhws.SpawnValue(c, func(cc *lhws.Ctx) uint64 {
		if t == nil {
			return m.run(cc, mid, hi)
		}
		t.entry = now()
		v := m.run(cc, mid, hi)
		t.exit = now()
		return v
	})
	left := m.run(c, lo, mid)
	if t != nil {
		t.awaitCall = now()
	}
	v, err := right.AwaitErr(c)
	if t != nil {
		t.awaitRet = now()
	}
	if err != nil {
		m.errs.Add(1)
	}
	return left + v
}

// leaf fetches element i (a wait of mrLatency) and maps it.
func (m *mapReducer) leaf(c *lhws.Ctx, i int) uint64 {
	if m.tr == nil || i%leafSample != 0 {
		t0 := now()
		c.Latency(mrLatency)
		v := spin(m.iters[i], uint64(i))
		if m.lat != nil {
			m.lat[i] = float64(now()-t0) / 1e6
		}
		return v
	}
	t := &m.tr[i/leafSample]
	if i%(4*leafSample) == 0 {
		armProbe(c, &t.probe, i/leafSample)
	}
	t.latStart = now()
	c.Latency(mrLatency)
	t.latEnd = now()
	v := spin(m.iters[i], uint64(i))
	t.compEnd = now()
	m.lat[i] = float64(t.compEnd-t.latStart) / 1e6
	return v
}
