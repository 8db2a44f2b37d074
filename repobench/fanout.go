package main

import (
	"time"

	"lhws"
)

// fanout: every round the root spawns fanoutWidth children flat and then
// awaits them all. All work starts on worker 0, so the other worker gets
// work only by stealing: the spawn/await quantum and the batched steal
// path carry the run, with no timers or I/O.
const (
	fanoutRounds = 1000
	fanoutWidth  = 256
	fanoutWarm   = 100 // rounds run in set-up, before the timed rounds
	// leafSample: a traced run times every leafSample-th leaf.
	leafSample = 64
)

// leafTrace holds one sampled leaf's boundary times.
type leafTrace struct {
	spawn, entry, exit, awaitCall, awaitRet int64
	probe                                   probe
}

func runFanout(cfg config) *result {
	iters := uniformIters(newRNG(cfg.seed, 1), fanoutRounds*fanoutWidth, 500, 4500)
	var want uint64
	for leaf, n := range iters {
		want += spinClosed(n, uint64(leaf))
	}
	var tr []leafTrace
	if cfg.trace {
		tr = make([]leafTrace, len(iters)/leafSample)
	}
	run := func(traced bool) repOut {
		var rep repOut
		var lt []leafTrace
		if traced {
			lt = tr
			clear(lt)
		}
		rep.lat = make(sample, fanoutRounds)
		t0 := time.Now()
		rep.st, rep.err = lhws.RunTasks(lhws.RuntimeConfig{Workers: workers, Mode: lhws.LatencyHiding}, func(c *lhws.Ctx) {
			fanoutRoundsRun(c, iters, fanoutWarm, nil, nil, &rep.childErrs)
			rep.setup = time.Since(t0)
			cpu0, t1 := cpuNs(), time.Now()
			rep.sum = fanoutRoundsRun(c, iters, fanoutRounds, rep.lat, lt, &rep.childErrs)
			rep.wall, rep.cpu = time.Since(t1), cpuNs()-cpu0
		})
		return rep
	}
	check := func(r *result, rep repOut) bool {
		switch {
		case rep.err != nil:
			r.fail("run: %v", rep.err)
		case rep.childErrs != 0:
			r.fail("%d children failed", rep.childErrs)
		case rep.sum != want:
			r.fail("checksum %d, serial reference %d", rep.sum, want)
		default:
			return true
		}
		return false
	}
	const leaves = fanoutRounds * fanoutWidth
	return repeatReps(cfg, leaves, run, check, func(l *layers) {
		for i := range tr {
			t := &tr[i]
			if t.awaitRet == 0 {
				continue
			}
			l.spawnStart = append(l.spawnStart, float64(t.entry-t.spawn))
			l.join = append(l.join, float64(t.awaitRet-max(t.exit, t.awaitCall)))
			l.addProbe(&t.probe)
			root := span{Req: uint32(i), Name: "leaf", Start: t.spawn, End: t.awaitRet}
			l.spans.add(root, []span{
				{Name: "runtime.spawn_start", Start: t.spawn, End: t.entry},
				{Name: "compute", Start: t.entry, End: t.exit},
				{Name: "runtime.join", Start: max(t.exit, t.awaitCall), End: t.awaitRet},
			})
		}
	})
}

// fanoutRoundsRun runs rounds of flat spawn-then-await-all and returns
// the checksum of the children's results. With lat non-nil it records
// each round's latency in ms; with tr non-nil it stamps every
// leafSample-th leaf and arms a wheel probe from every fourth of those.
func fanoutRoundsRun(c *lhws.Ctx, iters []uint32, rounds int, lat sample, tr []leafTrace, errs *int64) uint64 {
	var sum uint64
	res := make([]uint64, fanoutWidth)
	futs := make([]*lhws.Future, fanoutWidth)
	for r := 0; r < rounds; r++ {
		roundStart := now()
		base := r * fanoutWidth
		for i := range futs {
			leaf := base + i
			n, out := iters[leaf], &res[i]
			if tr != nil && leaf%leafSample == 0 {
				t := &tr[leaf/leafSample]
				t.spawn = now()
				futs[i] = c.Spawn(func(cc *lhws.Ctx) {
					t.entry = now()
					if leaf%(4*leafSample) == 0 {
						armProbe(cc, &t.probe, leaf/leafSample)
					}
					*out = spin(n, uint64(leaf))
					t.exit = now()
				})
				continue
			}
			futs[i] = c.Spawn(func(*lhws.Ctx) { *out = spin(n, uint64(leaf)) })
		}
		for i, f := range futs {
			var err error
			if leaf := base + i; tr != nil && leaf%leafSample == 0 {
				t := &tr[leaf/leafSample]
				t.awaitCall = now()
				err = f.AwaitErr(c)
				t.awaitRet = now()
			} else {
				err = f.AwaitErr(c)
			}
			if err != nil {
				*errs++
			}
			sum += res[i]
		}
		if lat != nil {
			lat[r] = float64(now()-roundStart) / 1e6
		}
	}
	return sum
}
