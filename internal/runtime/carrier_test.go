package runtime

import (
	goruntime "runtime"
	"sync/atomic"
	"testing"
	"time"
)

// Tests for the carrier model: fresh tasks run inline on the goroutine
// that holds their worker, and only a real suspension moves the worker to
// another goroutine (see task.release, worker.runTask).

// A flat fan-out of leaves that never suspend runs every leaf inline on
// the carriers, so the goroutine count inside the run stays at the
// workers, the parked root and at most a few idle carriers — not one
// goroutine per spawned task.
func TestInlineFanoutAddsNoGoroutines(t *testing.T) {
	const workers, fan = 2, 1024
	base := goruntime.NumGoroutine()
	var ran atomic.Int64
	var peak int
	_, err := Run(Config{Workers: workers, Seed: 1}, func(c *Ctx) {
		futs := make([]*Future, fan)
		for i := range futs {
			futs[i] = c.Spawn(func(*Ctx) { ran.Add(1) })
		}
		peak = goruntime.NumGoroutine()
		for _, f := range futs {
			f.Await(c)
			if n := goruntime.NumGoroutine(); n > peak {
				peak = n
			}
		}
	})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if got := ran.Load(); got != fan {
		t.Fatalf("%d leaves ran, want %d", got, fan)
	}
	if peak > base+workers+4 {
		t.Errorf("%d goroutines inside a %d-wide fan-out, want <= %d (base %d + workers %d + 4)",
			peak, fan, base+workers+4, base, workers)
	}
}

// Tasks that suspend on one worker and resume on another finish their
// slices on whichever worker granted them: every task completes, each
// suspension costs exactly one more run slice, and the run leaves no
// goroutine behind. Each task sleeps at least minRounds times and goes
// on until some task has been seen to change worker, so the migration
// the test is about happens on any host, however the steals fall.
func TestSuspendResumeAcrossWorkers(t *testing.T) {
	const tasks, minRounds, maxRounds = 256, 4, 1000
	base := goruntime.NumGoroutine()
	var done, moved atomic.Int64
	st, err := Run(Config{Workers: 4, Seed: 3}, func(c *Ctx) {
		futs := make([]*Future, tasks)
		for i := range futs {
			futs[i] = c.Spawn(func(cc *Ctx) {
				for r := 0; r < maxRounds && (r < minRounds || moved.Load() == 0); r++ {
					before := cc.Worker()
					cc.Latency(100 * time.Microsecond)
					if cc.Worker() != before {
						moved.Add(1)
					}
				}
				done.Add(1)
			})
		}
		for _, f := range futs {
			f.Await(c)
		}
	})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if got := done.Load(); got != tasks {
		t.Fatalf("%d tasks completed, want %d", got, tasks)
	}
	if moved.Load() == 0 {
		t.Errorf("no task resumed on a different worker in %d suspensions", st.Suspensions)
	}
	if st.TasksRun != st.TasksSpawned+st.Suspensions {
		t.Errorf("TasksRun = %d, want spawns %d + resumptions %d", st.TasksRun, st.TasksSpawned, st.Suspensions)
	}
	if st.Suspensions < tasks*minRounds {
		t.Errorf("Suspensions = %d, want >= %d", st.Suspensions, tasks*minRounds)
	}
	waitGoroutines(t, base)
}

// A Blocking-mode spawn/await chain nests every level on one worker's
// stack: the awaiting task runs its child inline, which runs its own
// child inline, and so on, with no goroutine per level.
func TestBlockingChainNestsInline(t *testing.T) {
	const depth = 10000
	base := goruntime.NumGoroutine()
	var levels atomic.Int64
	var deepest int
	var chain func(c *Ctx, d int)
	chain = func(c *Ctx, d int) {
		levels.Add(1)
		if d == 0 {
			deepest = goruntime.NumGoroutine()
			return
		}
		c.Spawn(func(cc *Ctx) { chain(cc, d-1) }).Await(c)
	}
	st, err := Run(Config{Workers: 1, Mode: Blocking}, func(c *Ctx) { chain(c, depth) })
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if got := levels.Load(); got != depth+1 {
		t.Fatalf("%d levels ran, want %d", got, depth+1)
	}
	if st.TasksSpawned != depth+1 {
		t.Errorf("TasksSpawned = %d, want %d", st.TasksSpawned, depth+1)
	}
	if deepest > base+4 {
		t.Errorf("%d goroutines at depth %d, want <= %d: levels must nest on one stack", deepest, depth, base+4)
	}
}
