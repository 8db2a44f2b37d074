package runtime

import (
	"fmt"
	"sync/atomic"
	"time"

	"lhws/internal/faultpoint"
)

// task is a user-level thread. A task runs on the goroutine of the
// carrier that picks it up: a fresh task runs inline, on the stack of
// whichever goroutine holds its worker (see runTask), so a task that
// never suspends costs no goroutine switch. Only a suspension moves
// the worker: the suspending task hands its worker to another goroutine
// (release) and parks its own goroutine on the resume channel until some
// worker grants it one again. A task therefore executes only while its
// goroutine holds a worker, and each worker is held by exactly one
// goroutine at a time, so at most one task or loop is active per worker
// at any instant. That mutual exclusion is what makes owner-side deque
// operations from task code safe.
//
// Every goroutine of a run is in one of three states: it holds a worker
// (P of them), it is a suspended task parked on its resume channel, or
// it is an idle carrier that granted its worker to a resumed task and
// waits on the run's idle channel for a worker to carry. Goroutines =
// suspended tasks + P + idle carriers.
//
// Task shells are pooled: when a recyclable task finishes, the goroutine
// that ran its final slice returns the shell — struct and resume
// channel — to the free list of the worker it holds at that moment
// (overflowing into the runtime's sync.Pool), and Ctx.Spawn reuses it for
// the next child instead of allocating. A shell owns no goroutine
// between lives.
//
// epoch is deliberately NOT reset between lives: the suspension-claim CAS
// in waiter.wake relies on it increasing monotonically for the lifetime of
// the shell, so a stale wakeup aimed at a previous life can never claim a
// suspension of the current one.
type task struct {
	rt      *runtimeState
	fn      func(*Ctx)
	resume  chan *worker // grant: run on this worker (started tasks only)
	started bool         // running or suspended this life (owner-role access only)
	recycle bool         // shell returns to the pool on completion
	home    *rdeque      // deque the task belongs to while suspended
	w       *worker      // worker the task's goroutine holds; task-side access only
	scope   *cancelScope // cancellation scope the task was spawned under
	fut     *Future      // completion future (nil for the root task)
	ctx     Ctx          // the task's Ctx, re-initialized each life

	// epoch is the suspension epoch: odd while a suspension is open,
	// advanced by beginWait and by the (unique) claiming wakeup. See
	// waiter. Monotonic across pooled lives — never reset.
	epoch atomic.Uint64
	// wakeErr is set by the claiming waker before re-injection when the
	// wake is a cancellation abort; the resume handoff publishes it.
	wakeErr error
	// extN/extErr carry an external completion's payload from the
	// claiming wake to AwaitExternalOp's return (see waiter).
	extN   int
	extErr error
	// err is the task's outcome, written by the task before runOne
	// returns: nil, a cancellation cause, or a wrapped panic.
	err error
}

//lhws:nonblocking
func newTask(rt *runtimeState, fn func(*Ctx)) *task {
	return &task{
		rt:     rt,
		fn:     fn,
		resume: make(chan *worker, 1),
	}
}

// runOne runs one life of the shell: the user function, then the
// completion protocol. A panic in the user function is recorded as the
// run's fatal error (surfaced from Run) and unified with cancellation: it
// cancels the root scope so every other task unwinds and the run drains
// instead of hanging or leaking goroutines. A cancelPanic — the
// cooperative-cancellation unwind — becomes the task's error without
// being fatal to the run. Either way the task's future completes (with the
// error) so joins unwind, and runOne returns to the runTask frame that
// started it, on the goroutine that now holds t.w.
func (t *task) runOne() {
	t.ctx = Ctx{t: t, scope: t.scope}
	c := &t.ctx
	defer func() {
		if r := recover(); r != nil {
			if cp, ok := r.(cancelPanic); ok {
				t.err = cp.err
				t.rt.stats.TasksCanceled.Add(1)
			} else {
				t.err = fmt.Errorf("%w: %v", ErrTaskPanic, r)
				t.rt.stats.TasksPanicked.Add(1)
				t.rt.recordFatal(t.err)
			}
		}
		// Goodput accounting: a task that finished cleanly but after its
		// scope's latency target is a late completion — throughput the
		// server scenario's client no longer wants. One plain field read
		// when no target is set.
		if tgt := t.scope.target; tgt != 0 && t.err == nil && time.Now().UnixNano() > tgt {
			t.rt.stats.TasksLate.Add(1)
		}
		if t.fut != nil {
			t.fut.complete(t.err)
		}
		t.rt.taskDone()
	}()
	if inj := t.rt.cfg.Faults; inj != nil {
		inj.Inject(faultpoint.TaskBody)
	}
	t.fn(c)
}

// Ctx is a task's handle to the runtime: the capability to spawn, await,
// perform latency operations, and manage cancellation. A Ctx is only valid
// within the task it was passed to; nested tasks receive their own Ctx.
// Derived contexts (WithCancel, WithDeadline) share the task and may be
// used interchangeably with their parent within it.
type Ctx struct {
	t     *task
	scope *cancelScope
}

// Worker returns the index of the worker currently running the task
// (useful for instrumentation; it may change across suspension points).
func (c *Ctx) Worker() int { return c.t.w.id }

// Spawn creates a child task executing f and makes it available for
// parallel execution by pushing it onto the bottom of the current active
// deque. The parent continues running (spawn is non-preemptive: the
// continuation keeps the worker, per §3). The returned Future completes
// when the child finishes; if the child panics or is canceled, the
// Future's Err records why. The child inherits c's cancellation scope.
//
// The child's shell comes from the worker's task free list, so a
// steady-state spawn costs one Future allocation plus the closure.
//
//lhws:owner a running task holds its worker's owner role from its grant until it releases the worker or finishes (see task)
func (c *Ctx) Spawn(f func(*Ctx)) *Future {
	return c.spawn(f, newFuture())
}

// spawnPooled is Spawn with a pool-recycled Future. Internal only: the
// caller must consume the returned future with awaitConsume exactly once
// and must not retain or share it afterwards — the future returns to the
// pool when awaitConsume returns. Used by the structured fork-join
// primitives (For) and the hot-path benchmarks, where the future provably
// never escapes its single awaiter.
func (c *Ctx) spawnPooled(f func(*Ctx)) *Future {
	return c.spawn(f, c.t.w.acquireFuture())
}

//lhws:owner a running task holds its worker's owner role from its grant until it releases the worker or finishes (see task)
func (c *Ctx) spawn(f func(*Ctx), fut *Future) *Future {
	c.checkpoint()
	child := c.t.w.acquireTask(f)
	child.scope = c.scope
	child.fut = fut
	c.t.rt.liveTasks.Add(1)
	c.t.w.stat.tasksSpawned.Add(1)
	// The running task holds the owner role of its worker, so pushing onto
	// the active deque is owner-side and safe.
	if tgt := c.scope.target; tgt != 0 {
		c.t.w.active.noteTarget(tgt, c.scope)
	}
	c.t.w.active.q.PushBottom(c.t.w.newTaskNode(child))
	return fut
}

// Latency models a latency-incurring operation (a remote call, a disk
// read, a user prompt) taking d of wall-clock time but no CPU.
//
// In LatencyHiding mode the task suspends: a timer callback returns it to
// its deque when d elapses and the worker immediately schedules other
// work. In Blocking mode the worker sleeps for the full duration — the
// baseline behaviour the paper's evaluation compares against.
//
// If the task's scope is canceled, Latency unwinds the task — before
// suspending, or early out of the wait (the timer is stopped).
func (c *Ctx) Latency(d time.Duration) {
	c.checkpoint()
	if c.t.rt.cfg.Mode == Blocking {
		time.Sleep(d)
		return
	}
	c.injectFault(faultpoint.Suspend)
	t := c.t
	home := c.t.w.active
	home.suspend()
	wt := t.beginWait("latency", KindTimer, home, nil)
	t.rt.pendingWakes.Add(1)
	wt.refs.Add(1) // timer reference, consumed by deliver
	wt.timer = t.rt.wheel.AfterFunc(d, latencyFired, wt)
	c.armScope(wt)
	c.finishWait(wt)
}

// latencyFired is the wheel callback for Latency: ten thousand sleeping
// tasks cost one timer goroutine, and expirations sharing a tick land in
// the same drainResumed batch. A package-level function (with the waiter
// as the argument) keeps the arm allocation-free apart from the timer
// entry itself.
//
//lhws:nosuspend
func latencyFired(arg any) {
	wt := arg.(*waiter)
	wt.t.rt.pendingWakes.Add(-1)
	wt.deliver(faultpoint.ResumeInject)
}

// armScope registers the open suspension with the task's cancellation
// scope so a cancel aborts the wait. It owns the scope reference taken in
// beginWait: if the scope is already canceled the abort path (which
// consumes the reference) runs inline.
//
//lhws:nosuspend
func (c *Ctx) armScope(wt *waiter) {
	if err := c.scope.addWait(wt, wt); err != nil {
		wt.abortWait(err)
	}
}

// injectFault runs the task-side fault point p (it may sleep or panic);
// a single nil check when chaos is off. Task-side only — never called
// from the worker loop.
func (c *Ctx) injectFault(p faultpoint.Point) {
	if inj := c.t.rt.cfg.Faults; inj != nil {
		inj.Inject(p)
	}
}

// yield suspends the task: it hands the worker on (release) and parks
// until some worker resumes the task; the Ctx is rebound to the resuming
// worker.
func (c *Ctx) yield() {
	c.t.release()
	c.t.w = <-c.t.resume
}

// release gives up the worker a suspending task holds. The task still
// has the owner role until it lets go, so it takes the loop's next step
// itself: it drains its worker's resumed deques and pops the next item.
// A started task popped here — often the very one suspending, when its
// wake already arrived — is granted the worker directly, goroutine to
// goroutine. Otherwise the worker, with any fresh task it popped
// assigned, goes to an idle carrier, or to a new one when none is idle;
// the carrier runs the worker's loop. A carrier counts itself idle
// (rt.idlers) before it grants its worker away, and a suspending task
// claims a counted carrier — its send waits for that carrier to reach
// the receive — before it would start another. The goroutine count thus
// grows only while more tasks are suspended than ever before in the run.
//
//lhws:owner the suspending task holds its worker's owner role until the handoff below
func (t *task) release() {
	w := t.w
	w.stat.running.Add(-1)
	w.drainResumed()
	if it, ok := w.active.q.PopBottom(); ok {
		next := w.resolveItem(it)
		if next.started {
			w.grant(next)
			return
		}
		w.assigned = next
	}
	rt := t.rt
	for n := rt.idlers.Load(); n > 0; n = rt.idlers.Load() {
		if rt.idlers.CompareAndSwap(n, n-1) {
			rt.idle <- w
			return
		}
	}
	go w.loop()
}
