package io

import (
	"context"
	"errors"
	"net"
	"sync"
	"time"

	"lhws/internal/bufpool"
	"lhws/internal/runtime"
	"lhws/internal/timerwheel"
)

// This file is the operation engine. Every socket operation is an ioOp
// the calling task awaits through runtime.AwaitExternalOp. The op's
// blocking step (Block) runs on the suspended task's own goroutine after
// the task has released its worker: it makes the socket call with no
// deadline, Go's netpoller (epoll on Linux, kqueue on the BSDs) parks
// the goroutine until the socket is ready, and the op completes its
// handle, which re-injects the task through its deque's bulk resumed
// path. A suspended task keeps its own goroutine, parked until its next
// worker grant, so waiting costs no goroutine beyond the task's own.
//
// Cancellation never waits for readiness: aborting a suspended I/O task
// kicks the call in flight by setting the socket's deadline into the
// past, which the netpoller turns into an immediate timeout. Every
// attempt clears its direction's deadline first, under op.mu, so a kick
// either lands after the clear (and interrupts the call) or is seen as a
// flag before the call starts. Per-op deadlines (Conn.SetOpTimeout) ride
// the run's shared timer wheel and reuse the same kick: the expiry
// callback marks the op timed out and interrupts it, and the attempt
// completes with ErrOpTimeout — an ordinary error return to the task,
// not an unwind.

// errOpCanceled is the completion payload of a kicked (canceled)
// operation. It is never observed by user code: a canceled await either
// unwinds the task (latency-hiding and blocking modes both) before the
// payload is read, or the payload lost the wake claim entirely.
var errOpCanceled = errors.New("lhws/io: operation canceled")

// errOpTimeout is the completion payload of an op whose per-op deadline
// (Conn.SetOpTimeout) expired before the socket delivered. Unlike a
// cancellation it is a normal completion: the task gets (progress,
// ErrOpTimeout) back from Read/Write and decides what to do with the
// connection itself.
var errOpTimeout = errors.New("lhws/io: operation deadline exceeded")

// aLongTimeAgo is the past deadline used to kick in-flight socket calls.
var aLongTimeAgo = time.Unix(1, 0)

type opKind int8

const (
	opRead opKind = iota
	opWrite
	opWritev
	opAccept
	opDial
)

// ioOp is one socket operation in flight. A Conn embeds one read op and
// one write op, reused by every read and every write on it (the
// one-reader/one-writer contract makes that safe: a task is in Read
// until Block has finished, because the task resumes only after Block
// returns). Accept and dial ops are allocated per call and owned by the
// task, which takes the result connection out of the op after resuming.
//
// mu serializes the parties that can touch an op concurrently — the
// task's own goroutine running Block, a cancellation abort, and the
// timer wheel's deadline callback — and h is the op's identity check:
// CancelExternal compares its handle against op.h, so an abort that
// raced with completion (and possibly with the op's reuse for the next
// read) detects staleness and leaves the new life alone. The comparison
// is sound because the aborting scope still holds a reference on its
// waiter, so the handle's waiter cannot have been recycled while the
// abort runs. The deadline callback's identity check is op.dl: a fired
// timer that no longer matches belongs to a finished life and is
// ignored.
type ioOp struct {
	mu       sync.Mutex
	h        runtime.ExternalHandle // zeroed at completion; identity for cancel
	kind     opKind
	canceled bool
	timedOut bool              // per-op deadline expired (Conn.SetOpTimeout)
	dl       *timerwheel.Timer // armed per-op deadline; stopped at completion

	cn  *Conn     // read / write
	ln  *Listener // accept
	buf []byte
	off int // write progress across interrupted attempts

	// Pooled-read state: pb non-nil means buf is pb's payload and the op
	// holds pb's reference until completion settles ownership (task on a
	// won claim, the conn's unread stash on a lost claim with progress,
	// the pool otherwise). See settleBuf.
	pb *bufpool.Buf

	// Vectored-write state (opWritev): vec is consumed front-to-front by
	// writev attempts, voff accumulates bytes written across them.
	vec  net.Buffers
	voff int

	// Dial / Accept: the result connection (guarded by mu) and the dial's
	// context, whose cancel is the dial's kick.
	res       net.Conn
	dialNet   string
	dialAddr  string
	ctx       context.Context
	ctxCancel context.CancelFunc
}

// begin opens a new life of a conn's read or write op, task-side before
// the await: it resets the interrupt flags and arms the conn's per-op
// deadline d (if any) under mu, so a deadline firing before the first
// attempt is seen by that attempt as timedOut. (Arming under mu is safe:
// the wheel never runs a callback inline and runs them outside its own
// lock.)
func (op *ioOp) begin(kind opKind, w *timerwheel.Wheel, d time.Duration) {
	op.mu.Lock()
	op.kind = kind
	op.canceled, op.timedOut = false, false
	if d > 0 {
		op.dl = w.AfterFuncT(d, opDeadlineFired, op)
	}
	op.mu.Unlock()
}

// Arm publishes the await's handle, making the op cancelable. Runs
// task-side.
func (op *ioOp) Arm(h runtime.ExternalHandle) {
	op.mu.Lock()
	op.h = h
	op.mu.Unlock()
}

// Block performs the operation on the task's own goroutine, attempting
// until the handle is completed or discarded.
func (op *ioOp) Block(runtime.ExternalHandle) {
	switch op.kind {
	case opRead:
		op.runRead()
	case opWrite:
		op.runWrite()
	case opWritev:
		op.runWritev()
	case opAccept:
		op.runAccept()
	case opDial:
		op.runDial()
	}
	// Drop the caller's buffers: the op outlives the call inside its Conn.
	op.buf, op.vec = nil, nil
}

// CancelExternal interrupts the op: mark it canceled and kick the call
// in flight. Runs on the canceling goroutine; must not block (deadline
// sets and context cancels only).
func (op *ioOp) CancelExternal(h runtime.ExternalHandle, cause error) {
	op.mu.Lock()
	defer op.mu.Unlock()
	if op.res != nil {
		// An accepted or dialed conn the canceled task will never take.
		op.res.Close()
		op.res = nil
	}
	if op.h != h {
		// Stale abort: the op completed (and was possibly reused for the
		// conn's next operation) before the cancel landed.
		return
	}
	op.canceled = true
	op.kick()
}

// opDeadlineFired is the timer-wheel callback for a per-op deadline
// (Conn.SetOpTimeout): mark the op timed out and kick it like a cancel
// would, so the call in flight returns promptly and the attempt
// completes with ErrOpTimeout. Runs on the wheel goroutine. The op.dl
// identity check makes a stale fire — the timer lost its Stop race and
// the op has completed, possibly reused and re-armed with a fresh timer
// — a no-op.
//
//lhws:nosuspend
func opDeadlineFired(t *timerwheel.Timer, arg any) {
	op := arg.(*ioOp)
	op.mu.Lock()
	if op.dl == t {
		op.dl = nil
		op.timedOut = true
		op.kick()
	}
	op.mu.Unlock()
}

// kick interrupts the op's call in flight. Caller holds mu.
func (op *ioOp) kick() {
	if op.kind == opDial {
		op.ctxCancel()
		return
	}
	op.setDeadline(aLongTimeAgo)
}

// setDeadline sets the deadline of the op's socket direction: the zero
// time clears it for an attempt, a past time kicks the call in flight.
// Errors are dropped: Wrap admits only conns whose deadlines work, so a
// failure means the socket is closed, and the call it guards reports
// that itself. Caller holds mu.
func (op *ioOp) setDeadline(t time.Time) {
	switch op.kind {
	case opRead:
		op.cn.nc.SetReadDeadline(t)
	case opWrite, opWritev:
		op.cn.nc.SetWriteDeadline(t)
	case opAccept:
		if dl, ok := op.ln.nl.(deadliner); ok {
			dl.SetDeadline(t)
		}
	}
}

// interrupted starts one attempt: it reports whether the op was
// canceled or timed out, and otherwise clears the socket deadline —
// under mu, which closes the kick race: either the kick sees this
// attempt's cleared deadline and overrides it, or the attempt sees the
// flag here and never makes the call.
func (op *ioOp) interrupted() bool {
	op.mu.Lock()
	stop := op.canceled || op.timedOut
	if !stop {
		op.setDeadline(time.Time{})
	}
	op.mu.Unlock()
	return stop
}

// deadliner is the subset of net listeners that support kicking.
type deadliner interface {
	SetDeadline(time.Time) error
}

// finish ends the op's life with an attempt's result. It stops any
// armed per-op deadline (a fire losing the race is ignored by the op.dl
// identity check) and zeroes the handle, ending the cancel-visibility
// window. A canceled op discards: the abort that kicked it owns the
// task's wake, and a normal Complete could win that race and hand the
// unwinding task a kicked attempt's payload as if it had succeeded (see
// ExternalHandle.Discard). Returns whether the payload reached the task.
//
//lhws:nosuspend
func (op *ioOp) finish(n int, err error) bool {
	op.mu.Lock()
	if op.dl != nil {
		op.dl.Stop()
		op.dl = nil
	}
	h, canceled := op.h, op.canceled
	op.h = runtime.ExternalHandle{}
	op.mu.Unlock()
	if canceled {
		h.Discard(err)
		return false
	}
	return h.Complete(n, err)
}

// settleBuf resolves a read's bytes after finish. won is finish's
// result, n the attempt's progress. Exactly one party ends up owning a
// pooled buffer's reference:
//
//   - claim won: the task — it is returning from ReadBuf with the
//     buffer in hand, so the op only forgets its pointer;
//   - claim lost with progress: the conn's unread stash — the bytes are
//     already off the socket and the next read must see them, so the
//     buffer MOVES into the stash (the zero-copy half of the cancel
//     window; the unpooled path has to copy here);
//   - claim lost without progress: nobody — back to the pool.
//
//lhws:nosuspend
func (op *ioOp) settleBuf(won bool, n int) {
	pb := op.pb
	op.pb = nil
	switch {
	case won:
	case n == 0:
		if pb != nil {
			pb.Release()
		}
	case pb != nil:
		pb.SetLen(n)
		op.cn.stashUnreadBuf(pb)
	default:
		op.cn.stashUnread(op.buf[:n])
	}
}

func (op *ioOp) runRead() {
	for {
		if op.interrupted() {
			op.settleBuf(op.finish(0, errOpTimeout), 0)
			return
		}
		n, err := op.cn.nc.Read(op.buf)
		if n == 0 && isTimeout(err) {
			continue // kicked: the next attempt reads why
		}
		if isTimeout(err) {
			// Data arrived with the kick: progress is not an error for the
			// caller (a per-op deadline firing just as bytes land loses).
			err = nil
		}
		op.settleBuf(op.finish(n, err), n)
		return
	}
}

func (op *ioOp) runWrite() {
	for {
		if op.interrupted() {
			// Bytes already on the wire stay there; an unwinding task never
			// reads the progress count.
			op.finish(op.off, errOpTimeout)
			return
		}
		n, err := op.cn.nc.Write(op.buf[op.off:])
		op.off += n
		if isTimeout(err) {
			if op.off < len(op.buf) {
				continue
			}
			err = nil
		}
		op.finish(op.off, err)
		return
	}
}

// runWritev is runWrite over a buffer vector: one writev syscall per
// attempt (net.Buffers.WriteTo), consuming the written prefix so an
// interrupted attempt resumes exactly where it stopped.
func (op *ioOp) runWritev() {
	for {
		if op.interrupted() {
			op.finish(op.voff, errOpTimeout)
			return
		}
		n, err := op.vec.WriteTo(op.cn.nc)
		op.voff += int(n)
		if isTimeout(err) {
			if len(op.vec) > 0 {
				continue
			}
			err = nil
		}
		op.finish(op.voff, err)
		return
	}
}

func (op *ioOp) runAccept() {
	for {
		if op.interrupted() {
			op.finish(0, errOpCanceled)
			return
		}
		nc, err := op.ln.nl.Accept()
		if nc == nil && isTimeout(err) {
			continue
		}
		op.deliver(nc, err)
		return
	}
}

func (op *ioOp) runDial() {
	var dialer net.Dialer
	nc, err := dialer.DialContext(op.ctx, op.dialNet, op.dialAddr)
	op.ctxCancel()
	op.deliver(nc, err)
}

// deliver finishes an accept or dial. The connection waits in res for
// the task to take; if the task never will — the op was canceled, or
// its claim was lost — it is closed here or by CancelExternal, whichever
// sees it last, so none leaks.
func (op *ioOp) deliver(nc net.Conn, err error) {
	if nc != nil {
		op.mu.Lock()
		op.res = nc
		op.mu.Unlock()
		err = nil
	}
	if !op.finish(0, err) {
		if nc := op.takeResult(); nc != nil {
			nc.Close()
		}
	}
}

// takeResult removes the result connection from the op.
func (op *ioOp) takeResult() net.Conn {
	op.mu.Lock()
	nc := op.res
	op.res = nil
	op.mu.Unlock()
	return nc
}

// isTimeout runs on every attempt, err or not, so the common cases must
// not allocate: errors.As reflects on (and heap-escapes) its target even
// for a nil error, which would cost one allocation per I/O op. A nil
// check plus a direct interface assertion covers nil and the deadline
// errors the net package actually returns (*net.OpError, unwrapped);
// errors.As stays as the fallback for wrapped errors.
func isTimeout(err error) bool {
	if err == nil {
		return false
	}
	if ne, ok := err.(net.Error); ok {
		return ne.Timeout()
	}
	var ne net.Error
	return errors.As(err, &ne) && ne.Timeout()
}
