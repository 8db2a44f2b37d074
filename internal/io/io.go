// Package io gives LHWS tasks real sockets with heavy-edge semantics:
// Read, Write, Accept, and Dial suspend the calling task — never its
// worker — until the operation completes, so a worker whose task is
// waiting on the network immediately runs other work, exactly as the
// paper's latency-hiding scheduler treats a latency-incurring vertex
// (§2's heavy edges, realized by Ctx.Latency for simulated delays and by
// this package for real ones).
//
// The machinery is runtime.AwaitExternalOp underneath: an operation
// suspends through the same epoch-claimed waiter protocol as Latency and
// channel waits; once the task has released its worker, the operation's
// blocking step makes the socket call on the task's own goroutine, where
// Go's netpoller parks it until the socket is ready; and the completion
// re-injects the task through its deque's bulk resumed path —
// completions sharing a drain enter the deque as one pfor-tree node.
// Scope cancellation (WithCancel/WithDeadline, the watchdog, a panic
// elsewhere) interrupts pending socket calls promptly by kicking their
// deadlines; a canceled operation unwinds the task like every other
// canceled wait, after its interrupted call has finished.
//
// The data plane is built not to copy and not to allocate: ReadBuf
// reads into reference-counted pooled buffers (internal/bufpool) that
// move between the socket, the task, and the conn's cancel-window stash
// by pointer; QueueWrite/Flush (and Writev) coalesce pipelined responses
// into one vectored writev syscall; per-op deadlines (SetOpTimeout) are
// O(1) entries on the run's shared timer wheel. See DESIGN.md §13.
//
// In Blocking mode the same calls park the worker until the completion
// arrives, preserving the paper's baseline for comparison; code written
// against this package runs unchanged in both modes.
//
// Concurrency contract: at most one task may be in Read and one in Write
// on the same Conn at a time (as with net.Conn, reads and writes are
// independent); Accept similarly admits one accepting task per Listener.
// QueueWrite/Flush belong to the conn's single writer. A task is in an
// operation until the call returns or its cancellation unwind has left
// it.
package io

import (
	"context"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"lhws/internal/bufpool"
	"lhws/internal/runtime"
)

// Conn is a socket whose operations suspend the calling task instead of
// blocking its worker. Create one with Dial, Listener.Accept, or Wrap.
// Close is plain (non-suspending) and interrupts in-flight operations.
type Conn struct {
	nc net.Conn

	// opTimeout, when set, arms a timer-wheel deadline on each
	// subsequent read/write op (see SetOpTimeout).
	opTimeout atomic.Int64

	// wq is the task-local vectored write queue (QueueWrite/Flush). It
	// belongs to the conn's single writer — the same task that would
	// call Write — so it needs no lock: the writer is either queueing or
	// suspended in Flush, never both.
	wq net.Buffers

	// rd and wr are the conn's one read op and one write op, reused by
	// every operation in their direction (see ioOp).
	rd, wr ioOp

	// pendMu guards the unread stash: pooled buffers holding bytes a
	// canceled read's interrupted attempt consumed off the socket after
	// its completion claim was already lost to the abort. Dropping them
	// would desynchronize the stream — the conn's next read would wait
	// forever for bytes that can never arrive again — so the read op
	// stashes them here and the next read drains the stash before
	// touching the socket. Pooled reads MOVE their buffer in and out
	// (the handoff is a reference transfer, no copy); the unpooled Read
	// path copies, since its bytes alias the unwound caller's buffer.
	// pendOff is the drained prefix of pending[0].
	pendMu  sync.Mutex
	pending []*bufpool.Buf
	pendOff int
}

// stashUnread salvages bytes whose completion lost its wake claim to a
// cancellation. b aliases the unwound caller's buffer, so this path has
// to copy — into a pooled buffer, which from then on moves like any
// other stash entry.
func (cn *Conn) stashUnread(b []byte) {
	pb := bufpool.Get(len(b))
	copy(pb.Bytes(), b)
	cn.stashUnreadBuf(pb)
}

// stashUnreadBuf salvages a pooled read buffer whose completion lost
// its wake claim: ownership of pb's reference MOVES into the stash (no
// copy — this is the zero-copy half of the cancel window). No successor
// read can be waiting on the socket meanwhile: the canceled reader is
// still in Read until this returns.
func (cn *Conn) stashUnreadBuf(pb *bufpool.Buf) {
	cn.pendMu.Lock()
	cn.pending = append(cn.pending, pb)
	cn.pendMu.Unlock()
}

// takePending drains stashed unread bytes into p, stream order
// preserved; fully drained buffers go back to the pool. Returns 0 when
// the stash is empty (the common case: one predictable branch on the
// read path).
func (cn *Conn) takePending(p []byte) int {
	cn.pendMu.Lock()
	n := 0
	for n < len(p) && len(cn.pending) > 0 {
		pb := cn.pending[0]
		c := copy(p[n:], pb.Bytes()[cn.pendOff:])
		n += c
		cn.pendOff += c
		if cn.pendOff == pb.Len() {
			cn.popPendingLocked()
			pb.Release()
		}
	}
	cn.pendMu.Unlock()
	return n
}

// popPendingLocked removes pending[0] by shifting the tail down, so the
// slice keeps its backing array across drain/refill cycles (the stash
// is almost always 0–2 entries deep; resetting to nil instead would
// make every steady-state stash append allocate a fresh slice). Caller
// holds pendMu and releases the popped buffer itself.
func (cn *Conn) popPendingLocked() {
	last := len(cn.pending) - 1
	copy(cn.pending, cn.pending[1:])
	cn.pending[last] = nil
	cn.pending = cn.pending[:last]
	cn.pendOff = 0
}

// takePendingBuf pops the stash's head buffer whole — the zero-copy
// fast path of ReadBuf. A partially-drained head (a smaller
// byte-oriented Read got there first) is compacted into a fresh pooled
// buffer; the common case hands the stashed buffer over untouched.
func (cn *Conn) takePendingBuf() *bufpool.Buf {
	cn.pendMu.Lock()
	if len(cn.pending) == 0 {
		cn.pendMu.Unlock()
		return nil
	}
	pb := cn.pending[0]
	if cn.pendOff > 0 {
		rem := pb.Bytes()[cn.pendOff:]
		npb := bufpool.Get(len(rem))
		copy(npb.Bytes(), rem)
		pb.Release()
		pb = npb
	}
	cn.popPendingLocked()
	cn.pendMu.Unlock()
	return pb
}

func (cn *Conn) hasPending() bool {
	cn.pendMu.Lock()
	ok := len(cn.pending) > 0
	cn.pendMu.Unlock()
	return ok
}

// drainPending releases every stashed buffer (Close). A stash entry
// landing after this (a canceled attempt settling late) is simply left
// to the GC: the conn is closed, nobody will read it, and an unpooled
// buffer costs nothing but its memory.
func (cn *Conn) drainPending() {
	cn.pendMu.Lock()
	pend := cn.pending
	cn.pending = nil
	cn.pendOff = 0
	cn.pendMu.Unlock()
	for _, pb := range pend {
		pb.Release()
	}
}

// Wrap adopts an existing net.Conn into the task runtime. The conn must
// support deadlines (every *net.TCPConn, *net.UnixConn, ... does): the
// cancellation kick is a deadline set, so a conn whose SetDeadline fails
// could block its task forever and hang the run's shutdown. Wrap probes
// for that up front and rejects such conns instead of relying on the
// caller to know.
func Wrap(c *runtime.Ctx, nc net.Conn) (*Conn, error) {
	if err := nc.SetDeadline(time.Time{}); err != nil {
		return nil, fmt.Errorf("lhws/io: conn %T does not support deadlines: %w", nc, err)
	}
	return wrapConn(nc), nil
}

func wrapConn(nc net.Conn) *Conn {
	cn := &Conn{nc: nc}
	cn.rd.cn = cn
	cn.wr.cn = cn
	return cn
}

// SetOpTimeout sets a per-operation deadline applied to every
// subsequent Read/ReadBuf/Write/Writev/Flush on this conn (zero
// disables it). Each op arms one O(1) entry on the run's shared timer
// wheel — a million pending I/O deadlines are a million list nodes, not
// a million runtime timers — and an op still unfinished when its entry
// fires completes with ErrOpTimeout: an ordinary error return carrying
// whatever progress was made, not a cancellation unwind. The connection
// stays usable. Ops that complete in time cost one O(1) timer stop.
func (cn *Conn) SetOpTimeout(d time.Duration) {
	if d < 0 {
		d = 0
	}
	cn.opTimeout.Store(int64(d))
}

// begin opens a new life of the conn's read or write op (see
// ioOp.begin), arming the per-op deadline if one is set.
func (cn *Conn) begin(c *runtime.Ctx, op *ioOp, kind opKind) {
	op.begin(kind, c.Wheel(), time.Duration(cn.opTimeout.Load()))
}

// Read reads into p, suspending the task until at least one byte (or
// EOF, or an error) is available. Semantics match net.Conn.Read.
func (cn *Conn) Read(c *runtime.Ctx, p []byte) (int, error) {
	// Bytes salvaged from a canceled predecessor read come first: they
	// are already off the socket, ahead of anything it can deliver.
	if n := cn.takePending(p); n > 0 {
		return n, nil
	}
	op := &cn.rd
	op.buf = p
	cn.begin(c, op, opRead)
	return c.AwaitExternalOp("io-read", runtime.KindFD, op)
}

// ReadBuf is Read without the copy or the allocation: it reads up to
// max bytes into a buffer from the size-classed pool and hands the
// buffer itself to the task — the same backing array the socket read
// filled, sized to its class, with Len set to the bytes read.
// The caller owns the returned buffer's reference and must Release it
// (or pass ownership on, e.g. by queueing its bytes for write and
// releasing after Flush). On error the buffer is never returned. Bytes
// stashed by a canceled predecessor are handed over as a whole buffer,
// zero-copy.
func (cn *Conn) ReadBuf(c *runtime.Ctx, max int) (*bufpool.Buf, error) {
	if max <= 0 {
		max = 4 << 10
	}
	if pb := cn.takePendingBuf(); pb != nil {
		return pb, nil
	}
	pb := bufpool.Get(max)
	op := &cn.rd
	op.pb = pb
	op.buf = pb.Bytes()
	cn.begin(c, op, opRead)
	n, err := c.AwaitExternalOp("io-read", runtime.KindFD, op)
	// A normal return means the completion claim was won, which
	// transferred the buffer's reference to this task (see settleBuf); a
	// cancellation unwind never reaches here and the op settles the
	// buffer itself.
	if n <= 0 {
		pb.Release()
		return nil, err
	}
	pb.SetLen(n)
	return pb, err
}

// Write writes all of p, suspending the task across partial writes.
func (cn *Conn) Write(c *runtime.Ctx, p []byte) (int, error) {
	op := &cn.wr
	op.buf = p
	op.off = 0
	cn.begin(c, op, opWrite)
	return c.AwaitExternalOp("io-write", runtime.KindFD, op)
}

// Writev writes every buffer in bufs as one vectored operation: the
// op issues writev (net.Buffers.WriteTo), so N pipelined response
// fragments cost one syscall instead of N. bufs is consumed — its
// elements are nil'ed and resliced as prefixes complete, exactly like
// net.Buffers — so the caller must not reuse it without rebuilding.
// Returns the total bytes written; a partial write is retried until the
// vector drains, as with Write.
func (cn *Conn) Writev(c *runtime.Ctx, bufs net.Buffers) (int, error) {
	total := 0
	for _, b := range bufs {
		total += len(b)
	}
	if total == 0 {
		return 0, nil
	}
	op := &cn.wr
	op.vec = bufs
	op.voff = 0
	cn.begin(c, op, opWritev)
	return c.AwaitExternalOp("io-writev", runtime.KindFD, op)
}

// QueueWrite appends p to the conn's write queue without suspending or
// touching the socket. Flush writes everything queued as one vectored
// op. The queue belongs to the conn's single writer task; p is retained
// until the Flush that writes it completes, so the caller must not
// recycle p's backing array before then.
func (cn *Conn) QueueWrite(p []byte) {
	if len(p) == 0 {
		return
	}
	cn.wq = append(cn.wq, p)
}

// Queued reports the bytes currently queued by QueueWrite.
func (cn *Conn) Queued() int {
	total := 0
	for _, b := range cn.wq {
		total += len(b)
	}
	return total
}

// Flush writes every queued buffer in one vectored operation and resets
// the queue. A no-op when nothing is queued. The queue's backing array
// is reused across Flush calls, so a steady queue-and-flush loop
// allocates nothing.
func (cn *Conn) Flush(c *runtime.Ctx) (int, error) {
	if len(cn.wq) == 0 {
		return 0, nil
	}
	vec := cn.wq
	// Reset to the same backing array: the vectored op consumes vec's
	// header (and nils drained elements), and this task is suspended in
	// Writev until the op completes, so the reuse cannot race it.
	cn.wq = cn.wq[:0]
	return cn.Writev(c, vec)
}

// NetConn exposes the underlying net.Conn for address inspection and
// option setting. Do not Read/Write it from task code — that blocks the
// worker (the noblock analyzer flags it).
func (cn *Conn) NetConn() net.Conn { return cn.nc }

// Close closes the socket. Non-suspending; pending operations complete
// with the socket's close error, and stashed unread buffers go back to
// the pool.
func (cn *Conn) Close() error {
	err := cn.nc.Close()
	cn.drainPending()
	return err
}

// Gate is an admission valve a Listener consults before pulling a
// connection out of the kernel backlog. AcquireAccept returns nil when
// the server has capacity; it may suspend the accepting task (that is
// the point: backpressure parks the acceptor, and waiting connections
// queue in the kernel where they cost no worker); and it fails typed
// when intake is closed (e.g. the admission controller is draining).
// lhws/internal/admit's Controller implements it.
type Gate interface {
	AcquireAccept(c *runtime.Ctx) error
}

// Listener accepts connections without blocking workers.
type Listener struct {
	nl net.Listener

	mu   sync.Mutex
	gate Gate
}

// Listen opens a listening socket (e.g. "tcp", "127.0.0.1:0"). The bind
// itself is immediate; only Accept suspends.
func Listen(c *runtime.Ctx, network, addr string) (*Listener, error) {
	nl, err := net.Listen(network, addr) //lhws:allowblock bind+listen complete immediately; only Accept waits
	if err != nil {
		return nil, err
	}
	return &Listener{nl: nl}, nil
}

// SetGate installs an admission gate consulted by every subsequent
// Accept. Install it before the accept loop starts; a nil gate (the
// default) admits unconditionally.
func (l *Listener) SetGate(g Gate) {
	l.mu.Lock()
	l.gate = g
	l.mu.Unlock()
}

// Accept suspends the task until a connection arrives and returns it
// wrapped for task use. With a Gate installed (SetGate), Accept first
// acquires admission — suspending while the server is saturated, so
// fresh connections wait in the kernel backlog instead of being
// accepted into a server that would blow their targets — and returns
// the gate's typed error (e.g. admit.ErrDraining) when intake is
// closed.
func (l *Listener) Accept(c *runtime.Ctx) (*Conn, error) {
	l.mu.Lock()
	g := l.gate
	l.mu.Unlock()
	if g != nil {
		if err := g.AcquireAccept(c); err != nil {
			return nil, err
		}
	}
	op := &ioOp{kind: opAccept, ln: l}
	if _, err := c.AwaitExternalOp("io-accept", runtime.KindFD, op); err != nil {
		return nil, err
	}
	nc := op.takeResult()
	if nc == nil {
		// A cancellation closed the result before this task took it; the
		// scope is canceled, so the very next scheduling point unwinds.
		return nil, errOpCanceled
	}
	return wrapConn(nc), nil
}

// Addr returns the listener's address (useful with port 0).
func (l *Listener) Addr() net.Addr { return l.nl.Addr() }

// Close stops the listener; a pending Accept completes with the close
// error. Non-suspending.
func (l *Listener) Close() error { return l.nl.Close() }

// Dial connects to addr, suspending the task for the duration of the
// connection handshake.
func Dial(c *runtime.Ctx, network, addr string) (*Conn, error) {
	op := &ioOp{kind: opDial, dialNet: network, dialAddr: addr}
	op.ctx, op.ctxCancel = context.WithCancel(context.Background())
	if _, err := c.AwaitExternalOp("io-dial", runtime.KindFD, op); err != nil {
		return nil, err
	}
	nc := op.takeResult()
	if nc == nil {
		return nil, errOpCanceled
	}
	return wrapConn(nc), nil
}

// BackendName reports how this package waits for sockets: always
// "netpoll" — each operation's call runs on its task's goroutine and
// Go's netpoller parks it. Benchmarks record it with their results.
func BackendName(c *runtime.Ctx) string { return "netpoll" }

// ErrOpCanceled is exported for tests that need to distinguish the
// canceled-result sentinel; user code normally never sees it (the task
// unwinds instead).
var ErrOpCanceled = errOpCanceled

// ErrOpTimeout is the error a read/write completes with when its per-op
// deadline (SetOpTimeout) expires first. A normal error return, not a
// cancellation: the task keeps running and the conn stays usable.
var ErrOpTimeout = errOpTimeout
