package io

import (
	"errors"
	"fmt"
	"net"
	"sync/atomic"
	"syscall"
	"testing"
	"time"

	"lhws/internal/runtime"
)

// noDeadlineConn simulates a net.Conn implementation without working
// deadlines (SetDeadline errors). Cancellation cannot kick such a conn,
// so Wrap must reject it up front.
type noDeadlineConn struct{ net.Conn }

func (noDeadlineConn) SetDeadline(time.Time) error {
	return errors.New("deadlines not supported")
}

// TestWrapRejectsDeadlinelessConn: a conn whose SetDeadline fails would
// leave a canceled task blocked in its socket call forever (no kick) and
// hang the run's shutdown; Wrap probes and fails fast instead.
func TestWrapRejectsDeadlinelessConn(t *testing.T) {
	a, b := net.Pipe()
	defer a.Close()
	defer b.Close()
	_, err := runtime.Run(runtime.Config{Workers: 1, Mode: runtime.LatencyHiding, Deadline: 10 * time.Second},
		func(c *runtime.Ctx) {
			if _, werr := Wrap(c, noDeadlineConn{a}); werr == nil {
				t.Error("Wrap accepted a conn whose SetDeadline fails")
			}
		})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
}

// TestWrapAdoptsRealConn is the positive half: a deadline-capable TCP
// conn wraps fine and the wrapped conn works end to end.
func TestWrapAdoptsRealConn(t *testing.T) {
	_, err := runtime.Run(runtime.Config{Workers: 2, Mode: runtime.LatencyHiding, Deadline: 30 * time.Second},
		func(c *runtime.Ctx) {
			l, lerr := Listen(c, "tcp", "127.0.0.1:0")
			if lerr != nil {
				t.Errorf("listen: %v", lerr)
				return
			}
			srv := c.Spawn(func(cc *runtime.Ctx) { echoServe(cc, l, 4) })
			raw, derr := net.Dial("tcp", l.Addr().String()) //lhws:allowblock test harness dial outside task path
			if derr != nil {
				t.Errorf("dial: %v", derr)
				return
			}
			cn, werr := Wrap(c, raw)
			if werr != nil {
				t.Errorf("Wrap rejected a TCP conn: %v", werr)
				raw.Close()
				return
			}
			if _, werr := cn.Write(c, []byte("ping")); werr != nil {
				t.Errorf("write: %v", werr)
			}
			in := make([]byte, 4)
			if rerr := readFull(c, cn, in); rerr != nil {
				t.Errorf("read: %v", rerr)
			} else if string(in) != "ping" {
				t.Errorf("echo = %q, want %q", in, "ping")
			}
			cn.Close()
			l.Close()
			srv.Await(c)
		})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
}

// saturatedListener opens a loopback listening socket with a zero
// backlog and fills its accept queue without ever accepting, so every
// further connect has its SYN dropped by the kernel and stays pending
// (retrying for seconds) until canceled. The returned cleanup closes the
// socket and the filler conns.
func saturatedListener(t *testing.T) (addr string, cleanup func()) {
	t.Helper()
	fd, err := syscall.Socket(syscall.AF_INET, syscall.SOCK_STREAM, 0)
	if err != nil {
		t.Fatalf("socket: %v", err)
	}
	if err := syscall.Bind(fd, &syscall.SockaddrInet4{Addr: [4]byte{127, 0, 0, 1}}); err != nil {
		syscall.Close(fd)
		t.Fatalf("bind: %v", err)
	}
	if err := syscall.Listen(fd, 0); err != nil {
		syscall.Close(fd)
		t.Fatalf("listen: %v", err)
	}
	sa, err := syscall.Getsockname(fd)
	if err != nil {
		syscall.Close(fd)
		t.Fatalf("getsockname: %v", err)
	}
	addr = fmt.Sprintf("127.0.0.1:%d", sa.(*syscall.SockaddrInet4).Port)
	var fillers []net.Conn
	cleanup = func() {
		for _, c := range fillers {
			c.Close()
		}
		syscall.Close(fd)
	}
	for i := 0; ; i++ {
		c, derr := net.DialTimeout("tcp", addr, 200*time.Millisecond) //lhws:allowblock test harness fills the backlog outside any task
		if derr != nil {
			return addr, cleanup // the queue is full: this connect stayed pending
		}
		fillers = append(fillers, c)
		if i == 16 {
			cleanup()
			t.Skip("kernel accepts connects past a zero backlog; cannot hold dials pending")
		}
	}
}

// TestReadsProgressDuringPendingDials: a dial holds its task's goroutine
// for the whole connect, and nothing else. Regression: dials once
// occupied a shared pool of helper goroutines, and concurrent slow
// dials starved every queued read, write, and accept until OS connect
// timeouts expired. Here 24 dials stay pending against a saturated
// listener while echo roundtrips on an open conn keep completing; the
// canceled dials then unwind promptly.
func TestReadsProgressDuringPendingDials(t *testing.T) {
	slow, cleanup := saturatedListener(t)
	defer cleanup()
	const dials = 24
	_, err := runtime.Run(runtime.Config{Workers: 4, Mode: runtime.LatencyHiding, Deadline: 30 * time.Second},
		func(c *runtime.Ctx) {
			l, lerr := Listen(c, "tcp", "127.0.0.1:0")
			if lerr != nil {
				t.Errorf("listen: %v", lerr)
				return
			}
			srv := c.Spawn(func(cc *runtime.Ctx) { echoServe(cc, l, 4) })
			cn, derr := Dial(c, "tcp", l.Addr().String())
			if derr != nil {
				t.Errorf("dial: %v", derr)
				return
			}

			var started, finished atomic.Int32
			dc, cancel := c.WithCancel()
			futs := make([]*runtime.Future, dials)
			for i := range futs {
				futs[i] = dc.Spawn(func(child *runtime.Ctx) {
					started.Add(1)
					if pc, perr := Dial(child, "tcp", slow); perr == nil {
						pc.Close()
					}
					finished.Add(1)
				})
			}
			for started.Load() < dials {
				c.Latency(time.Millisecond)
			}
			in := make([]byte, 4)
			for i := 0; i < 20; i++ {
				if _, werr := cn.Write(c, []byte("ping")); werr != nil {
					t.Errorf("write %d: %v", i, werr)
					break
				}
				if rerr := readFull(c, cn, in); rerr != nil || string(in) != "ping" {
					t.Errorf("read %d = %q, %v", i, in, rerr)
					break
				}
			}
			if n := finished.Load(); n != 0 {
				t.Errorf("%d of %d dials finished before cancellation; want them pending throughout", n, dials)
			}
			start := time.Now()
			cancel()
			for _, f := range futs {
				if werr := f.AwaitErr(c); !errors.Is(werr, runtime.ErrCanceled) {
					t.Errorf("pending dial ended with %v, want ErrCanceled", werr)
				}
			}
			if el := time.Since(start); el > 5*time.Second {
				t.Errorf("canceled dials took %v to unwind", el)
			}
			cn.Close()
			l.Close()
			srv.Await(c)
		})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
}
