package main

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"lhws"
	"lhws/internal/bufpool"
)

// server: the paper's §5 server over loopback TCP. An open loop sends
// Poisson arrivals, pipelined over srvConns persistent connections; per
// request the server reads with ReadBuf, spawns a handler that is
// admitted, runs a backend wait and f(x) under a deadline scope, and
// hands the reply to the connection's writer task, which batches
// replies with QueueWrite/Flush. It is the only workload that crosses
// the io, bufpool, admit and cancel layers.
const (
	srvConns       = 2
	reqSize        = 16 // id u32 | x u32 | due ns i64
	replySize      = 16 // id u32 | status u8 | pad | f(x) u64
	backendLatency = time.Millisecond
	// reqDeadline and maxInflight are far above what the fixed rates
	// need, so a stall of the shared host delays requests instead of
	// failing them: every run is meant to complete every request.
	reqDeadline  = time.Second
	maxInflight  = 1 << 16 // admission credit pool
	computeIters = 20_000  // f(x): about 8 µs of spin
	maxBatch     = 256     // replies per flush
	warmRequests = 2_000
	warmRate     = 20_000.0
	setupRepeats = 3
	// windows: each phase is cut into this many equal windows by due
	// time; latency percentiles are medians over windows, so one host
	// stall spoils one window, not the phase.
	windows      = 5
	drainTimeout = 3 * time.Second
	srvRNGStream = 3
	// satWindow is how many requests the closed-loop saturation phase
	// keeps outstanding: deep enough that the two workers never idle,
	// about 20 ms of work at today's capacity. satMaxRate sizes the ids
	// reserved for the phase; a server faster than that ends the phase
	// early, and its rate is still measured over the time it ran.
	satWindow  = 1024
	satMaxRate = 100_000.0
	satPoll    = 100 * time.Microsecond
	// roundSeconds is about how long one round of an untraced run's
	// measured phases lasts; a run cycles through as many rounds as its
	// --seconds hold.
	roundSeconds = 3
)

const (
	statusNone = iota // no reply (yet)
	statusOK
	statusRejected
	statusTimeout
	statusShed
	statusError
	numStatus
	// statusWrong is recorded by the client, never sent: an OK reply
	// whose f(x) is wrong.
	statusWrong = numStatus
)

// phase is one stretch of open-loop load at a fixed rate. Its requests
// have the consecutive ids [first, end).
type phase struct {
	name       string
	dur        int64
	closed     bool // closed loop: satWindow outstanding, sent as replies come
	traced     bool // server-side stamps are taken
	snap       bool // allocation and pool counters are read around it
	first, end int

	start      int64 // clock reading when sending began
	sendEnd    int64 // clock reading when sending ended
	backlog    int64 // unanswered requests when sending ended
	cpu        int64 // process CPU ns over the phase and its drain
	mem0, mem1 memSnap
	gets, news uint64 // bufpool traffic over the phase
}

// reqTrace holds a traced request's server-side stamps.
type reqTrace struct {
	read, spawn, entry, admitS, admitE, wdS, wdE int64
	spawn2, entry2, latS, latE, compE            int64
	awaitC, awaitR, relS, relE, send, hrecv      int64
	flushS, flushE                               int64
	probe                                        probe
}

// load is the generated input and the client-side record of one run,
// indexed by request id.
type load struct {
	phases []*phase
	off    []int64  // due time, ns after its phase starts
	x      []uint32 // f's argument
	sentAt []int64
	recvAt []int64
	status []uint8
	tr     []reqTrace // traced runs only
}

func (ld *load) due(ph *phase, id int) int64 { return ph.start + ld.off[id] }

// planServer generates every phase's schedule from the seed: set-up
// warm-ups, then the measured phases. An untraced run cycles through
// rounds of 5k/s, 30k/s and the closed-loop saturation phase, whose due
// times are its send times and so are written as it runs; interleaving
// the rounds spreads each metric's samples over the whole run, so a
// slow stretch of the shared host weighs on all three alike. A traced
// run measures each fixed rate twice, untraced then traced, instead of
// saturating.
func planServer(cfg config) *load {
	rng := newRNG(cfg.seed, srvRNGStream)
	ld := &load{}
	add := func(name string, rate float64, dur time.Duration, traced bool) {
		ph := &phase{name: name, dur: int64(dur), traced: traced, snap: cfg.trace, first: len(ld.off)}
		for _, a := range poissonSchedule(rng, rate, ph.dur) {
			ld.off = append(ld.off, a.due)
			ld.x = append(ld.x, a.x)
		}
		ph.end = len(ld.off)
		ld.phases = append(ld.phases, ph)
	}
	warmDur := time.Duration(warmRequests / warmRate * float64(time.Second))
	for k := 0; k < setupRepeats; k++ {
		add("warm", warmRate, warmDur, false)
	}
	if cfg.trace {
		d := cfg.measured(0.25)
		add("r5k", 5_000, d, false)
		add("r5k.traced", 5_000, d, true)
		add("r30k", 30_000, d, false)
		add("r30k.traced", 30_000, d, true)
	} else {
		rounds := max(1, int(cfg.seconds/roundSeconds))
		for k := 0; k < rounds; k++ {
			add("r5k", 5_000, cfg.measured(0.3/float64(rounds)), false)
			add("r30k", 30_000, cfg.measured(0.25/float64(rounds)), false)
			ph := &phase{name: "sat", closed: true, dur: int64(cfg.measured(0.35 / float64(rounds))), first: len(ld.off)}
			n := int(satMaxRate * float64(ph.dur) / 1e9)
			ld.off = append(ld.off, make([]int64, n)...)
			for i := 0; i < n; i++ {
				ld.x = append(ld.x, rng.Uint32())
			}
			ph.end = len(ld.off)
			ld.phases = append(ld.phases, ph)
		}
	}
	n := len(ld.off)
	ld.sentAt = make([]int64, n)
	ld.recvAt = make([]int64, n)
	ld.status = make([]uint8, n)
	if cfg.trace {
		ld.tr = make([]reqTrace, n)
	}
	return ld
}

// reply travels from a handler to its connection's writer.
type reply struct {
	id     uint32
	status uint8
	traced bool
	val    uint64
}

// server is one runtime instance serving srvConns connections.
type server struct {
	ld      *load
	ctl     *lhws.AdmitController
	tracing atomic.Bool
	tally   [numStatus]atomic.Int64 // replies sent, by status
	badReqs atomic.Int64

	inflight, inflightPeak atomic.Int64 // traced requests only
	reads, frames          atomic.Int64
	flushes, flushed       atomic.Int64
	flushErrs              atomic.Int64
	flushDur               [srvConns][]float64 // per writer, traced flushes
	acceptErr              error
	st                     *lhws.RuntimeStats
	err                    error
	done                   chan struct{}
}

type connState struct {
	k       int
	cn      *lhws.IOConn
	out     *lhws.Chan[reply]
	pending atomic.Int64 // the reader plus live handlers; the last closes out
}

// client is the outside world: plain goroutines on net.Conns.
type client struct {
	ld       *load
	conns    [srvConns]net.Conn
	wg       sync.WaitGroup
	received atomic.Int64
	bad      atomic.Int64 // unknown, misrouted or duplicate reply ids
	errMu    sync.Mutex
	readErr  error
	ran      []*phase // phases this client sent, in order
	sent     int64
}

// start launches a runtime serving srvConns connections on loopback and
// dials them.
func start(ld *load) (*server, *client, error) {
	s := &server{ld: ld, done: make(chan struct{}),
		ctl: lhws.NewAdmitController(lhws.AdmitConfig{MaxInflight: maxInflight})}
	addr := make(chan string, 1)
	go func() {
		defer close(s.done)
		s.st, s.err = lhws.RunTasks(lhws.RuntimeConfig{Workers: workers, Mode: lhws.LatencyHiding},
			func(c *lhws.Ctx) { s.root(c, addr) })
	}()
	var a string
	select {
	case a = <-addr:
	case <-s.done:
		return nil, nil, fmt.Errorf("server did not start: %v", errors.Join(s.acceptErr, s.err))
	}
	cl := &client{ld: ld}
	for k := range cl.conns {
		nc, err := net.Dial("tcp", a)
		if err != nil {
			// The server may still be waiting in Accept; the process is
			// about to exit with the error, which ends it.
			cl.close()
			return nil, nil, fmt.Errorf("dial: %w", err)
		}
		cl.conns[k] = nc
		cl.wg.Add(1)
		go cl.receive(k)
	}
	return s, cl, nil
}

// root listens, accepts the client's connections and starts a reader and
// a writer task on each; the run lasts until the client hangs up.
func (s *server) root(c *lhws.Ctx, addr chan<- string) {
	l, err := lhws.IOListen(c, "tcp", "127.0.0.1:0")
	if err != nil {
		s.acceptErr = err
		return
	}
	defer l.Close()
	addr <- l.Addr().String()
	for k := 0; k < srvConns; k++ {
		cn, err := l.Accept(c)
		if err != nil {
			s.acceptErr = err
			return
		}
		cs := &connState{k: k, cn: cn, out: lhws.NewChan[reply](0)}
		cs.pending.Store(1)
		c.Spawn(func(r *lhws.Ctx) { s.reader(r, cs) })
		c.Spawn(func(w *lhws.Ctx) { s.writer(w, cs) })
	}
}

// reader parses pipelined requests out of pooled read buffers and spawns
// one handler per request.
func (s *server) reader(c *lhws.Ctx, cs *connState) {
	var carry [reqSize]byte
	nc := 0
	for {
		buf, err := cs.cn.ReadBuf(c, 4096)
		if buf != nil {
			t := now()
			tracing := s.tracing.Load()
			if tracing {
				s.reads.Add(1)
			}
			data := buf.Bytes()
			if nc > 0 {
				k := copy(carry[nc:], data)
				nc += k
				data = data[k:]
				if nc == reqSize {
					s.dispatch(c, cs, carry[:], t, tracing)
					nc = 0
				}
			}
			for len(data) >= reqSize {
				s.dispatch(c, cs, data[:reqSize], t, tracing)
				data = data[reqSize:]
			}
			if len(data) > 0 {
				nc = copy(carry[:], data)
			}
			buf.Release()
		}
		if err != nil {
			break
		}
	}
	if cs.pending.Add(-1) == 0 {
		cs.out.Close()
	}
}

func (s *server) dispatch(c *lhws.Ctx, cs *connState, f []byte, readAt int64, tracing bool) {
	id := binary.LittleEndian.Uint32(f)
	x := binary.LittleEndian.Uint32(f[4:])
	if int(id) >= len(s.ld.off) {
		s.badReqs.Add(1)
		return
	}
	var rt *reqTrace
	if tracing {
		s.frames.Add(1)
		rt = &s.ld.tr[id]
		rt.read = readAt
		rt.spawn = now()
	}
	cs.pending.Add(1)
	c.Spawn(func(h *lhws.Ctx) { s.handle(h, cs, id, x, rt) })
}

// handle serves one request and hands its reply to the writer.
func (s *server) handle(h *lhws.Ctx, cs *connState, id, x uint32, rt *reqTrace) {
	if rt != nil {
		rt.entry = now()
		if id%16 == 0 {
			armProbe(h, &rt.probe, int(id/16))
		}
		rt.admitS = now()
	}
	tk, err := s.ctl.Admit(h)
	if rt != nil {
		rt.admitE = now()
	}
	rep := reply{id: id, status: statusRejected, traced: rt != nil}
	if err == nil {
		if rt != nil {
			n := s.inflight.Add(1)
			for p := s.inflightPeak.Load(); n > p && !s.inflightPeak.CompareAndSwap(p, n); p = s.inflightPeak.Load() {
			}
		}
		rep.status, rep.val = s.serve(h, x, tk, rt)
		if rt != nil {
			s.inflight.Add(-1)
		}
	}
	s.tally[rep.status].Add(1)
	if rt != nil {
		rt.send = now()
	}
	cs.out.Send(h, rep)
	if cs.pending.Add(-1) == 0 {
		cs.out.Close()
	}
}

// serve runs the admitted request: a backend wait and f(x) in a child
// task under a deadline scope, joined from the handler's own scope so a
// timed-out request still gets its typed reply.
func (s *server) serve(h *lhws.Ctx, x uint32, tk *lhws.AdmitTicket, rt *reqTrace) (uint8, uint64) {
	if rt != nil {
		rt.wdS = now()
	}
	hc, cancel := h.WithDeadline(reqDeadline)
	if rt != nil {
		rt.wdE = now()
	}
	tk.Bind(cancel)
	if rt != nil {
		rt.spawn2 = now()
	}
	child := lhws.SpawnValue(hc, func(cc *lhws.Ctx) uint64 {
		if rt == nil {
			cc.Latency(backendLatency)
			return spin(computeIters, uint64(x))
		}
		rt.entry2 = now()
		rt.latS = rt.entry2
		cc.Latency(backendLatency)
		rt.latE = now()
		v := spin(computeIters, uint64(x))
		rt.compE = now()
		return v
	})
	if rt != nil {
		rt.awaitC = now()
	}
	v, err := child.AwaitErr(h)
	if rt != nil {
		rt.awaitR = now()
		rt.relS = rt.awaitR
	}
	cancel()
	if rt != nil {
		rt.relE = now()
	}
	tk.Done()
	switch {
	case err == nil:
		return statusOK, v
	case errors.Is(err, lhws.ErrDeadline):
		return statusTimeout, 0
	case errors.Is(err, lhws.ErrTargetMissed), errors.Is(err, lhws.ErrCanceled):
		return statusShed, 0
	}
	return statusError, 0
}

// writer batches the replies waiting on its channel into one vectored
// flush per batch.
func (s *server) writer(w *lhws.Ctx, cs *connState) {
	slab := make([]byte, maxBatch*replySize)
	var traced []uint32
	for {
		rep, ok := cs.out.RecvOK(w)
		if !ok {
			break
		}
		n := 0
		traced = traced[:0]
		for {
			if rep.traced {
				s.ld.tr[rep.id].hrecv = now()
				traced = append(traced, rep.id)
			}
			f := slab[n*replySize : (n+1)*replySize]
			binary.LittleEndian.PutUint32(f, rep.id)
			f[4] = rep.status
			binary.LittleEndian.PutUint64(f[8:], rep.val)
			cs.cn.QueueWrite(f)
			n++
			if n == maxBatch {
				break
			}
			if rep, ok = cs.out.TryRecv(); !ok {
				break
			}
		}
		fs := now()
		_, err := cs.cn.Flush(w)
		fe := now()
		if err != nil {
			s.flushErrs.Add(1)
		}
		if len(traced) > 0 {
			s.flushes.Add(1)
			s.flushed.Add(int64(n))
			s.flushDur[cs.k] = append(s.flushDur[cs.k], float64(fe-fs))
			for _, id := range traced {
				s.ld.tr[id].flushS, s.ld.tr[id].flushE = fs, fe
			}
		}
	}
	cs.cn.Close()
}

// receive reads replies on connection k and checks each against what
// the client sent.
func (cl *client) receive(k int) {
	defer cl.wg.Done()
	rd := bufio.NewReaderSize(cl.conns[k], 64<<10)
	var f [replySize]byte
	ld := cl.ld
	for {
		if _, err := io.ReadFull(rd, f[:]); err != nil {
			if !errors.Is(err, net.ErrClosed) && !errors.Is(err, io.EOF) {
				cl.errMu.Lock()
				cl.readErr = err
				cl.errMu.Unlock()
			}
			return
		}
		t := now()
		id := int(binary.LittleEndian.Uint32(f[:]))
		status := f[4]
		if id >= len(ld.off) || id%srvConns != k || ld.status[id] != statusNone ||
			status == statusNone || status >= numStatus {
			cl.bad.Add(1)
			continue
		}
		if status == statusOK && binary.LittleEndian.Uint64(f[8:]) != spinClosed(computeIters, uint64(ld.x[id])) {
			status = statusWrong
		}
		ld.recvAt[id] = t
		ld.status[id] = status
		cl.received.Add(1)
	}
}

// runPhase sends ph's requests, each on connection id mod srvConns, then
// waits for the replies. An open-loop phase sends each request when it
// falls due; a closed-loop phase tops the outstanding requests up to
// satWindow until its time is spent, and stamps each due time as it is
// sent.
func (cl *client) runPhase(s *server, ph *phase) error {
	ld := cl.ld
	var frames [srvConns][]byte
	var ids [srvConns][]int
	for k := range frames {
		frames[k] = make([]byte, 0, 256*reqSize)
		ids[k] = make([]int, 0, 256)
	}
	cl.ran = append(cl.ran, ph)
	s.tracing.Store(ph.traced)
	if ph.snap {
		ph.mem0 = readMem()
		ph.gets, ph.news, _ = bufpool.Stats()
	}
	cpu0 := cpuNs()
	ph.start = now()
	id := ph.first
	for id < ph.end {
		t := now()
		room := 0 // closed loop: how many more may be outstanding
		if ph.closed {
			if t-ph.start >= ph.dur {
				break
			}
			if room = satWindow - int(cl.sent-cl.received.Load()); room <= 0 {
				time.Sleep(satPoll)
				continue
			}
		} else if wait := ld.due(ph, id) - t; wait > 0 {
			time.Sleep(time.Duration(wait))
			continue
		}
		for ; id < ph.end && len(ids[0])+len(ids[1]) < 256; id++ {
			if ph.closed {
				if room == 0 {
					break
				}
				room--
				ld.off[id] = t - ph.start
			} else if ld.due(ph, id) > t {
				break
			}
			k := id % srvConns
			var f [reqSize]byte
			binary.LittleEndian.PutUint32(f[:], uint32(id))
			binary.LittleEndian.PutUint32(f[4:], ld.x[id])
			binary.LittleEndian.PutUint64(f[8:], uint64(ld.due(ph, id)))
			frames[k] = append(frames[k], f[:]...)
			ids[k] = append(ids[k], id)
		}
		for k := range frames {
			if len(ids[k]) == 0 {
				continue
			}
			ts := now()
			if _, err := cl.conns[k].Write(frames[k]); err != nil {
				return fmt.Errorf("send: %w", err)
			}
			for _, i := range ids[k] {
				ld.sentAt[i] = ts
			}
			cl.sent += int64(len(ids[k]))
			frames[k], ids[k] = frames[k][:0], ids[k][:0]
		}
	}
	ph.sendEnd = now()
	if ph.closed {
		ph.end = id // the reserved ids that were never sent drop out
	}
	ph.backlog = cl.sent - cl.received.Load()
	for limit := time.Now().Add(drainTimeout); cl.received.Load() < cl.sent && time.Now().Before(limit); {
		time.Sleep(200 * time.Microsecond)
	}
	ph.cpu = cpuNs() - cpu0
	if ph.snap {
		ph.mem1 = readMem()
		g, n, _ := bufpool.Stats()
		ph.gets, ph.news = g-ph.gets, n-ph.news
	}
	return nil
}

// close hangs up; the server's readers see EOF and the run winds down.
func (cl *client) close() {
	for _, nc := range cl.conns {
		if nc != nil {
			nc.Close()
		}
	}
	cl.wg.Wait()
}

// stop hangs up and waits for the server's run to end.
func stop(s *server, cl *client) error {
	cl.close()
	select {
	case <-s.done:
	case <-time.After(10 * time.Second):
		return errors.New("server run did not end after the client hung up")
	}
	switch {
	case s.acceptErr != nil:
		return fmt.Errorf("accept: %w", s.acceptErr)
	case s.err != nil:
		return fmt.Errorf("run: %w", s.err)
	}
	return nil
}

// phaseStats is what a group of phases of one name measured from the
// client side.
type phaseStats struct {
	sent, ok, failed int
	p50, p99         float64 // ms, completed requests, medians over windows
	p999             float64 // ms over all the group's requests
	cpuPerReq        float64 // µs per completed request
	okRate           float64 // completed requests per second, median over windows
}

// analyse summarises phases. Each phase is cut into windows: latency by
// due time, completions by receipt time within the sending time. The
// percentiles and the rate are medians over every window of the group.
func (ld *load) analyse(phases ...*phase) phaseStats {
	var st phaseStats
	var p50s, p99s, rates []float64
	var all sample
	var cpu int64
	for _, ph := range phases {
		st.sent += ph.end - ph.first
		cpu += ph.cpu
		var okWin [windows]sample
		var done [windows]float64
		span := ph.sendEnd - ph.start
		for id := ph.first; id < ph.end; id++ {
			if ld.status[id] != statusOK {
				st.failed++
				continue
			}
			st.ok++
			ms := float64(ld.recvAt[id]-ld.due(ph, id)) / 1e6
			all = append(all, ms)
			w := int(ld.off[id] * windows / ph.dur)
			okWin[w] = append(okWin[w], ms)
			if at := ld.recvAt[id] - ph.start; at < span {
				done[at*windows/span]++
			}
		}
		for w := range okWin {
			if len(okWin[w]) > 0 {
				p50s = append(p50s, okWin[w].pct(50))
				p99s = append(p99s, okWin[w].pct(99))
			}
			rates = append(rates, done[w]/(float64(span)/windows/1e9))
		}
	}
	st.p50, st.p99 = median(p50s), median(p99s)
	st.p999 = all.pct(99.9)
	st.cpuPerReq = ratio(float64(cpu)/1e3, float64(st.ok))
	st.okRate = median(rates)
	return st
}

func runServer(cfg config) *result {
	r := newResult()
	ld := planServer(cfg)
	var setups []float64
	var s *server
	var cl *client
	mw := watchMem()
	for k := 0; k < setupRepeats; k++ {
		if s != nil {
			if err := stop(s, cl); err != nil {
				r.fail("set-up %d: %v", k, err)
				return r
			}
			ld.check(r, s, cl)
		}
		t0 := time.Now()
		var err error
		if s, cl, err = start(ld); err != nil {
			r.fail("set-up %d: %v", k+1, err)
			return r
		}
		if err := cl.runPhase(s, ld.phases[k]); err != nil {
			r.fail("warm-up: %v", err)
			stop(s, cl)
			return r
		}
		setups = append(setups, time.Since(t0).Seconds())
	}

	m0 := readMem()
	byName := map[string][]*phase{}
	var ran []*phase
	for _, ph := range ld.phases[setupRepeats:] {
		if err := cl.runPhase(s, ph); err != nil {
			r.fail("%s: %v", ph.name, err)
			break
		}
		ran = append(ran, ph)
		byName[ph.name] = append(byName[ph.name], ph)
		st := ld.analyse(ph)
		r.attempted += int64(st.sent)
		r.failed += int64(st.failed)
		r.note("phase %s: sent %d ok %d failed %d, p50 %.4g ms, p99 %.4g ms, backlog %d, %.0f/s, cpu %.4g us/req",
			ph.name, st.sent, st.ok, st.failed, st.p50, st.p99, ph.backlog, st.okRate, st.cpuPerReq)
	}
	m1 := readMem()
	mem := mw.end()
	if err := stop(s, cl); err != nil {
		r.fail("%v", err)
	}
	ld.check(r, s, cl)

	want := []string{"r5k", "r30k", "sat"}
	if cfg.trace {
		want = []string{"r5k", "r5k.traced", "r30k", "r30k.traced"}
	}
	for _, name := range want {
		if len(byName[name]) == 0 {
			r.fail("phase %s did not run", name)
			return r
		}
	}
	r5k, r30k := ld.analyse(byName["r5k"]...), ld.analyse(byName["r30k"]...)
	if !cfg.trace {
		r.add("setup_s", median(setups), "s")
		r.add("mem_peak_mb", mem, "MB")
		r.add("throughput_per_s", ld.analyse(byName["sat"]...).okRate, "1/s")
		r.add("cpu_us_per_op", r30k.cpuPerReq, "us")
		r.add("p50_ms", r5k.p50, "ms")
		return r
	}

	l := &layers{spans: newSpanLog(16)}
	l.addStats(s.st)
	ld.collect(l, s, ran)
	l.gcPauseMs = float64(m1.pauseNs-m0.pauseNs) / 1e6
	l.p999r5k, l.p999r30k = r5k.p999, r30k.p999
	l.p99ms, l.p50r30k, l.p99r30k, l.cpuR5k = r5k.p99, r30k.p50, r30k.p99, r5k.cpuPerReq
	l.overhead = ratio(ld.analyse(byName["r30k.traced"]...).cpuPerReq, r30k.cpuPerReq) - 1
	l.failFrac = ratio(float64(r.failed), float64(r.attempted))
	writeSpans(cfg, l, r)
	l.emit(r)
	return r
}

// check verifies one server instance's outputs once its run has ended:
// every OK reply carried the right f(x); no reply was unknown, misrouted
// or duplicated; every request the client sent is either completed or
// failed (sent = ok + failed, unanswered counting as failed); and the
// server's own count of replies by status matches the client's.
func (ld *load) check(r *result, s *server, cl *client) {
	if n := cl.bad.Load(); n > 0 {
		r.fail("%d replies had an unknown, misrouted or duplicate id", n)
	}
	if n := s.badReqs.Load(); n > 0 {
		r.fail("server saw %d requests with unknown ids", n)
	}
	if cl.readErr != nil {
		r.fail("client read: %v", cl.readErr)
	}
	if n := s.flushErrs.Load(); n > 0 {
		r.fail("%d reply flushes failed", n)
	}
	var byStatus [numStatus + 1]int
	for _, ph := range cl.ran {
		for id := ph.first; id < ph.end; id++ {
			if ld.sentAt[id] != 0 {
				byStatus[ld.status[id]]++
			}
		}
	}
	sent, ok := int(cl.sent), byStatus[statusOK]
	failed := byStatus[statusNone]
	for st := statusRejected; st <= statusWrong; st++ {
		failed += byStatus[st]
	}
	if n := byStatus[statusWrong]; n > 0 {
		r.fail("%d replies carried a wrong f(x)", n)
	}
	if sent != ok+failed || sent-byStatus[statusNone] != int(cl.received.Load()) {
		r.fail("sent %d != ok %d + failed %d (received %d)", sent, ok, failed, cl.received.Load())
	}
	byStatus[statusOK] += byStatus[statusWrong] // the server sent them as OK
	for st := statusOK; st < numStatus; st++ {
		if got := int(s.tally[st].Load()); got != byStatus[st] {
			r.fail("server sent %d replies of status %d, client received %d", got, st, byStatus[st])
		}
	}
}

// collect turns the measured phases' stamps and counters into layer
// samples and spans. Allocation and pool counts come from the untraced
// phases, whose stamps would otherwise be counted with them.
func (ld *load) collect(l *layers, s *server, ran []*phase) {
	var admits, rejects, allocs, plainReqs float64
	var gets, news uint64
	for _, ph := range ran {
		for id := ph.first; id < ph.end; id++ {
			if ld.sentAt[id] != 0 {
				l.loadgenLate = append(l.loadgenLate, float64(ld.sentAt[id]-ld.due(ph, id)))
			}
		}
		if !ph.traced {
			allocs += float64(ph.mem1.mallocs - ph.mem0.mallocs)
			plainReqs += float64(ph.end - ph.first)
			gets += ph.gets
			news += ph.news
			continue
		}
		for id := ph.first; id < ph.end; id++ {
			t := &ld.tr[id]
			if t.admitE == 0 {
				continue
			}
			admits++
			if ld.status[id] == statusRejected {
				rejects++
			}
			l.admitNs = append(l.admitNs, float64(t.admitE-t.admitS))
			l.readWake = append(l.readWake, float64(t.read-ld.sentAt[id]))
			l.spawnStart = append(l.spawnStart, float64(t.entry-t.spawn))
			l.addProbe(&t.probe)
			if t.wdE != 0 {
				l.withDeadline = append(l.withDeadline, float64(t.wdE-t.wdS))
				l.release = append(l.release, float64(t.relE-t.relS))
			}
			if t.entry2 != 0 {
				l.spawnStart = append(l.spawnStart, float64(t.entry2-t.spawn2))
			}
			if t.compE != 0 {
				l.overshoot = append(l.overshoot, float64(t.latE-t.latS-int64(backendLatency)))
				l.join = append(l.join, float64(t.awaitR-max(t.compE, t.awaitC)))
			}
			if t.hrecv != 0 {
				l.handoff = append(l.handoff, float64(t.hrecv-t.send))
			}
			if ld.recvAt[id] == 0 {
				continue
			}
			l.spans.add(span{Req: uint32(id), Name: "request", Start: ld.due(ph, id), End: ld.recvAt[id]}, []span{
				{Name: "io.read_wake", Start: ld.sentAt[id], End: t.read},
				{Name: "runtime.spawn_start", Start: t.spawn, End: t.entry},
				{Name: "admit.Admit", Start: t.admitS, End: t.admitE},
				{Name: "runtime.spawn_start", Start: t.spawn2, End: t.entry2},
				{Name: "runtime.Latency", Start: t.latS, End: t.latE},
				{Name: "compute", Start: t.latE, End: t.compE},
				{Name: "runtime.join", Start: max(t.compE, t.awaitC), End: t.awaitR},
				{Name: "runtime.chan_handoff", Start: t.send, End: t.hrecv},
				{Name: "io.flush", Start: t.flushS, End: t.flushE},
			})
		}
	}
	for k := range s.flushDur {
		l.flush = append(l.flush, s.flushDur[k]...)
	}
	l.inflightPeak = float64(s.inflightPeak.Load())
	l.rejectFrac = ratio(rejects, admits)
	l.framesPerRead = ratio(float64(s.frames.Load()), float64(s.reads.Load()))
	l.perFlush = ratio(float64(s.flushed.Load()), float64(s.flushes.Load()))
	l.bufNewRatio = ratio(float64(news), float64(gets))
	l.allocsPerOp = ratio(allocs, plainReqs)
}
