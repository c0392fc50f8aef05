package netserve

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"net"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"repro/hh"
	"repro/hh/serve"
	"repro/internal/trace"
)

// Runner executes one decoded request on its session's root task. The
// front end resolves the RUN command's scenario name to a Runner via
// Config.Resolve; cmd/hhserved wires in the internal/load scenarios.
type Runner func(t *hh.Task, seed uint64, size int) uint64

// Config tunes a Frontend. The zero value works (Resolve must be set for
// RUN to succeed).
type Config struct {
	// Resolve maps a RUN scenario name to its Runner.
	Resolve func(name string) (Runner, bool)

	// Tenants gates admission per tenant. Nil builds a table with only the
	// default tenant (no per-tenant caps beyond the server's own).
	Tenants *TenantTable

	// ShedQueueFrac is the queue-occupancy fraction past which best-effort
	// tenants (Priority > 0) are shed proactively. 0 selects the default
	// (0.75); 1 disables proactive shedding (everyone queues to the hard
	// bound).
	ShedQueueFrac float64

	// PerConnPipeline bounds how many replies one connection may have
	// pending (in flight or queued) at once; past it the connection's read
	// loop blocks, which surfaces to the client as TCP backpressure.
	// 0 selects the default (32).
	PerConnPipeline int

	// MaxArgs and MaxArgBytes bound one request frame; oversized frames
	// are answered with -ERR proto and the connection is closed.
	// 0 selects the defaults (16 args, 1 MiB).
	MaxArgs     int
	MaxArgBytes int

	// Logf, when set, receives connection-level diagnostics (accept and
	// protocol errors). Nil discards them.
	Logf func(format string, args ...any)
}

func (c Config) withDefaults() Config {
	if c.ShedQueueFrac == 0 {
		c.ShedQueueFrac = 0.75
	}
	if c.PerConnPipeline <= 0 {
		c.PerConnPipeline = 32
	}
	if c.MaxArgs <= 0 {
		c.MaxArgs = 16
	}
	if c.MaxArgBytes <= 0 {
		c.MaxArgBytes = 1 << 20
	}
	if c.Logf == nil {
		c.Logf = func(string, ...any) {}
	}
	return c
}

// Counters is a snapshot of a Frontend's lifetime traffic counters.
type Counters struct {
	ConnsAccepted int64
	ConnsActive   int64
	Frames        int64 // request frames parsed
	Runs          int64 // RUN commands accepted into the server
	Sheds         map[string]int64
	ProtoErrors   int64
}

// Frontend serves the protocol over a listener, turning each accepted RUN
// into one hh/serve session. Connections are independent: each has a read
// loop (parse, admit, submit) and a write loop (complete tickets in
// arrival order, flush), so requests pipeline per connection and fan out
// across connections.
type Frontend struct {
	srv *serve.Server
	cfg Config
	lis net.Listener

	mu    sync.Mutex
	conns map[*conn]struct{}

	draining  atomic.Bool
	accepting sync.WaitGroup // the accept loop
	connWG    sync.WaitGroup // one per live connection (both loops)

	connsAccepted atomic.Int64
	connsActive   atomic.Int64
	frames        atomic.Int64
	runs          atomic.Int64
	protoErrors   atomic.Int64
	shedTotals    [shedReasons]atomic.Int64

	started time.Time
}

// Serve starts a Frontend over an already-listening socket and returns
// immediately; the accept loop runs until Drain or Close. The serve.Server
// is shared — the caller may keep submitting to it directly — and remains
// the caller's to Drain/Close after the Frontend is done.
func Serve(lis net.Listener, srv *serve.Server, cfg Config) *Frontend {
	f := &Frontend{
		srv:     srv,
		cfg:     cfg.withDefaults(),
		lis:     lis,
		conns:   map[*conn]struct{}{},
		started: time.Now(),
	}
	if f.cfg.Tenants == nil {
		mif, qd := srv.Caps()
		f.cfg.Tenants = NewTenantTable(mif+qd, nil)
	}
	f.accepting.Add(1)
	go f.acceptLoop()
	return f
}

// Addr reports the listening address (useful with ":0").
func (f *Frontend) Addr() net.Addr { return f.lis.Addr() }

// Server returns the serve.Server the front end submits into.
func (f *Frontend) Server() *serve.Server { return f.srv }

// Tenants returns the live tenant table.
func (f *Frontend) Tenants() *TenantTable { return f.cfg.Tenants }

// Counters snapshots the front end's traffic counters.
func (f *Frontend) Counters() Counters {
	c := Counters{
		ConnsAccepted: f.connsAccepted.Load(),
		ConnsActive:   f.connsActive.Load(),
		Frames:        f.frames.Load(),
		Runs:          f.runs.Load(),
		ProtoErrors:   f.protoErrors.Load(),
		Sheds:         map[string]int64{},
	}
	for i := range f.shedTotals {
		c.Sheds[shedReasonNames[i]] = f.shedTotals[i].Load()
	}
	return c
}

func (f *Frontend) acceptLoop() {
	defer f.accepting.Done()
	for {
		nc, err := f.lis.Accept()
		if err != nil {
			return // listener closed: Drain or Close
		}
		f.connsAccepted.Add(1)
		f.connsActive.Add(1)
		c := &conn{
			f:        f,
			nc:       nc,
			bw:       bufio.NewWriter(nc),
			tenant:   f.cfg.Tenants.Default(),
			pending:  make(chan pendingReply, f.cfg.PerConnPipeline),
			closeReq: make(chan struct{}),
		}
		f.mu.Lock()
		if f.draining.Load() {
			// Raced with Drain closing the listener: refuse politely.
			f.mu.Unlock()
			nc.Close()
			f.connsActive.Add(-1)
			continue
		}
		f.conns[c] = struct{}{}
		f.mu.Unlock()
		f.connWG.Add(2)
		go c.readLoop()
		go c.writeLoop()
	}
}

func (f *Frontend) dropConn(c *conn) {
	f.mu.Lock()
	if _, ok := f.conns[c]; ok {
		delete(f.conns, c)
		f.connsActive.Add(-1)
	}
	f.mu.Unlock()
}

// Drain is the SIGTERM path, in strict order: (1) mark draining, so new
// RUN frames on live connections are answered -SHED reason=draining
// instead of entering the server; (2) close the listener, so no new
// connections arrive; (3) wait for the serve.Server to quiesce — every
// already-accepted request completes and its session is reclaimed
// wholesale; (4) wait for every connection's write loop to flush its
// pending replies and exit, so no completed result is lost in a buffer.
// No accepted request is dropped: a client that got +queued framing (i.e.
// any non-SHED acceptance) always receives its reply before its
// connection closes.
//
// Drain returns nil once fully drained, or the context's error if it
// expires first — in which case remaining connections are force-closed
// (their in-flight sessions still run to completion inside the
// serve.Server; only their replies are lost).
//
// Drain is idempotent: concurrent and repeated calls all wait for the
// same quiescent point.
func (f *Frontend) Drain(ctx context.Context) error {
	var span uint64
	if trace.Enabled() {
		span = trace.Begin(-1, trace.EvDrain, trace.DrainFrontend, 0)
	}
	f.draining.Store(true)
	f.lis.Close()
	f.accepting.Wait()

	done := make(chan struct{})
	go func() {
		f.srv.Drain()
		// Idle connections' read loops are blocked in Read with no reply
		// owed; close them so their loops exit. Connections with pending
		// replies flush first: closeWhenFlushed defers the close to the
		// write loop's last flush.
		f.mu.Lock()
		for c := range f.conns {
			c.closeWhenFlushed()
		}
		f.mu.Unlock()
		f.connWG.Wait()
		close(done)
	}()
	select {
	case <-done:
		if span != 0 {
			trace.End(-1, trace.EvDrain, span, 0, 0)
		}
		return nil
	case <-ctx.Done():
		f.forceClose()
		<-done
		if span != 0 {
			// aux=1: the deadline expired and remaining conns were forced.
			trace.End(-1, trace.EvDrain, span, 1, 0)
		}
		return ctx.Err()
	}
}

// Close force-closes the front end: listener and every connection,
// without waiting for pending replies to flush. In-flight sessions still
// complete inside the serve.Server (their replies are discarded). Prefer
// Drain.
func (f *Frontend) Close() {
	f.draining.Store(true)
	f.lis.Close()
	f.accepting.Wait()
	f.forceClose()
	f.connWG.Wait()
}

func (f *Frontend) forceClose() {
	f.mu.Lock()
	conns := make([]*conn, 0, len(f.conns))
	for c := range f.conns {
		conns = append(conns, c)
	}
	f.mu.Unlock()
	for _, c := range conns {
		c.nc.Close()
	}
}

// pendingReply is one slot in a connection's reply order: either a ticket
// whose result is still being computed, or an immediate pre-rendered
// reply.
type pendingReply struct {
	tk     *serve.Ticket
	render func(bw *bufio.Writer) // immediate replies (PING, errors, SHED)
	tenant *Tenant                // decremented when the ticket completes
}

// conn is one accepted connection.
type conn struct {
	f       *Frontend
	nc      net.Conn
	bw      *bufio.Writer
	tenant  *Tenant
	pending chan pendingReply

	closeReq     chan struct{} // closed by closeWhenFlushed
	closeReqOnce sync.Once
	closeOnce    sync.Once
}

func (c *conn) close() {
	c.closeOnce.Do(func() { c.nc.Close() })
}

// closeWhenFlushed asks the write loop to close the connection as soon as
// every pending reply has been written and flushed — the drain path's
// "no accepted reply is lost" guarantee. Safe to call repeatedly.
func (c *conn) closeWhenFlushed() {
	c.closeReqOnce.Do(func() { close(c.closeReq) })
}

// readLoop parses frames and dispatches commands until the connection
// drops, QUIT, or a protocol error. It is the only sender on c.pending
// and closes it on exit; the write loop owns the rest of the shutdown.
func (c *conn) readLoop() {
	defer c.f.connWG.Done()
	defer close(c.pending)
	br := bufio.NewReaderSize(c.nc, 16<<10)
	for {
		args, err := readCommand(br, c.f.cfg.MaxArgs, c.f.cfg.MaxArgBytes)
		if err != nil {
			var pe *protoError
			if errors.As(err, &pe) {
				// Malformed or oversized frame: report on the wire, then
				// close. Returning closes c.pending behind the queued error
				// reply, and the write loop closes the socket only after it
				// has written and flushed everything queued before that.
				c.f.protoErrors.Add(1)
				c.f.cfg.Logf("netserve: %s: %v", c.nc.RemoteAddr(), pe)
				msg := pe.Error()
				c.enqueue(pendingReply{render: func(bw *bufio.Writer) {
					writeError(bw, "ERR", msg)
				}})
			}
			return
		}
		c.f.frames.Add(1)
		if !c.dispatch(args) {
			return
		}
	}
}

// enqueue pushes one reply slot, blocking when the pipeline bound is
// reached (TCP backpressure on the peer).
func (c *conn) enqueue(p pendingReply) { c.pending <- p }

// dispatch handles one command; false ends the read loop (QUIT).
func (c *conn) dispatch(args [][]byte) bool {
	switch cmd := string(args[0]); cmd {
	case "PING", "ping":
		c.enqueue(pendingReply{render: func(bw *bufio.Writer) { writeSimple(bw, "PONG") }})
	case "HELLO", "hello":
		if len(args) != 2 {
			c.enqueue(errReply("ERR", "HELLO wants 1 argument: tenant name"))
			return true
		}
		c.tenant = c.f.cfg.Tenants.Lookup(string(args[1]))
		c.enqueue(pendingReply{render: func(bw *bufio.Writer) { writeSimple(bw, "OK tenant="+c.tenant.Name) }})
	case "RUN", "run":
		c.dispatchRun(args)
	case "STATS", "stats":
		text := c.f.metricsText()
		c.enqueue(pendingReply{render: func(bw *bufio.Writer) { writeBulk(bw, text) }})
	case "QUIT", "quit":
		// Ending the read loop closes c.pending behind this reply; the
		// write loop flushes it and then closes the socket. No flag tells
		// the writer to close: one it could see before it had taken the
		// reply off the queue would let it close with +OK still queued.
		c.enqueue(pendingReply{render: func(bw *bufio.Writer) { writeSimple(bw, "OK") }})
		return false
	default:
		c.enqueue(errReply("ERR", "unknown command "+strconv.Quote(cmd)))
	}
	return true
}

// dispatchRun admits one RUN: tenant gate, proactive pressure shed, then
// serve.Server admission; the accepted ticket joins the reply order.
func (c *conn) dispatchRun(args [][]byte) {
	if len(args) != 4 {
		c.enqueue(errReply("ERR", "RUN wants 3 arguments: scenario seed size"))
		return
	}
	runner, ok := c.f.cfg.Resolve(string(args[1]))
	if !ok {
		c.enqueue(errReply("ERR", "unknown scenario "+strconv.Quote(string(args[1]))))
		return
	}
	seed, err1 := strconv.ParseUint(string(args[2]), 10, 64)
	size, err2 := strconv.Atoi(string(args[3]))
	if err1 != nil || err2 != nil || size < 0 {
		c.enqueue(errReply("ERR", "bad RUN seed/size"))
		return
	}
	tn := c.tenant

	if c.f.draining.Load() {
		c.shed(tn, shedDraining, 0, 0)
		return
	}
	// Tenant share gate: reserve the slot optimistically; the competing
	// submit below either consumes it or rolls it back.
	if tn.inFlight.Add(1) > tn.maxInFlight {
		tn.inFlight.Add(-1)
		c.shed(tn, shedTenant, 0, 0)
		return
	}
	// Proactive pressure shed for best-effort tenants: keep the tail of
	// the queue for priority-0 traffic.
	if tn.Priority > 0 && c.f.cfg.ShedQueueFrac < 1 {
		_, queued := c.f.srv.Load()
		_, queueDepth := c.f.srv.Caps()
		if queueDepth > 0 && float64(queued) >= c.f.cfg.ShedQueueFrac*float64(queueDepth) {
			tn.inFlight.Add(-1)
			c.shed(tn, shedPressure, queued, queueDepth)
			return
		}
	}
	tk, err := c.f.srv.SubmitRequest(serve.Request{
		BudgetWords: tn.BudgetWords,
		Fn:          func(t *hh.Task) uint64 { return runner(t, seed, size) },
	})
	if err != nil {
		tn.inFlight.Add(-1)
		var sat *serve.SaturatedError
		if errors.As(err, &sat) {
			c.shed(tn, shedSaturated, sat.Queued, sat.QueueDepth)
		} else {
			c.enqueue(errReply("ERR", err.Error()))
		}
		return
	}
	tn.accepted.Add(1)
	c.f.runs.Add(1)
	c.enqueue(pendingReply{tk: tk, tenant: tn})
}

// shed rejects one RUN with a -SHED reply carrying the reason, the load
// the server saw, and a backoff hint scaled to the queue depth.
func (c *conn) shed(tn *Tenant, reason int, queued, queueDepth int) {
	tn.shed[reason].Add(1)
	c.f.shedTotals[reason].Add(1)
	// Saturated sheds are already emitted by serve.SubmitRequest at the
	// moment of rejection; emitting the front-end gates here keeps every
	// shed in the trace exactly once.
	if reason != shedSaturated && trace.Enabled() {
		trace.Emit(-1, trace.EvShed, uint32(reason), uint64(queued))
	}
	backoff := 1 + 2*queued
	if backoff > 100 {
		backoff = 100
	}
	inFlight, q := c.f.srv.Load()
	mif, qd := c.f.srv.Caps()
	if queueDepth == 0 {
		queued, queueDepth = q, qd
	}
	msg := fmt.Sprintf("SHED reason=%s backoff_ms=%d inflight=%d/%d queued=%d/%d tenant=%s",
		shedReasonNames[reason], backoff, inFlight, mif, queued, queueDepth, tn.Name)
	c.enqueue(pendingReply{render: func(bw *bufio.Writer) {
		bw.WriteByte('-')
		bw.WriteString(msg)
		bw.WriteString("\r\n")
	}})
}

func errReply(code, msg string) pendingReply {
	return pendingReply{render: func(bw *bufio.Writer) { writeError(bw, code, msg) }}
}

// writeLoop emits replies in request order: immediate replies directly,
// tickets by Wait — so a pipelined connection's slow request blocks its
// own later replies (protocol order) but never another connection.
// Flushes batch: the buffer is pushed only when no further reply is
// immediately pending.
//
// The loop exits only once the pending channel closes (the read loop is
// its sole sender and closer), so every ticket is always Waited — tenant
// accounting and session reclamation complete even for a dropped peer,
// whose replies are simply discarded. A drain request (closeWhenFlushed)
// closes the socket at the first fully-flushed point, which unblocks the
// read loop and lets the channel close.
func (c *conn) writeLoop() {
	defer c.f.connWG.Done()
	defer c.f.dropConn(c)
	defer c.close()
	dead := false     // peer unreachable: drain tickets, write nothing
	draining := false // drain requested: close at the next fully-flushed point
	closeCh := c.closeReq
	for {
		var p pendingReply
		var ok bool
		select {
		case p, ok = <-c.pending:
		case <-closeCh:
			closeCh = nil
			draining = true
			if len(c.pending) == 0 {
				// Idle connection: everything already flushed; close now so
				// the blocked read loop exits.
				c.bw.Flush()
				c.close()
			}
			continue
		}
		if !ok {
			break
		}
		if p.tk != nil {
			res, err := p.tk.Wait()
			p.tenant.inFlight.Add(-1)
			if !dead {
				if err != nil {
					writeError(c.bw, "ERR", "request failed: "+err.Error())
				} else {
					writeBulk(c.bw, []byte(fmt.Sprintf("%016x", res)))
				}
			}
		} else if !dead {
			p.render(c.bw)
		}
		if !dead && len(c.pending) == 0 {
			if c.bw.Flush() != nil {
				dead = true
				c.close()
				continue
			}
			if draining {
				c.close() // flushed and draining: end the read loop
			}
		}
	}
	if !dead {
		c.bw.Flush()
	}
}
