package main

import (
	"context"
	"fmt"
	"net"
	"runtime"
	"strconv"
	"sync"
	"time"

	"repro/hh"
	"repro/hh/serve"
	"repro/hh/serve/netserve"
	"repro/internal/mem"
)

const (
	netScenario   = "kv"
	netSize       = 64
	netQueueDepth = 256 // deep enough that a refusal means a real backlog
)

// openLoop drives net-small: netserve.Serve in-process on loopback and a
// client that sends RUN kv <seed> 64 on a fixed schedule, whatever the
// replies do — hhserved's clients are independent network users. Each
// connection is pipelined: one writer goroutine sends and flushes, one
// reader goroutine parses replies. netserve.Client's Send/Flush touch only
// its bufio.Writer and Recv only its bufio.Reader, so the two goroutines
// share no buffer (client_race_test.go runs the pair under -race).
type openLoop struct {
	o    loopOpts
	rate float64
	warm []request
	reqs []request

	rt      *hh.Runtime
	srv     *serve.Server
	fe      *netserve.Frontend
	clients []*netserve.Client
	base    int64

	// Body stamps of the repetition in flight, indexed like reqs: written
	// by the Resolve wrapper on the worker that runs the body, read by the
	// harness after every reply is in.
	stampFrom          uint64 // seed of reqs[0]
	bodyStart, bodyEnd []int64
	epoch              time.Time
}

func newOpenLoop(o loopOpts, rate float64) *openLoop {
	mix := []string{netScenario}
	return &openLoop{
		o: o, rate: rate,
		warm: genRequests(mix, netSize, o.seed, 0, o.warm),
		reqs: genRequests(mix, netSize, o.seed, o.warm, o.perRep),
	}
}

func netConns() int {
	if runtime.NumCPU() < 2 {
		return 1
	}
	return 2
}

func (l *openLoop) setup() error {
	mem.DrainChunkPool()
	l.rt = hh.New(sutOptions(l.o)...)
	l.srv = serve.New(l.rt, serve.WithMaxInFlight(l.o.procs), serve.WithQueueDepth(netQueueDepth))
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		l.rt.Close()
		return fmt.Errorf("benchmark: listen on loopback: %w", err)
	}
	l.fe = netserve.Serve(lis, l.srv, netserve.Config{Resolve: l.resolve})
	for c := 0; c < netConns(); c++ {
		cl, err := netserve.Dial(l.fe.Addr().String())
		if err != nil {
			l.closeAll()
			return fmt.Errorf("benchmark: dial front end: %w", err)
		}
		l.clients = append(l.clients, cl)
	}
	l.base = hh.ChunksInUse()
	if out := l.drive(l.warm, false); out.failed > 0 {
		l.closeAll()
		return fmt.Errorf("benchmark: %d of %d warm-up requests failed", out.failed, len(l.warm))
	}
	return nil
}

// resolve is the netserve.Config.Resolve the harness owns. In the traced
// pass it wraps the body to stamp its start and end, keyed by seed.
func (l *openLoop) resolve(name string) (netserve.Runner, bool) {
	run, err := resolveRunner(name)
	if err != nil {
		return nil, false
	}
	if !l.o.traced {
		return netserve.Runner(run), true
	}
	return func(t *hh.Task, seed uint64, size int) uint64 {
		i := seed - l.stampFrom
		if l.bodyStart == nil || i >= uint64(len(l.bodyStart)) {
			return run(t, seed, size)
		}
		l.bodyStart[i] = int64(time.Since(l.epoch))
		defer func() { l.bodyEnd[i] = int64(time.Since(l.epoch)) }()
		return run(t, seed, size)
	}, true
}

func (l *openLoop) rep() repOut { return l.drive(l.reqs, l.o.traced) }

// drive sends reqs once on the steady schedule. Request i is due at
// i/rate; latency runs from that intended time to the reply being parsed,
// so a stall is charged to every request it delays.
func (l *openLoop) drive(reqs []request, stamp bool) repOut {
	n := len(reqs)
	out := repOut{latMs: make([]float64, n), limitMs: latencyLimitMs, paced: true}
	due := make([]time.Duration, n)
	for i := range due {
		due[i] = time.Duration(float64(i) / l.rate * float64(time.Second))
	}
	sent, done := make([]int64, n), make([]int64, n)
	good, shed := make([]bool, n), make([]bool, n)
	if stamp {
		l.stampFrom = reqs[0].seed
		l.bodyStart, l.bodyEnd = make([]int64, n), make([]int64, n)
	}
	before, srvBefore, feBefore := l.rt.Stats(), l.srv.Stats(), l.fe.Counters()

	conns := len(l.clients)
	cpu0, start := cpuTime(), time.Now()
	l.epoch = start
	// A wedged server must fail the run, not hang it past the driver's
	// limit.
	deadline := start.Add(due[n-1] + 30*time.Second)
	var wg sync.WaitGroup
	for c, cl := range l.clients {
		cl.Conn().SetDeadline(deadline)
		wg.Add(2)
		go func() { // writer
			defer wg.Done()
			k := c
			for k < n {
				if wait := time.Until(start.Add(due[k])); wait > 0 {
					time.Sleep(wait)
				}
				// Everything already due goes out in one flush.
				now, first := time.Since(start), k
				for ok := true; ok; ok = k < n && due[k] <= now {
					cl.Send("RUN", netScenario, strconv.FormatUint(reqs[k].seed, 10), strconv.Itoa(netSize))
					k += conns
				}
				if err := cl.Flush(); err != nil {
					cl.Close() // unblocks this connection's reader
					return
				}
				at := int64(time.Since(start))
				for j := first; j < k; j += conns {
					sent[j] = at
				}
			}
		}()
		go func() { // reader: replies arrive in request order per connection
			defer wg.Done()
			for k := c; k < n; k += conns {
				rep, err := cl.Recv()
				if err != nil {
					return // the rest of this connection's requests stay failed
				}
				done[k] = int64(time.Since(start))
				sum, err := rep.Checksum() // -SHED and -ERR replies are not checksums
				good[k], shed[k] = err == nil && sum == reqs[k].want, rep.IsShed()
			}
		}()
	}
	wg.Wait()
	l.srv.Drain()
	out.wall, out.cpu = time.Since(start), cpuTime()-cpu0

	var sendLag, ingress, egress, body []float64
	for i := range reqs {
		if !good[i] {
			out.failed++
			if shed[i] {
				out.refused++
			}
			out.latMs[i] = -1
			continue
		}
		out.checksum += reqs[i].want
		out.latMs[i] = ms(time.Duration(done[i]) - due[i])
		lag := time.Duration(sent[i]) - due[i]
		if lag > time.Millisecond {
			out.lateSend++
		}
		if stamp {
			sendLag = append(sendLag, us(lag))
			ingress = append(ingress, us(time.Duration(l.bodyStart[i]-sent[i])))
			body = append(body, us(time.Duration(l.bodyEnd[i]-l.bodyStart[i])))
			egress = append(egress, us(time.Duration(done[i]-l.bodyEnd[i])))
		}
	}
	out.groupByKind(reqs)
	if stamp {
		out.spans = map[string][]float64{
			"span.harness.send_lag": sendLag, "span.netserve.ingress": ingress,
			"span.session.body": body, "span.netserve.egress": egress,
		}
		out.bodyWall = time.Duration(sum(body) * float64(time.Microsecond))
		l.bodyStart, l.bodyEnd = nil, nil
	}
	fe := l.fe.Counters()
	out.stats = counterDelta{
		tot: statsDelta(before, l.rt.Stats()), srv: serveDelta(srvBefore, l.srv.Stats()),
		protoErrs: fe.ProtoErrors - feBefore.ProtoErrors,
	}
	for reason, v := range fe.Sheds {
		out.stats.sheds += v - feBefore.Sheds[reason]
	}
	return out
}

func (l *openLoop) teardown() []string {
	l.srv.Drain()
	bad := append(exportTrace(l.o.traceOut), leakGate(l.base)...)
	l.closeAll()
	return bad
}

// closeAll stops the clients, the front end and the runtime, in that
// order, and waits for each.
func (l *openLoop) closeAll() {
	for _, cl := range l.clients {
		cl.Close()
	}
	l.clients = nil
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	_ = l.fe.Drain(ctx) // on timeout Drain force-closes what is left; nothing to add
	l.rt.Close()
}
