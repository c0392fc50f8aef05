package main

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"repro/hh"
	"repro/hh/serve"
	"repro/internal/mem"
)

// requestSize is the work per request of the closed-loop mixes (hhload's
// default).
const requestSize = 1200

var closedMixes = map[string][]string{
	"serve-mix": {"kv", "kv", "bfs", "hist"},
	"churn-mix": {"stream", "stream", "fan", "abort"},
}

// closedLoop drives serve-mix and churn-mix: 2P in-process callers that
// each block on Ticket.Wait before taking the next request, against
// serve.New(r, WithMaxInFlight(2P), WithQueueDepth(4P)). A request is never
// refused in this shape (callers ≤ in-flight cap), so a refusal is a
// failure, not a back-off.
type closedLoop struct {
	o       loopOpts
	runners []runner // by request kind
	warm    []request
	reqs    []request

	rt   *hh.Runtime
	srv  *serve.Server
	base int64 // chunks in use before traffic

	wantAborts, gotAborts int64
	rollback              int64
}

func newClosedLoop(o loopOpts) (*closedLoop, error) {
	mix, ok := closedMixes[o.workload]
	if !ok {
		return nil, fmt.Errorf("benchmark: %q is not a closed-loop workload", o.workload)
	}
	l := &closedLoop{o: o, runners: make([]runner, len(scenarioNames))}
	for k, name := range scenarioNames {
		run, err := resolveRunner(name)
		if err != nil {
			return nil, err
		}
		l.runners[k] = run
	}
	l.warm = genRequests(mix, requestSize, o.seed, 0, o.warm)
	l.reqs = genRequests(mix, requestSize, o.seed, o.warm, o.perRep)
	return l, nil
}

func (l *closedLoop) setup() error {
	mem.DrainChunkPool()
	l.rt = hh.New(sutOptions(l.o)...)
	p := l.o.procs
	l.srv = serve.New(l.rt, serve.WithMaxInFlight(2*p), serve.WithQueueDepth(4*p))
	l.base = hh.ChunksInUse()
	if out := l.drive(l.warm, false); out.failed > 0 {
		return fmt.Errorf("benchmark: %d of %d warm-up requests failed", out.failed, len(l.warm))
	}
	return nil
}

func (l *closedLoop) rep() repOut { return l.drive(l.reqs, l.o.traced) }

// drive runs reqs once through the closed loop. With stamp set it records
// the four client-side span boundaries of every request; the body's start
// and end are stamped by wrapping the request closure, which the harness
// owns, so nothing is added inside the program.
func (l *closedLoop) drive(reqs []request, stamp bool) repOut {
	n := len(reqs)
	out := repOut{latMs: make([]float64, n), limitMs: latencyLimitMs}
	var submitUs, queueUs, bodyUs, releaseUs []float64
	if stamp {
		submitUs, queueUs = make([]float64, n), make([]float64, n)
		bodyUs, releaseUs = make([]float64, n), make([]float64, n)
	}
	before := l.rt.Stats()
	srvBefore := l.srv.Stats()

	var next, failed, refused, aborts, rollback atomic.Int64
	var checksum atomic.Uint64
	var wg sync.WaitGroup
	cpu0, start := cpuTime(), time.Now()
	for c := 0; c < 2*l.o.procs; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1) - 1)
				if i >= n {
					return
				}
				rq := reqs[i]
				run := l.runners[rq.kind]
				t0 := time.Now()
				var res uint64
				var err error
				for attempt := 0; ; attempt++ {
					var bodyStart, bodyEnd time.Time
					fn := func(t *hh.Task) uint64 {
						if rq.abort {
							return abortBody(t, rq.seed, requestSize, attempt)
						}
						return run(t, rq.seed, requestSize)
					}
					body := fn
					if stamp {
						body = func(t *hh.Task) uint64 {
							bodyStart = time.Now()
							defer func() { bodyEnd = time.Now() }()
							return fn(t)
						}
					}
					ts := time.Now()
					var tk *serve.Ticket
					tk, err = l.srv.Submit(body)
					if err != nil {
						refused.Add(1)
						break
					}
					tr := time.Now()
					res, err = tk.Wait()
					tw := time.Now()
					if stamp {
						// Retried requests keep their last attempt's spans.
						submitUs[i] = us(tr.Sub(ts))
						queueUs[i] = us(bodyStart.Sub(tr)) // negative when a worker started the body before Submit returned
						if queueUs[i] < 0 {
							queueUs[i] = 0
						}
						bodyUs[i] = us(bodyEnd.Sub(bodyStart))
						releaseUs[i] = us(tw.Sub(bodyEnd))
					}
					var ab *hh.AbortError
					if rq.abort && attempt == 0 && errors.As(err, &ab) {
						// The predicted rollback: account it and retry at
						// once; the retry is part of the request's latency.
						aborts.Add(1)
						rollback.Add(tk.WholesaleBytes())
						continue
					}
					break
				}
				if err != nil || res != rq.want {
					failed.Add(1)
					out.latMs[i] = -1
					continue
				}
				checksum.Add(res)
				out.latMs[i] = ms(time.Since(t0))
			}
		}()
	}
	wg.Wait()
	l.srv.Drain()
	out.wall, out.cpu = time.Since(start), cpuTime()-cpu0

	out.failed, out.refused = int(failed.Load()), int(refused.Load())
	out.groupByKind(reqs)
	out.checksum = checksum.Load()
	out.aborts, out.rollback = aborts.Load(), rollback.Load()
	out.stats = counterDelta{tot: statsDelta(before, l.rt.Stats()), srv: serveDelta(srvBefore, l.srv.Stats())}
	if stamp {
		out.spans = map[string][]float64{
			"span.serve.submit": submitUs, "span.serve.queue": queueUs,
			"span.session.body": bodyUs, "span.session.release": releaseUs,
		}
		out.bodyWall = time.Duration(sum(bodyUs) * float64(time.Microsecond))
	}
	for _, rq := range reqs {
		if rq.abort {
			l.wantAborts++
		}
	}
	l.gotAborts += out.aborts
	l.rollback += out.rollback
	return out
}

// teardown runs the balance gates: occupancy back at the pre-traffic
// baseline after Drain, exactly the predicted number of rollbacks, and a
// rollback that released memory.
func (l *closedLoop) teardown() []string {
	l.srv.Drain()
	bad := append(exportTrace(l.o.traceOut), leakGate(l.base)...)
	if l.gotAborts != l.wantAborts {
		bad = append(bad, fmt.Sprintf("aborts: %d rolled back, %d predicted from the seed", l.gotAborts, l.wantAborts))
	}
	if l.wantAborts > 0 && l.rollback <= 0 {
		bad = append(bad, "aborts released no memory (rollback bytes = 0)")
	}
	l.rt.Close()
	return bad
}

func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }
func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
