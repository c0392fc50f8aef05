package serve

import (
	"errors"
	"fmt"
	"runtime"
	"sync"
	"testing"
	"time"

	"repro/hh"
)

// High-P serve stress: the all-modes closed-loop stress of serve_test.go,
// swept over P ∈ {2, 8, NumCPU} with GOMAXPROCS matched to P. At P=2 the
// striped structures degrade to near-serial use; at P=8 (oversubscribed on
// small hosts) the Go scheduler preempts aggressively, which is where the
// race detector earns its keep against the striped admission and the
// shared chunk pool underneath the server.

func servePs() []int {
	ps := []int{2, 8, runtime.NumCPU()}
	seen := map[int]bool{}
	var out []int
	for _, p := range ps {
		if p >= 2 && !seen[p] {
			seen[p] = true
			out = append(out, p)
		}
	}
	return out
}

func TestServeStressAcrossProcs(t *testing.T) {
	const perClient = 4
	for _, p := range servePs() {
		for _, mode := range hh.Modes {
			t.Run(fmt.Sprintf("P=%d/%s", p, mode), func(t *testing.T) {
				prev := runtime.GOMAXPROCS(p)
				defer runtime.GOMAXPROCS(prev)
				clients := 2 * p
				r := hh.New(hh.WithMode(mode), hh.WithProcs(p), hh.WithGCPolicy(2048, 1.25))
				defer r.Close()
				base := hh.ChunksInUse()

				srv := New(r, WithMaxInFlight(p), WithQueueDepth(2*clients))
				want := hh.Run(r, func(task *hh.Task) uint64 { return request(task, 1, 40) })

				var wg sync.WaitGroup
				for c := 0; c < clients; c++ {
					wg.Add(1)
					go func() {
						defer wg.Done()
						for i := 0; i < perClient; i++ {
							var tk *Ticket
							for {
								var err error
								tk, err = srv.Submit(func(task *hh.Task) uint64 {
									return request(task, 1, 40)
								})
								if err == nil {
									break
								}
								if !errors.Is(err, ErrSaturated) {
									t.Error(err)
									return
								}
								time.Sleep(100 * time.Microsecond)
							}
							got, err := tk.Wait()
							if err != nil || got != want {
								t.Errorf("request: got %x err %v, want %x", got, err, want)
								return
							}
						}
					}()
				}
				wg.Wait()
				srv.Drain()

				st := srv.Stats()
				if st.Completed != int64(clients*perClient) {
					t.Fatalf("completed %d requests, want %d", st.Completed, clients*perClient)
				}
				// Wholesale reclamation: serving must not accrete chunks. Only
				// the pinned reference Run's chunks (held until Close) may sit
				// above the baseline; underflow means double-accounting.
				if got := hh.ChunksInUse(); got < base {
					t.Fatalf("chunk accounting underflow: %d < baseline %d", got, base)
				}
				if err := r.CheckDisentangled(); err != nil {
					t.Fatalf("disentanglement violated at P=%d: %v", p, err)
				}
			})
		}
	}
}
