package serve

import (
	"errors"
	"sync"
	"testing"
	"time"

	"repro/hh"
)

// request builds a session-local linked list, hammers it with promoting
// writes into a session-shared array, and folds a checksum. It stays under
// the 1 MiB floor below which an unpinned session's heap is not collected.
func request(t *hh.Task, seed uint64, n int) uint64 {
	var sum uint64
	t.Scoped(func(sc *hh.Scope) {
		arr := sc.Ref(t.AllocMut(4, 0, hh.TagArrPtr))
		hh.ParDo(t, hh.Bind(arr), 0, 4, 1, func(t *hh.Task, e *hh.Env, lo, hi int) {
			for s := lo; s < hi; s++ {
				for i := 0; i < n; i++ {
					t.Scoped(func(ws *hh.Scope) {
						head := ws.Ref(t.ReadMutPtr(e.Ptr(0), s))
						c := t.Alloc(1, 1, hh.TagCons)
						t.InitWord(c, 0, seed+uint64(s)<<32+uint64(i))
						t.InitPtr(c, 0, head.Get())
						t.WritePtr(e.Ptr(0), s, c)
					})
				}
			}
		})
		for s := 0; s < 4; s++ {
			for p := t.ReadMutPtr(arr.Get(), s); !p.IsNil(); p = t.ReadImmPtr(p, 0) {
				sum = sum*31 + t.ReadImmWord(p, 0)
			}
		}
	})
	return sum
}

// TestServeStressAllModes is the serving layer's acceptance stress: at
// least 8 sessions in flight at once in every runtime mode, race-clean,
// with chunk occupancy back to baseline after Drain (wholesale
// reclamation actually releases chunks).
func TestServeStressAllModes(t *testing.T) {
	const (
		maxInFlight = 8
		clients     = 16
		perClient   = 6
	)
	for _, mode := range hh.Modes {
		t.Run(mode.String(), func(t *testing.T) {
			r := hh.New(hh.WithMode(mode), hh.WithProcs(4), hh.WithGCPolicy(2048, 1.25))
			defer r.Close()
			base := hh.ChunksInUse()

			srv := New(r, WithMaxInFlight(maxInFlight), WithQueueDepth(2*clients))
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
							time.Sleep(100 * time.Microsecond) // closed loop: back off and retry
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
			if st.Completed != clients*perClient {
				t.Fatalf("completed %d, want %d", st.Completed, clients*perClient)
			}
			if st.PeakInFlight < maxInFlight {
				t.Errorf("peak in-flight %d, want %d (closed loop should saturate)", st.PeakInFlight, maxInFlight)
			}
			if mode == hh.ParMem || mode == hh.Seq {
				if st.WholesaleBytes == 0 {
					t.Error("no wholesale reclamation recorded")
				}
			}
			if st.LatencyP50 <= 0 || st.LatencyMax < st.LatencyP50 || st.Throughput <= 0 {
				t.Errorf("implausible latency/throughput stats: %+v", st)
			}
			// Every unpinned session's subtree must be gone; only the pinned
			// reference Run's chunks (merged into the root after `base` was
			// snapshotted, held until Close) may remain above baseline —
			// TestServeDrainReturnsToBaseline does the exact-baseline check.
			if got := hh.ChunksInUse(); got < base {
				t.Fatalf("chunk accounting underflow: %d < baseline %d", got, base)
			}
		})
	}
}

// TestLatencyAttribution checks the per-request breakdown: with more
// clients than in-flight slots the queue-wait component must be nonzero,
// the promoting workload must charge GC and barrier time, every request
// must return the same checksum, and the summary pair
// (LatencyCount/LatencySum) must agree with the completion count. One
// request runs at a time on two workers, so the other worker is idle when
// the request forks: its forks publish frames and its arms promote.
func TestLatencyAttribution(t *testing.T) {
	const requests = 24
	t.Run("eager", func(t *testing.T) {
		r := hh.New(hh.WithMode(hh.ParMem), hh.WithProcs(2), hh.WithGCPolicy(2048, 1.25))
		defer r.Close()

		srv := New(r, WithMaxInFlight(1), WithQueueDepth(requests))
		var tickets []*Ticket
		for i := 0; i < requests; i++ {
			// Every request first churns 1.1 MiB of garbage (1500 objects of
			// 96 words) through its session heap: an unpinned session is not
			// collected below 1 MiB, and the GC component of the breakdown
			// must be exercised.
			tk, err := srv.Submit(func(task *hh.Task) uint64 {
				for j := 0; j < 1500; j++ {
					task.Alloc(0, 94, hh.TagTuple)
				}
				return request(task, 1, 400)
			})
			if err != nil {
				t.Fatal(err)
			}
			tickets = append(tickets, tk)
		}
		var refSum uint64
		for i, tk := range tickets {
			res, err := tk.Wait()
			if err != nil {
				t.Fatal(err)
			}
			if i == 0 {
				refSum = res
			}
			if res != refSum {
				t.Fatalf("request %d checksum %x, want %x", i, res, refSum)
			}
		}
		srv.Drain()

		st := srv.Stats()
		if st.LatencyCount != requests || st.Completed != requests {
			t.Fatalf("count %d completed %d, want %d", st.LatencyCount, st.Completed, requests)
		}
		if st.LatencySum <= 0 {
			t.Fatalf("LatencySum = %v, want > 0", st.LatencySum)
		}
		if st.QueueWaitTotal <= 0 {
			t.Fatalf("QueueWaitTotal = %v, want > 0 (24 requests through 1 slot must queue)", st.QueueWaitTotal)
		}
		if st.GCTotal <= 0 {
			t.Fatalf("GCTotal = %v, want > 0 for a collecting workload", st.GCTotal)
		}
		if st.BarrierTotal <= 0 {
			t.Fatalf("BarrierTotal = %v, want > 0 for an eagerly promoting workload", st.BarrierTotal)
		}
		q, gc, bar, mut := st.Breakdown()
		if sum := q + gc + bar + mut; sum < 0.999 || sum > 1.001 {
			t.Fatalf("breakdown fractions sum to %f, want 1", sum)
		}
	})
}

// TestServeDrainReturnsToBaseline is the strict leak check: with no pinned
// work at all, ChunksInUse returns exactly to the pre-traffic baseline
// after Drain.
func TestServeDrainReturnsToBaseline(t *testing.T) {
	for _, mode := range []hh.Mode{hh.ParMem, hh.Seq} {
		t.Run(mode.String(), func(t *testing.T) {
			r := hh.New(hh.WithMode(mode), hh.WithProcs(4), hh.WithGCPolicy(2048, 1.25))
			defer r.Close()
			base := hh.ChunksInUse()

			srv := New(r, WithMaxInFlight(8))
			var tickets []*Ticket
			for i := 0; i < 24; i++ {
				tk, err := srv.SubmitRequest(Request{Fn: func(task *hh.Task) uint64 {
					return request(task, uint64(i), 60)
				}})
				if errors.Is(err, ErrSaturated) {
					continue // backpressure did its job; coverage not needed here
				}
				if err != nil {
					t.Fatal(err)
				}
				tickets = append(tickets, tk)
			}
			srv.Drain()
			for _, tk := range tickets {
				if _, err := tk.Wait(); err != nil {
					t.Fatal(err)
				}
			}
			if got := hh.ChunksInUse(); got != base {
				t.Fatalf("ChunksInUse after Drain = %d, want baseline %d", got, base)
			}
			if st := srv.Stats(); st.WholesaleBytes == 0 {
				t.Fatal("expected wholesale reclamation")
			}
		})
	}
}

func TestServeBackpressureRejects(t *testing.T) {
	r := hh.New(hh.WithMode(hh.ParMem), hh.WithProcs(2))
	defer r.Close()
	srv := New(r, WithMaxInFlight(1), WithQueueDepth(1))

	release := make(chan struct{})
	blocker, err := srv.Submit(func(task *hh.Task) uint64 { <-release; return 1 })
	if err != nil {
		t.Fatal(err)
	}
	queued, err := srv.Submit(func(task *hh.Task) uint64 { return 2 })
	if err != nil {
		t.Fatal(err)
	}
	if _, err := srv.Submit(func(task *hh.Task) uint64 { return 3 }); !errors.Is(err, ErrSaturated) {
		t.Fatalf("third submit: err = %v, want ErrSaturated", err)
	}
	close(release)
	if res, err := blocker.Wait(); err != nil || res != 1 {
		t.Fatalf("blocker: %d, %v", res, err)
	}
	if res, err := queued.Wait(); err != nil || res != 2 {
		t.Fatalf("queued: %d, %v", res, err)
	}
	srv.Drain()
	st := srv.Stats()
	if st.Rejected != 1 || st.Submitted != 2 || st.PeakQueued != 1 {
		t.Fatalf("stats %+v, want 2 submitted, 1 rejected, peak queue 1", st)
	}
}

func TestServeFailureIsolation(t *testing.T) {
	r := hh.New(hh.WithMode(hh.ParMem), hh.WithProcs(2), hh.WithGCPolicy(2048, 1.25))
	defer r.Close()
	srv := New(r, WithMaxInFlight(4), WithSessionBudget(64<<10))

	over, err := srv.SubmitRequest(Request{Fn: func(task *hh.Task) uint64 {
		return request(task, 9, 1_000_000) // blows the 64K-word default budget
	}})
	if err != nil {
		t.Fatal(err)
	}
	angry, err := srv.SubmitRequest(Request{Fn: func(task *hh.Task) uint64 {
		panic("malformed request")
	}})
	if err != nil {
		t.Fatal(err)
	}
	good, err := srv.SubmitRequest(Request{BudgetWords: 8 << 20, Fn: func(task *hh.Task) uint64 {
		return request(task, 3, 50)
	}})
	if err != nil {
		t.Fatal(err)
	}

	if _, err := over.Wait(); !errors.Is(err, hh.ErrBudgetExceeded) {
		t.Fatalf("budget overrun err = %v", err)
	}
	var pe *hh.PanicError
	if _, err := angry.Wait(); !errors.As(err, &pe) {
		t.Fatalf("panic err = %v", err)
	}
	if res, err := good.Wait(); err != nil || res == 0 {
		t.Fatalf("good request disturbed: %d, %v", res, err)
	}
	srv.Drain()
	if st := srv.Stats(); st.Failed != 2 || st.Completed != 1 {
		t.Fatalf("stats %+v, want 2 failed / 1 completed", st)
	}
}

func TestServePinnedRequestSurvivesDrain(t *testing.T) {
	r := hh.New(hh.WithMode(hh.ParMem), hh.WithProcs(2))
	defer r.Close()
	srv := New(r, WithMaxInFlight(4))

	var out hh.Ptr
	tk, err := srv.SubmitRequest(Request{Pin: true, Fn: func(task *hh.Task) uint64 {
		p := task.Alloc(0, 1, hh.TagTuple)
		task.InitWord(p, 0, 0xabcdef)
		out = p
		return 0
	}})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := tk.Wait(); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 8; i++ {
		if _, err := srv.Submit(func(task *hh.Task) uint64 { return request(task, uint64(i), 30) }); err != nil {
			t.Fatal(err)
		}
	}
	srv.Drain()
	got := hh.Run(r, func(task *hh.Task) uint64 { return task.ReadImmWord(out, 0) })
	if got != 0xabcdef {
		t.Fatalf("pinned result corrupted: %x", got)
	}
	if st := srv.Stats(); st.MergedBytes == 0 {
		t.Fatal("pinned request recorded no merged bytes")
	}
}
