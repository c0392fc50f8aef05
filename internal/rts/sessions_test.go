package rts

import (
	"errors"
	"fmt"
	"testing"
	"time"

	"repro/internal/gc"
	"repro/internal/heap"
	"repro/internal/mem"
)

// sessionConfig is an aggressive-GC config so session tests exercise
// collection, promotion, and reclamation together.
func sessionConfig(mode Mode, procs int) Config {
	cfg := DefaultConfig(mode, procs)
	cfg.Policy = gc.Policy{MinWords: 2048, Ratio: 1.25}
	return cfg
}

// buildChurn allocates a list of n cells, forces collections, and returns
// an order-sensitive checksum.
func buildChurn(task *Task, n int) uint64 {
	var sum uint64
	list := mem.NilPtr
	mark := task.PushRoot(&list)
	for i := 0; i < n; i++ {
		cell := task.Alloc(1, 1, mem.TagCons)
		task.WriteInitWord(cell, 0, uint64(i)*2654435761)
		task.WriteInitPtr(cell, 0, list)
		list = cell
	}
	for p := list; !p.IsNil(); p = task.ReadImmPtr(p, 0) {
		sum = sum*31 + task.ReadImmWord(p, 0)
	}
	task.PopRoots(mark)
	return sum
}

func TestConcurrentSessionsAllModes(t *testing.T) {
	const nSessions = 12
	for _, mode := range []Mode{ParMem, STW, Seq, Manticore} {
		t.Run(mode.String(), func(t *testing.T) {
			r := New(sessionConfig(mode, 4))
			defer r.Close()

			want := make([]uint64, nSessions)
			sessions := make([]*Session, nSessions)
			for i := range sessions {
				n := 500 + 100*i
				sessions[i] = r.Submit(SessionOpts{}, func(task *Task) uint64 {
					a, b := task.ForkJoinScalar(mem.NilPtr,
						func(task *Task, _ mem.ObjPtr) uint64 { return buildChurn(task, n) },
						func(task *Task, _ mem.ObjPtr) uint64 { return buildChurn(task, n/2) })
					return a*3 + b
				})
			}
			// Sequential reference for each size, computed after submission
			// so the reference sessions overlap the measured ones too.
			for i := range want {
				n := 500 + 100*i
				want[i] = r.Run(func(task *Task) uint64 {
					a := buildChurn(task, n)
					return a*3 + buildChurn(task, n/2)
				})
			}
			for i, s := range sessions {
				got, err := s.Wait()
				if err != nil {
					t.Fatalf("session %d failed: %v", i, err)
				}
				if got != want[i] {
					t.Errorf("session %d checksum %x, want %x", i, got, want[i])
				}
			}
			st := r.Stats()
			if st.Sessions.Submitted < nSessions || st.Sessions.Completed < nSessions {
				t.Fatalf("session totals %+v, want >= %d submitted+completed", st.Sessions, nSessions)
			}
			if st.Sessions.Failed != 0 {
				t.Fatalf("unexpected failed sessions: %+v", st.Sessions)
			}
		})
	}
}

func TestWholesaleReclamationReleasesChunks(t *testing.T) {
	for _, mode := range []Mode{ParMem, Seq} {
		t.Run(mode.String(), func(t *testing.T) {
			r := New(sessionConfig(mode, 2))
			base := mem.ChunksInUse()
			var sessions []*Session
			for i := 0; i < 8; i++ {
				sessions = append(sessions, r.Submit(SessionOpts{}, func(task *Task) uint64 {
					return buildChurn(task, 4000)
				}))
			}
			var wholesale int64
			for _, s := range sessions {
				if _, err := s.Wait(); err != nil {
					t.Fatal(err)
				}
				wholesale += s.WholesaleBytes()
				if s.MergedBytes() != 0 {
					t.Fatalf("unpinned session merged %d bytes", s.MergedBytes())
				}
			}
			if wholesale == 0 {
				t.Fatal("no bytes reclaimed wholesale")
			}
			// Wholesale reclamation must return chunk occupancy to the
			// pre-submission baseline without waiting for Close.
			if got := mem.ChunksInUse(); got != base {
				t.Fatalf("chunks in use after drain = %d, want baseline %d", got, base)
			}
			if st := r.Stats(); st.Sessions.WholesaleBytes != wholesale {
				t.Fatalf("runtime wholesale bytes %d, want %d", st.Sessions.WholesaleBytes, wholesale)
			}
			r.Close()
		})
	}
}

func TestPinnedSessionResultSurvivesOtherSessions(t *testing.T) {
	r := New(sessionConfig(ParMem, 2))
	defer r.Close()

	var out mem.ObjPtr
	s := r.Submit(SessionOpts{Pin: true}, func(task *Task) uint64 {
		cell := task.Alloc(0, 2, mem.TagTuple)
		task.WriteInitWord(cell, 0, 0xfeedface)
		task.WriteInitWord(cell, 1, 42)
		out = cell
		return 0
	})
	if _, err := s.Wait(); err != nil {
		t.Fatal(err)
	}
	if s.MergedBytes() == 0 {
		t.Fatal("pinned session reported no merged bytes")
	}
	// Churn other sessions; the pinned result must stay readable.
	for i := 0; i < 4; i++ {
		if _, err := r.Submit(SessionOpts{}, func(task *Task) uint64 {
			return buildChurn(task, 3000)
		}).Wait(); err != nil {
			t.Fatal(err)
		}
	}
	if got := r.Run(func(task *Task) uint64 { return task.ReadImmWord(out, 0) }); got != 0xfeedface {
		t.Fatalf("pinned result corrupted: %x", got)
	}
}

func TestSessionBudgetAborts(t *testing.T) {
	for _, mode := range []Mode{ParMem, STW, Seq, Manticore} {
		t.Run(mode.String(), func(t *testing.T) {
			r := New(sessionConfig(mode, 2))
			defer r.Close()
			base := mem.ChunksInUse()

			s := r.Submit(SessionOpts{BudgetWords: 4096}, func(task *Task) uint64 {
				return buildChurn(task, 1_000_000) // far past the budget
			})
			if _, err := s.Wait(); !errors.Is(err, ErrBudgetExceeded) {
				t.Fatalf("err = %v, want ErrBudgetExceeded", err)
			}
			if mode == ParMem || mode == Seq {
				if got := mem.ChunksInUse(); got != base {
					t.Fatalf("aborted session leaked: %d chunks, want %d", got, base)
				}
			}
			// The runtime must keep serving after an abort.
			if got := r.Run(func(task *Task) uint64 { return buildChurn(task, 100) }); got == 0 {
				t.Fatal("post-abort run returned zero checksum")
			}
			if st := r.Stats(); st.Sessions.Failed != 1 {
				t.Fatalf("Failed = %d, want 1", st.Sessions.Failed)
			}
		})
	}
}

func TestSessionBudgetAbortsForkedArms(t *testing.T) {
	// The budget must also stop allocation performed by stolen subtasks,
	// and the abort must drain cleanly with frames in flight.
	for _, mode := range []Mode{ParMem, STW, Manticore} {
		t.Run(mode.String(), func(t *testing.T) {
			r := New(sessionConfig(mode, 4))
			defer r.Close()
			base := mem.ChunksInUse()
			s := r.Submit(SessionOpts{BudgetWords: 8192}, func(task *Task) uint64 {
				var arms []Thunk
				for i := 0; i < 8; i++ {
					arms = append(arms, func(task *Task, _ mem.ObjPtr) mem.ObjPtr {
						buildChurn(task, 200_000)
						return mem.NilPtr
					})
				}
				forkArms(task, mem.NilPtr, arms)
				return 1
			})
			if _, err := s.Wait(); !errors.Is(err, ErrBudgetExceeded) {
				t.Fatalf("err = %v, want ErrBudgetExceeded", err)
			}
			if mode == ParMem {
				if got := mem.ChunksInUse(); got != base {
					t.Fatalf("aborted forked session leaked: %d chunks, want %d", got, base)
				}
			}
		})
	}
}

func TestSessionPanicIsolated(t *testing.T) {
	for _, mode := range []Mode{ParMem, STW, Seq, Manticore} {
		t.Run(mode.String(), func(t *testing.T) {
			r := New(sessionConfig(mode, 2))
			defer r.Close()
			base := mem.ChunksInUse()

			boom := fmt.Errorf("request blew up")
			bad := r.Submit(SessionOpts{}, func(task *Task) uint64 {
				buildChurn(task, 100)
				panic(boom)
			})
			good := r.Submit(SessionOpts{}, func(task *Task) uint64 {
				return buildChurn(task, 2000)
			})

			_, err := bad.Wait()
			var pe *PanicError
			if !errors.As(err, &pe) || pe.Value != any(boom) {
				t.Fatalf("err = %v, want PanicError wrapping %v", err, boom)
			}
			if got, err := good.Wait(); err != nil || got == 0 {
				t.Fatalf("sibling session disturbed: res=%d err=%v", got, err)
			}
			if mode == ParMem || mode == Seq {
				if got := mem.ChunksInUse(); got != base {
					t.Fatalf("panicked session leaked: %d chunks, want %d", got, base)
				}
			}
		})
	}
}

func TestRunRepanicsSessionPanic(t *testing.T) {
	r := New(DefaultConfig(ParMem, 2))
	defer r.Close()
	defer func() {
		if p := recover(); p != "through-run" {
			t.Fatalf("recovered %v, want the original panic value", p)
		}
	}()
	r.Run(func(task *Task) uint64 { panic("through-run") })
}

// garbage returns a session body that allocates about the given number of
// words, as 32-word objects, in the session's base heap.
func garbage(words int64) func(*Task) uint64 {
	return func(task *Task) uint64 {
		for w := int64(0); w < words; w += 32 {
			task.Alloc(0, 30, mem.TagTuple)
		}
		return 1
	}
}

// TestConcurrentSessionZoneCollections: two sessions collect their disjoint
// zones at the same time — the serving layer's cross-request GC concurrency.
// The recorder counts a zone in flight before it takes the heap's write
// lock, so holding session A's base heap write-locked parks A's collection
// in flight while session B collects to completion.
func TestConcurrentSessionZoneCollections(t *testing.T) {
	words := gc.DefaultPolicy().MinWords * 5 / 4 // past the unpinned-session floor
	r := New(sessionConfig(ParMem, 2))
	defer r.Close()

	heapA, goA := make(chan *heap.Heap), make(chan struct{})
	a := r.Submit(SessionOpts{}, func(task *Task) uint64 {
		heapA <- task.CurrentHeap()
		<-goA
		return garbage(words)(task)
	})
	h := <-heapA
	h.Lock(heap.WRITE)
	close(goA)
	var st Totals
	for deadline := time.Now().Add(10 * time.Second); ; time.Sleep(100 * time.Microsecond) {
		if st = r.Stats(); st.Zones.MaxConcurrent == 1 && st.Zones.Zones == 0 {
			break
		}
		if time.Now().After(deadline) {
			h.Unlock()
			t.Fatalf("session A's collection never went in flight: %+v", st.Zones)
		}
	}
	_, errB := r.Submit(SessionOpts{}, garbage(words)).Wait()
	st = r.Stats()
	h.Unlock()
	if _, err := a.Wait(); err != nil {
		t.Fatal(err)
	}
	if errB != nil {
		t.Fatal(errB)
	}
	if st.Zones.MaxConcurrentSessions != 2 || st.Zones.SessionZones == 0 {
		t.Fatalf("with A's collection in flight, B finished with %d session zones and %d sessions collecting at peak, want > 0 and 2",
			st.Zones.SessionZones, st.Zones.MaxConcurrentSessions)
	}
}

// TestUnpinnedSessionCollectionFloor: under an aggressive configured policy,
// a heap of an unpinned session is not collected until it holds
// gc.DefaultPolicy().MinWords, because release frees it wholesale anyway.
// The same body run pinned collects as the policy says; a heap grown past
// the floor collects; and the allocation budget, which counts allocation
// rather than occupancy, still aborts a session that stays under the floor.
// Chunk occupancy returns to its baseline after every case.
func TestUnpinnedSessionCollectionFloor(t *testing.T) {
	floor := gc.DefaultPolicy().MinWords
	cases := []struct {
		name      string
		opts      SessionOpts
		words     int64
		wantZones bool
		wantErr   error
	}{
		{"unpinned-256KiB", SessionOpts{}, 32 << 10, false, nil},
		{"pinned-256KiB", SessionOpts{Pin: true}, 32 << 10, true, nil},
		{"unpinned-past-floor", SessionOpts{}, floor + floor/4, true, nil},
		{"budget-below-floor", SessionOpts{BudgetWords: 16 << 10}, 32 << 10, false, ErrBudgetExceeded},
	}
	for _, mode := range []Mode{ParMem, Seq} {
		for _, tc := range cases {
			t.Run(mode.String()+"/"+tc.name, func(t *testing.T) {
				before := mem.ChunksInUse()
				r := New(sessionConfig(mode, 2))
				base := mem.ChunksInUse()
				_, err := r.Submit(tc.opts, garbage(tc.words)).Wait()
				if !errors.Is(err, tc.wantErr) {
					t.Fatalf("err = %v, want %v", err, tc.wantErr)
				}
				if got := mem.ChunksInUse(); !tc.opts.Pin && got != base {
					t.Fatalf("chunks in use after release = %d, want baseline %d", got, base)
				}
				zones := r.Stats().Zones.Zones
				r.Close()
				if got := mem.ChunksInUse(); got != before {
					t.Fatalf("chunks in use after Close = %d, want baseline %d", got, before)
				}
				if tc.wantZones && zones == 0 {
					t.Fatal("no zone collected")
				}
				if !tc.wantZones && zones != 0 {
					t.Fatalf("%d zones collected below the unpinned-session floor", zones)
				}
			})
		}
	}
}

func TestCloseWaitsForLiveSessions(t *testing.T) {
	// Close must wait submitted sessions out (wholesale release under a
	// live mutator would corrupt the subtree; a session still queued in
	// the pool inbox must get to run so its Wait returns).
	for _, mode := range []Mode{ParMem, Seq, STW} {
		t.Run(mode.String(), func(t *testing.T) {
			r := New(sessionConfig(mode, 2))
			var sessions []*Session
			for i := 0; i < 6; i++ {
				sessions = append(sessions, r.Submit(SessionOpts{}, func(task *Task) uint64 {
					return buildChurn(task, 5000)
				}))
			}
			r.Close() // no explicit Wait: Close itself must quiesce
			for i, s := range sessions {
				select {
				case <-s.done:
				default:
					t.Fatalf("session %d still unfinished after Close", i)
				}
				if _, err := s.Wait(); err != nil {
					t.Fatalf("session %d: %v", i, err)
				}
			}
			if got := mem.ChunksInUse(); got != 0 {
				t.Fatalf("%d chunks in use after Close", got)
			}
		})
	}
}

// TestSeqSessionsRunOnPool checks that Seq sessions run as root frames on
// the worker pool: at P = 2 two sessions run at once, Stats reports both
// workers, and a session's released chunks feed the next session's
// allocations through its worker's chunk cache.
func TestSeqSessionsRunOnPool(t *testing.T) {
	r := New(sessionConfig(Seq, 2))
	defer r.Close()

	started := [2]chan struct{}{make(chan struct{}), make(chan struct{})}
	var pair [2]*Session
	for i := range pair {
		pair[i] = r.Submit(SessionOpts{}, func(task *Task) uint64 {
			close(started[i])
			select {
			case <-started[1-i]:
				return 1
			case <-time.After(10 * time.Second):
				return 0
			}
		})
	}
	for i, s := range pair {
		if res, err := s.Wait(); err != nil || res != 1 {
			t.Fatalf("session %d: res=%d err=%v, want both sessions running at once", i, res, err)
		}
	}
	if got := r.Stats().Procs; got != 2 {
		t.Fatalf("Stats().Procs = %d, want 2", got)
	}

	before := r.Stats().Alloc
	for i := 0; i < 8; i++ {
		if _, err := r.Submit(SessionOpts{}, func(task *Task) uint64 {
			return buildChurn(task, 5000)
		}).Wait(); err != nil {
			t.Fatalf("churn session %d: %v", i, err)
		}
	}
	if al := r.Stats().Alloc.Sub(before); al.CacheHits == 0 {
		t.Fatalf("worker chunk caches never served a Seq session: %+v", al)
	}
}
