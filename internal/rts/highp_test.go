package rts

import (
	"fmt"
	"runtime"
	"sync"
	"testing"
	"time"

	"repro/internal/gc"
	"repro/internal/mem"
)

// High-P coverage: the zone-collection and session stress paths run at
// P ∈ {2, 8, NumCPU} with GOMAXPROCS matched to P, so the race detector
// sees both the tightly serialized interleavings of a small P and the
// wide ones of an oversubscribed scheduler. These are the tests that
// exercise concurrent zone collections, session attach and release, the
// chunk pool, and the striped totals together under real mutator
// traffic.

// highPs returns the deduplicated sweep {2, 8, NumCPU}, smallest first.
func highPs() []int {
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

// setProcs pins GOMAXPROCS for the duration of the (sub)test.
func setProcs(t *testing.T, p int) {
	t.Helper()
	prev := runtime.GOMAXPROCS(p)
	t.Cleanup(func() { runtime.GOMAXPROCS(prev) })
}

// TestZoneStressAcrossProcs runs the concurrent-collection stress at every
// sweep point: live lists survive, promotions interleave with in-flight
// collections, and disentanglement holds, at every worker count of the
// sweep. Unlike the retrying headline test (TestConcurrentZoneCollections)
// this asserts correctness, not observed overlap, so one run per P
// suffices.
func TestZoneStressAcrossProcs(t *testing.T) {
	for _, p := range highPs() {
		t.Run(fmt.Sprintf("P=%d", p), func(t *testing.T) {
			setProcs(t, p)
			cfg := DefaultConfig(ParMem, p)
			cfg.Policy = gc.Policy{MinWords: 4096, Ratio: 1.2}
			ok, st := runZoneStress(t, cfg, 4, 1200)
			if ok != 1 {
				t.Fatalf("data corruption at P=%d", p)
			}
			if st.Zones.Zones == 0 || st.Ops.Promotions == 0 {
				t.Fatalf("stress did not stress at P=%d: %+v / %d promotions",
					p, st.Zones, st.Ops.Promotions)
			}
		})
	}
}

// sessionChurn is one session's work for the attach/detach stress: build
// and verify a list while churning enough garbage that the session's
// subtree keeps collecting. Each round's garbage (1500 objects of 96
// words, 1.1 MiB) carries the session's heap past the unpinned-session
// floor, gc.DefaultPolicy().MinWords, below which release, not a
// collection, reclaims it. Returns 1 on success.
func sessionChurn(t *Task, seed uint64, listLen int) uint64 {
	var list mem.ObjPtr
	mark := t.PushRoot(&list)
	defer t.PopRoots(mark)
	for round := 0; round < 3; round++ {
		list = mem.NilPtr
		for i := 0; i < listLen; i++ {
			cons := t.Alloc(1, 1, mem.TagCons)
			t.WriteInitWord(cons, 0, seed+uint64(i))
			t.WriteInitPtr(cons, 0, list)
			list = cons
		}
		for i := 0; i < 1500; i++ {
			t.Alloc(0, 94, mem.TagTuple) // garbage
		}
		p := list
		for i := listLen - 1; i >= 0; i-- {
			if p.IsNil() || t.ReadImmWord(p, 0) != seed+uint64(i) {
				return 0
			}
			p = t.ReadImmPtr(p, 0)
		}
	}
	return 1
}

// TestAttachDetachDuringZoneCollections races session attach and release
// against in-flight zone collections: waves of short unpinned sessions
// create their subtree under the super-root at submit and free it
// wholesale at reclaim, WHILE their siblings' subtrees are mid-collection
// (each session's garbage carries its heap past the unpinned-session
// floor, so every live session collects). No session may corrupt another
// one's data, and every subtree's chunks must come back: occupancy returns
// to the pre-traffic baseline after the waves.
// The Seq leg runs four sessions at once, one per worker, so its session
// zones overlap with nothing between them but their heaps' write locks.
func TestAttachDetachDuringZoneCollections(t *testing.T) {
	for _, p := range highPs() {
		t.Run(fmt.Sprintf("P=%d", p), func(t *testing.T) {
			setProcs(t, p)
			attachDetachDuringZones(t, DefaultConfig(ParMem, p))
		})
	}
	t.Run("Seq", func(t *testing.T) {
		setProcs(t, 4)
		attachDetachDuringZones(t, DefaultConfig(Seq, 4))
	})
}

func attachDetachDuringZones(t *testing.T, cfg Config) {
	cfg.Policy = gc.Policy{MinWords: 4096, Ratio: 1.2}
	r := New(cfg)
	defer r.Close()
	base := mem.ChunksInUse()

	const waves, perWave = 4, 12
	for w := 0; w < waves; w++ {
		var wg sync.WaitGroup
		results := make([]uint64, perWave)
		for i := 0; i < perWave; i++ {
			seed := uint64(w*perWave + i + 1)
			ses := r.Submit(SessionOpts{}, func(task *Task) uint64 {
				return sessionChurn(task, seed<<20, 400)
			})
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				res, err := ses.Wait()
				if err != nil {
					t.Errorf("session failed: %v", err)
					return
				}
				results[i] = res
			}(i)
		}
		wg.Wait()
		for i, res := range results {
			if res != 1 {
				t.Fatalf("wave %d session %d corrupted its data", w, i)
			}
		}
	}

	// Unpinned sessions reclaim wholesale; occupancy returns to the
	// pre-traffic baseline once every wave has drained.
	deadline := time.Now().Add(10 * time.Second)
	for mem.ChunksInUse() != base && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if got := mem.ChunksInUse(); got != base {
		t.Fatalf("chunks in use = %d after drain, want baseline %d", got, base)
	}
	st := r.Stats()
	if st.Sessions.Completed != waves*perWave {
		t.Fatalf("completed %d sessions, want %d", st.Sessions.Completed, waves*perWave)
	}
	if st.Zones.SessionZones == 0 {
		t.Fatal("no session-tagged zone collections: the stress never stressed the registry")
	}
	if err := r.CheckDisentangled(); err != nil {
		t.Fatalf("disentanglement violated: %v", err)
	}
	t.Logf("%d session zones, max %d concurrent (%d distinct sessions), %v overlap",
		st.Zones.SessionZones, st.Zones.MaxConcurrent, st.Zones.MaxConcurrentSessions,
		time.Duration(st.Zones.OverlapNanos))
}
