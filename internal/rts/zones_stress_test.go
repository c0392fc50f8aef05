package rts

import (
	"runtime"
	"testing"
	"time"

	"repro/internal/gc"
	"repro/internal/mem"
)

// zoneStressArm is one sibling task of the concurrent-collection stress:
// it keeps a sizable live list (so every leaf collection copies real
// work), churns garbage (so the policy trips constantly), performs
// entangling writes into a shared root-level array (so promotions
// interleave with in-flight collections elsewhere), and verifies its data
// after every round. Returns 1 on success, 0 on corruption.
func zoneStressArm(t *Task, shared mem.ObjPtr, slot, rounds, listLen int) uint64 {
	var list mem.ObjPtr
	mark := t.PushRoot(&shared, &list)
	defer t.PopRoots(mark)
	for round := 0; round < rounds; round++ {
		list = mem.NilPtr
		for i := 0; i < listLen; i++ {
			cons := t.Alloc(1, 1, mem.TagCons)
			t.WriteInitWord(cons, 0, uint64(slot)<<32|uint64(i))
			t.WriteInitPtr(cons, 0, list)
			list = cons
		}
		for i := 0; i < 2000; i++ {
			t.Alloc(0, 6, mem.TagTuple) // garbage
		}
		// Entangling write: promotes the fresh cell into the root heap
		// while sibling zones may be mid-collection.
		cell := t.Alloc(0, 1, mem.TagRef)
		t.WriteInitWord(cell, 0, uint64(slot)<<32|uint64(round))
		t.WritePtr(shared, slot, cell)

		p := list
		for i := listLen - 1; i >= 0; i-- {
			if p.IsNil() || t.ReadImmWord(p, 0) != uint64(slot)<<32|uint64(i) {
				return 0
			}
			p = t.ReadImmPtr(p, 0)
		}
		if !p.IsNil() {
			return 0
		}
	}
	return 1
}

// runZoneStress executes one 4-sibling stress run and returns the
// checksum (1 = data intact) and the runtime totals.
func runZoneStress(tb testing.TB, cfg Config, rounds, listLen int) (uint64, Totals) {
	tb.Helper()
	arm := func(slot int) ScalarThunk {
		return func(t *Task, env mem.ObjPtr) uint64 {
			return zoneStressArm(t, env, slot, rounds, listLen)
		}
	}
	r := New(cfg)
	ok := r.Run(func(t *Task) uint64 {
		shared := t.AllocMut(4, 0, mem.TagArrPtr)
		mark := t.PushRoot(&shared)
		a, b := t.ForkJoinScalar(shared,
			func(t *Task, env mem.ObjPtr) uint64 {
				x, y := t.ForkJoinScalar(env, arm(0), arm(1))
				return x & y
			},
			func(t *Task, env mem.ObjPtr) uint64 {
				x, y := t.ForkJoinScalar(env, arm(2), arm(3))
				return x & y
			})
		res := a & b
		for slot := 0; slot < 4; slot++ {
			cell := t.ReadMutPtr(shared, slot)
			if cell.IsNil() || t.ReadImmWord(cell, 0) != uint64(slot)<<32|uint64(rounds-1) {
				res = 0
			}
		}
		t.PopRoots(mark)
		return res
	})
	st := r.Stats()
	if err := r.CheckDisentangled(); err != nil {
		tb.Fatalf("disentanglement violated: %v", err)
	}
	r.Close()
	return ok, st
}

// TestConcurrentZoneCollections is the headline stress for the zone
// scheduler: at least two leaf zones must be observed in flight at once
// (MaxConcurrent > 1) while sibling tasks keep mutating and promoting.
// Overlap depends on scheduling, so the test retries fresh runtimes under
// a deadline; each run performs hundreds of collections, so on any box
// with preemption it converges almost immediately. Run under -race it
// also serves as the data-race check for the whole concurrent path.
func TestConcurrentZoneCollections(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))
	cfg := DefaultConfig(ParMem, 4)
	cfg.Policy = gc.Policy{MinWords: 4096, Ratio: 1.2}

	deadline := time.Now().Add(90 * time.Second)
	var last Totals
	for attempt := 0; ; attempt++ {
		if time.Now().After(deadline) {
			t.Fatalf("after %d attempts no two zones overlapped (last: %+v)", attempt, last.Zones)
		}
		ok, st := runZoneStress(t, cfg, 6, 2500)
		if ok != 1 {
			t.Fatal("data corruption under concurrent zone collection")
		}
		if st.Zones.Zones == 0 || st.Ops.WritePtrProm == 0 {
			t.Fatalf("stress did not stress: %+v / %d promotions", st.Zones, st.Ops.WritePtrProm)
		}
		last = st
		if st.Zones.MaxConcurrent > 1 {
			if st.Zones.OverlapNanos <= 0 {
				t.Fatalf("concurrent zones recorded no overlap time: %+v", st.Zones)
			}
			t.Logf("attempt %d: %d zone collections, max %d concurrent, %v overlap, %d promotions",
				attempt, st.Zones.Zones, st.Zones.MaxConcurrent,
				time.Duration(st.Zones.OverlapNanos), st.Ops.WritePtrProm)
			return
		}
	}
}

// TestJoinZoneCollectionRuns checks internal-node collection: on a single
// worker (deterministic inline execution) a parallel tree build with a
// tiny policy must trigger collections of merged ancestors at join
// points, and every ParMem collection must be accounted as a zone.
func TestJoinZoneCollectionRuns(t *testing.T) {
	cfg := DefaultConfig(ParMem, 1)
	cfg.Policy = gc.Policy{MinWords: 512, Ratio: 1.2}
	r := New(cfg)
	got := r.Run(func(task *Task) uint64 {
		root := buildTree(task, 9)
		mark := task.PushRoot(&root)
		// Garbage churn at the (now merged, leaf-like) root heap so an
		// allocation safe point also triggers a leaf-zone collection.
		for i := 0; i < 500; i++ {
			task.Alloc(0, 8, mem.TagTuple)
		}
		s := sumTree(task, root)
		task.PopRoots(mark)
		return s
	})
	st := r.Stats()
	r.Close()
	if got != 1<<9 {
		t.Fatalf("tree sum = %d, want %d", got, 1<<9)
	}
	if st.Zones.JoinZones == 0 {
		t.Fatalf("no internal-node collections at joins: %+v", st.Zones)
	}
	if st.Zones.LeafZones == 0 {
		t.Fatalf("no leaf collections: %+v", st.Zones)
	}
	if st.Zones.Zones != st.GC.Collections {
		t.Fatalf("zone accounting disagrees with GC stats: %d zones, %d collections",
			st.Zones.Zones, st.GC.Collections)
	}
}
