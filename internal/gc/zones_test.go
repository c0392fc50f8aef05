package gc

import (
	"sync"
	"testing"
	"time"

	"repro/internal/heap"
	"repro/internal/mem"
)

// heldCollect starts a collection of h while holding h's write lock, so the
// collection is in flight but cannot copy. The returned function releases
// the lock and waits for the collection to finish.
func heldCollect(z *ZoneRecorder, h *heap.Heap, family uint64) (finish func()) {
	h.Lock(heap.WRITE)
	done := make(chan struct{})
	go func() {
		defer close(done)
		z.Collect(nil, family, h, nil, LeafZone)
	}()
	return func() {
		h.Unlock()
		<-done
	}
}

// waitInFlight waits until n collections are in flight on z.
func waitInFlight(t *testing.T, z *ZoneRecorder, n int) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for {
		z.statsMu.Lock()
		got := z.active
		z.statsMu.Unlock()
		if got == n {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("in flight = %d, want %d", got, n)
		}
		time.Sleep(100 * time.Microsecond)
	}
}

func TestZoneSchedulerDisjointZonesOverlap(t *testing.T) {
	root := heap.NewRoot()
	a, b := heap.NewChild(root), heap.NewChild(root)
	defer heap.FreeChunkList(a.TakeChunks())
	defer heap.FreeChunkList(b.TakeChunks())
	live := buildList(b, 40)
	z := NewZoneRecorder()

	finishA := heldCollect(z, a, 0)
	waitInFlight(t, z, 1)
	// The sibling's collection runs to completion while a's is in flight.
	z.Collect(nil, 0, b, []*mem.ObjPtr{&live}, LeafZone)
	checkList(t, live, 40, b)
	if st := z.Snapshot(); st.Zones != 1 {
		t.Fatalf("Zones = %d while a's write lock is held, want 1", st.Zones)
	}
	finishA()

	st := z.Snapshot()
	if st.Zones != 2 || st.MaxConcurrent != 2 {
		t.Fatalf("Zones = %d, MaxConcurrent = %d, want 2 and 2", st.Zones, st.MaxConcurrent)
	}
	if st.OverlapNanos <= 0 {
		t.Fatal("overlapping zones recorded no overlap time")
	}
}

// A zone heap's write lock is the second line of defense: two collections
// of one heap, which only a leaked pointer could cause, take turns instead
// of copying the same objects at once.
func TestZoneSchedulerSerializesSharedHeap(t *testing.T) {
	h := heap.NewRoot()
	defer heap.FreeChunkList(h.TakeChunks())
	live := buildList(h, 200)
	z := NewZoneRecorder()

	h.Lock(heap.WRITE)
	var wg sync.WaitGroup
	var copied [2]int64
	for i := range copied {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			copied[i] = z.Collect(nil, 0, h, []*mem.ObjPtr{&live}, LeafZone).ObjectsCopied
		}(i)
	}
	waitInFlight(t, z, 2)
	if st := z.Snapshot(); st.Zones != 0 {
		t.Fatalf("%d collections finished while the heap was write-locked", st.Zones)
	}
	h.Unlock()
	wg.Wait()

	checkList(t, live, 200, h)
	if copied != [2]int64{200, 200} {
		t.Fatalf("objects copied = %v, want 200 by each collection", copied)
	}
}

func TestCollectZoneCollectsAndCounts(t *testing.T) {
	h := heap.NewRoot()
	defer heap.FreeChunkList(h.TakeChunks())
	live := buildList(h, 40)
	for i := 0; i < 500; i++ {
		h.FreshObj(0, 8, mem.TagTuple) // garbage
	}

	z := NewZoneRecorder()
	stats := z.Collect(nil, 0, h, []*mem.ObjPtr{&live}, LeafZone)

	checkList(t, live, 40, h)
	if stats.ObjectsCopied != 40 {
		t.Fatalf("copied %d objects, want 40", stats.ObjectsCopied)
	}
	zs := z.Snapshot()
	if zs.Zones != 1 || zs.LeafZones != 1 || zs.JoinZones != 0 {
		t.Fatalf("zone counts = %+v", zs)
	}
	if zs.WordsCopied != stats.WordsCopied || zs.WordsCopied == 0 {
		t.Fatalf("WordsCopied = %d, want %d", zs.WordsCopied, stats.WordsCopied)
	}
	if zs.ZoneNanos <= 0 {
		t.Fatal("no zone time recorded")
	}
	if zs.MaxConcurrent != 1 || zs.OverlapNanos != 0 {
		t.Fatalf("a lone zone recorded concurrency: %+v", zs)
	}

	z.Collect(nil, 0, h, []*mem.ObjPtr{&live}, JoinZone)
	if zs := z.Snapshot(); zs.JoinZones != 1 || zs.Zones != 2 {
		t.Fatalf("join zone not counted: %+v", zs)
	}
}

func TestCollectZoneTakesWriteLocks(t *testing.T) {
	h := heap.NewRoot()
	defer heap.FreeChunkList(h.TakeChunks())
	live := buildList(h, 5)
	before := h.LockStats().WriteAcquires

	NewZoneRecorder().Collect(nil, 0, h, []*mem.ObjPtr{&live}, LeafZone)

	if after := h.LockStats().WriteAcquires; after != before+1 {
		t.Fatalf("write acquires %d -> %d, want one zone write lock", before, after)
	}
}

func TestZoneSchedulerTracksSessionFamilies(t *testing.T) {
	root := heap.NewRoot()
	a, b, c := heap.NewChild(root), heap.NewChild(root), heap.NewChild(root)
	for _, h := range []*heap.Heap{a, b, c} {
		defer heap.FreeChunkList(h.TakeChunks())
	}
	z := NewZoneRecorder()

	// Two zones of DISTINCT sessions in flight: distinct-session peak is 2.
	finishA := heldCollect(z, a, 7)
	finishB := heldCollect(z, b, 9)
	waitInFlight(t, z, 2)
	// A second zone of an already-collecting session must not raise it.
	z.Collect(nil, 7, c, nil, LeafZone)
	finishB()
	finishA()

	// An untagged zone never counts as a session.
	z.Collect(nil, 0, a, nil, LeafZone)

	st := z.Snapshot()
	if st.MaxConcurrentSessions != 2 {
		t.Fatalf("MaxConcurrentSessions = %d, want 2", st.MaxConcurrentSessions)
	}
	if st.MaxConcurrent != 3 {
		t.Fatalf("MaxConcurrent = %d, want 3", st.MaxConcurrent)
	}
	if st.SessionZones != 3 {
		t.Fatalf("SessionZones = %d, want 3", st.SessionZones)
	}
}

func TestCollectSessionZoneCounts(t *testing.T) {
	h := heap.NewRoot()
	defer heap.FreeChunkList(h.TakeChunks())
	live := buildList(h, 8)

	z := NewZoneRecorder()
	z.Collect(nil, 42, h, []*mem.ObjPtr{&live}, LeafZone)
	z.Collect(nil, 0, h, []*mem.ObjPtr{&live}, LeafZone)

	zs := z.Snapshot()
	if zs.SessionZones != 1 {
		t.Fatalf("SessionZones = %d, want 1", zs.SessionZones)
	}
	if zs.Zones != 2 {
		t.Fatalf("Zones = %d, want 2", zs.Zones)
	}
	checkList(t, live, 8, h)
}
