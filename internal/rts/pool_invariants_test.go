package rts

import (
	"testing"

	"repro/internal/mem"
)

// TestPooledAllocatorAllModes runs a fork-heavy, collection-heavy workload
// in all four systems, checking that the recycling
// allocator actually recycled, that every chunk is handed back at Close
// (pooled slabs are unregistered, so ChunksInUse must return to its
// baseline), and that cross-mode results agree. Run under -race
// this is also the allocator's concurrency test: chunks migrate worker →
// cache → pool → other worker throughout.
func TestPooledAllocatorAllModes(t *testing.T) {
	base := mem.ChunksInUse()
	for _, mode := range allModes {
		before := mem.AllocSnapshot()
		r := New(testConfig(mode, 4))
		got := r.Run(func(task *Task) uint64 {
			root := buildTree(task, 8)
			return sumTree(task, root)
		})
		r.Close()
		al := mem.AllocSnapshot().Sub(before)
		if got != 256 {
			t.Fatalf("%v: tree sum = %d, want 256", mode, got)
		}
		if al.Acquires == 0 {
			t.Fatalf("%v: no chunk acquisitions went through the recycling allocator", mode)
		}
		if al.Recycles == 0 {
			// Close releases every heap through the recycle path even when
			// the run itself never collected.
			t.Fatalf("%v: no chunks were recycled across the run (%+v)", mode, al)
		}
		if got := mem.ChunksInUse(); got != base {
			t.Fatalf("%v: %d chunks in use after Close, want baseline %d", mode, got, base)
		}
	}
}

// TestWorkerCachesServeAllocations checks the tentpole's point: with warm
// caches, leaf-heap allocation is served worker-locally. After a couple of
// rounds the cache+pool hit rate must dominate fresh allocation.
func TestWorkerCachesServeAllocations(t *testing.T) {
	r := New(testConfig(ParMem, 4))
	defer r.Close()
	// Start from an empty process-global pool, so that slabs earlier tests
	// parked there do not count as this test's recycling.
	mem.DrainChunkPool()
	before := r.Stats().Alloc
	for round := 0; round < 6; round++ {
		res, err := r.Submit(SessionOpts{}, func(task *Task) uint64 {
			root := buildTree(task, 8)
			return sumTree(task, root)
		}).Wait()
		if err != nil || res != 256 {
			t.Fatalf("round %d: res=%d err=%v", round, res, err)
		}
	}
	al := r.Stats().Alloc.Sub(before)
	if al.CacheHits == 0 {
		t.Fatalf("worker caches never served an acquisition: %+v", al)
	}
	if al.RecycleRate() < 0.5 {
		t.Fatalf("recycle rate %.2f, want >= 0.5 once warm (%+v)", al.RecycleRate(), al)
	}
}

// TestChunksReturnToBaselineAfterSessionsWithPooling is the serving-layer
// leak check with pooling on: after every unpinned session completes, the
// wholesale releases route through caches and pool, yet registered-chunk
// occupancy must return to the pre-traffic baseline (parked slabs are
// unregistered and bounded).
func TestChunksReturnToBaselineAfterSessionsWithPooling(t *testing.T) {
	for _, mode := range []Mode{ParMem, Seq} {
		r := New(testConfig(mode, 4))
		base := mem.ChunksInUse()
		sessions := make([]*Session, 0, 16)
		for i := 0; i < 16; i++ {
			sessions = append(sessions, r.Submit(SessionOpts{}, func(task *Task) uint64 {
				root := buildTree(task, 6)
				return sumTree(task, root)
			}))
		}
		for _, s := range sessions {
			if res, err := s.Wait(); err != nil || res != 64 {
				t.Fatalf("%v: session res=%d err=%v", mode, res, err)
			}
		}
		if got := mem.ChunksInUse(); got != base {
			t.Fatalf("%v: %d chunks in use after sessions drained, want baseline %d", mode, got, base)
		}
		r.Close()
	}
}
