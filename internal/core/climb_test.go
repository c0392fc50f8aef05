package core

import (
	"fmt"
	"sort"
	"sync"
	"testing"

	"repro/internal/heap"
	"repro/internal/mem"
	"repro/internal/trace"
)

// chain builds a root path of levels+1 heaps and returns it top first.
func chain(levels int) []*heap.Heap {
	path := []*heap.Heap{heap.NewRoot()}
	for i := 0; i < levels; i++ {
		path = append(path, heap.NewChild(path[i]))
	}
	return path
}

// TestPromotingWriteToStaleMaster replays, step by step, the window the
// lock-free entry to a climb leaves open: the writer walks obj's forwarding
// chain, finds obj itself, and before it locks anything another task
// promotes obj higher. The climb must notice once it holds obj's old heap,
// extend its path to the new master's heap, and store there.
func TestPromotingWriteToStaleMaster(t *testing.T) {
	root, child, grand := hierarchy()
	defer freeAll(root, child, grand)
	var ops Counters
	cell := Alloc(nil, root, &ops, 1, 0, mem.TagRef)
	obj := Alloc(nil, child, &ops, 1, 0, mem.TagRef)
	val := Alloc(nil, grand, &ops, 0, 1, mem.TagRef)
	WriteInitWord(&ops, val, 0, 77)

	stale := chaseFwd(obj)                        // the writer's unlocked walk
	WritePtr(nil, grand, nil, &ops, cell, 0, obj) // the other task promotes obj to root
	if !mem.HasFwd(stale) {
		t.Fatal("setup: obj was not promoted")
	}
	before := ops.ClimbLockedHeaps
	writePromote(nil, nil, &ops, stale, 0, val)

	master := chaseFwd(obj)
	if heap.Of(master) != root || ReadMutPtr(&ops, cell, 0) != master {
		t.Fatalf("master %v is not the root copy the cell holds", master)
	}
	got := mem.LoadPtrFieldAtomic(master, 0)
	if got.IsNil() || heap.Of(got) != root || mem.LoadWordField(got, 0) != 77 {
		t.Fatalf("store did not reach the master as a root-level copy: %v", got)
	}
	if locked := ops.ClimbLockedHeaps - before; locked != 3 {
		t.Fatalf("climb locked %d heaps, want the extended path grand, child, root", locked)
	}
	if err := CheckSubtree(root, child, grand); err != nil {
		t.Fatal(err)
	}
}

// TestRacingPromotionOfWriteTarget runs the same window for real: two tasks
// each write a fresh local object into their own field of obj while a third
// promotes obj itself from the middle of the hierarchy to the root. However
// the three interleave, both stores must be found on the final master.
func TestRacingPromotionOfWriteTarget(t *testing.T) {
	root := heap.NewRoot()
	child := heap.NewChild(root)
	leaves := []*heap.Heap{heap.NewChild(child), heap.NewChild(child), heap.NewChild(child)}
	defer freeAll(append([]*heap.Heap{root, child}, leaves...)...)
	var setup Counters
	cell := Alloc(nil, root, &setup, 1, 0, mem.TagRef)

	for round := 0; round < 400; round++ {
		obj := Alloc(nil, child, &setup, 2, 0, mem.TagTuple)
		start := make(chan struct{})
		var wg sync.WaitGroup
		for w := 0; w < 2; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				var ops Counters
				val := Alloc(nil, leaves[w], &ops, 0, 1, mem.TagRef)
				WriteInitWord(&ops, val, 0, uint64(round*2+w))
				<-start
				WritePtr(nil, leaves[w], nil, &ops, obj, w, val)
			}(w)
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			var ops Counters
			<-start
			WritePtr(nil, leaves[2], nil, &ops, cell, 0, obj)
		}()
		close(start)
		wg.Wait()

		master := chaseFwd(obj)
		if heap.Of(master) != root {
			t.Fatalf("round %d: master still at depth %d", round, heap.Of(master).Depth())
		}
		for w := 0; w < 2; w++ {
			got := mem.LoadPtrFieldAtomic(master, w)
			if got.IsNil() || heap.Of(got) != root || mem.LoadWordField(got, 0) != uint64(round*2+w) {
				t.Fatalf("round %d: writer %d's store is not on the master: %v", round, w, got)
			}
		}
	}
	if err := CheckSubtree(append([]*heap.Heap{root, child}, leaves...)...); err != nil {
		t.Fatal(err)
	}
}

// TestAllocInToStaleMaster replays the window between AllocIn's unlocked
// walk and its lock: the walk finds the anchor in child, and before the
// allocation another task promotes the anchor to the root. The object is
// then born in child, one level too deep, and publishing it must promote
// it to the root master rather than leave a down-pointer.
func TestAllocInToStaleMaster(t *testing.T) {
	root, child, grand := hierarchy()
	defer freeAll(root, child, grand)
	var ops Counters
	cell := Alloc(nil, root, &ops, 1, 0, mem.TagRef)
	anchor := Alloc(nil, child, &ops, 1, 0, mem.TagRef)

	target := MasterHeap(anchor)                     // the allocator's walk
	WritePtr(nil, grand, nil, &ops, cell, 0, anchor) // the other task promotes anchor
	val := AllocIn(nil, target, &ops, 0, 1, mem.TagRef)
	WriteInitWord(&ops, val, 0, 77)
	if heap.Of(val) != child {
		t.Fatalf("AllocIn allocated in %v, want the heap the walk found", heap.Of(val))
	}
	before := ops.WritePtrProm
	WritePtr(nil, grand, nil, &ops, anchor, 0, val)
	if ops.WritePtrProm != before+1 {
		t.Fatalf("publishing into the promoted anchor made %d promotions, want 1", ops.WritePtrProm-before)
	}
	master := chaseFwd(anchor)
	got := mem.LoadPtrFieldAtomic(master, 0)
	if heap.Of(master) != root || got.IsNil() || heap.Of(got) != root || mem.LoadWordField(got, 0) != 77 {
		t.Fatalf("store did not reach the root master as a root-level copy: master %v, field %v", master, got)
	}
	if err := CheckSubtree(root, child, grand); err != nil {
		t.Fatal(err)
	}
}

// TestRacingPromotionOfAllocInAnchor runs that window for real: two tasks
// each allocate an object in the heap of obj's master and publish it into
// their own field of obj, while a third promotes obj from the middle of
// the hierarchy to the root. Whichever heap each object was born in, both
// stores must be found on the final master, disentangled.
func TestRacingPromotionOfAllocInAnchor(t *testing.T) {
	root := heap.NewRoot()
	child := heap.NewChild(root)
	leaves := []*heap.Heap{heap.NewChild(child), heap.NewChild(child), heap.NewChild(child)}
	defer freeAll(append([]*heap.Heap{root, child}, leaves...)...)
	var setup Counters
	cell := Alloc(nil, root, &setup, 1, 0, mem.TagRef)

	for round := 0; round < 400; round++ {
		obj := Alloc(nil, child, &setup, 2, 0, mem.TagTuple)
		start := make(chan struct{})
		var wg sync.WaitGroup
		for w := 0; w < 2; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				var ops Counters
				<-start
				val := AllocIn(nil, MasterHeap(obj), &ops, 0, 1, mem.TagRef)
				WriteInitWord(&ops, val, 0, uint64(round*2+w))
				WritePtr(nil, leaves[w], nil, &ops, obj, w, val)
			}(w)
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			var ops Counters
			<-start
			WritePtr(nil, leaves[2], nil, &ops, cell, 0, obj)
		}()
		close(start)
		wg.Wait()

		master := chaseFwd(obj)
		if heap.Of(master) != root {
			t.Fatalf("round %d: master still at depth %d", round, heap.Of(master).Depth())
		}
		for w := 0; w < 2; w++ {
			got := mem.LoadPtrFieldAtomic(master, w)
			if got.IsNil() || heap.Of(got) != root || mem.LoadWordField(got, 0) != uint64(round*2+w) {
				t.Fatalf("round %d: writer %d's store is not on the master: %v", round, w, got)
			}
		}
	}
	if err := CheckSubtree(append([]*heap.Heap{root, child}, leaves...)...); err != nil {
		t.Fatal(err)
	}
}

// climbs performs n identical promoting writes — a fresh one-word object
// from the bottom of path into a cell at its top — and returns the
// counters. The writes share one PromoteBuf, or with perClimb each gets a
// new one, as n tasks that climb once each would.
func climbs(path []*heap.Heap, n int, perClimb bool) Counters {
	var ops Counters
	buf := new(PromoteBuf)
	top, leaf := path[0], path[len(path)-1]
	cell := Alloc(nil, top, &ops, 1, 0, mem.TagRef)
	for i := 0; i < n; i++ {
		if perClimb {
			buf = new(PromoteBuf)
		}
		fresh := Alloc(nil, leaf, &ops, 0, 1, mem.TagRef)
		WritePtr(nil, leaf, buf, &ops, cell, 0, fresh)
	}
	return ops
}

// TestSampledPromoteNanos holds the untraced estimate of climb time (one
// climb in climbSample timed, charged climbSample times) against the exact
// figure the traced path keeps, for one buffer making many climbs and for
// many fresh buffers making one climb each (short tasks: each buffer's first
// window must be drawn from its own seed, or none of them is timed). The two
// figures are separate runs of the same climbs, so load from other processes
// can stretch either one; the bound applies to the median ratio over
// several pairs, run in alternating order.
func TestSampledPromoteNanos(t *testing.T) {
	const pairs = 9
	for _, tc := range []struct {
		name     string
		n        int
		perClimb bool
	}{{"one-buffer", 5000, false}, {"fresh-buffers", 1024, true}} {
		t.Run(tc.name, func(t *testing.T) {
			run := func(traced bool) Counters {
				path := chain(4)
				defer freeAll(path...)
				if traced {
					if !trace.Start(1, 1<<10) {
						t.Fatal("recorder already running")
					}
					defer trace.Stop()
				}
				return climbs(path, tc.n, tc.perClimb)
			}
			run(false) // warm the chunk pool so neither measured run pays for it
			ratios := make([]float64, pairs)
			for i := range ratios {
				var sampled, exact Counters
				if i%2 == 0 {
					sampled, exact = run(false), run(true)
				} else {
					exact, sampled = run(true), run(false)
				}
				if n := int64(tc.n); sampled.WritePtrProm != n || exact.WritePtrProm != n {
					t.Fatalf("climbs: sampled %d, exact %d, want %d", sampled.WritePtrProm, exact.WritePtrProm, n)
				}
				ratios[i] = float64(sampled.PromoteNanos) / float64(exact.PromoteNanos)
			}
			sort.Float64s(ratios)
			ratio := ratios[pairs/2]
			t.Logf("sampled/exact PromoteNanos over %d climbs, %d pairs: median %.2f, range %.2f-%.2f",
				tc.n, pairs, ratio, ratios[0], ratios[pairs-1])
			if ratio < 0.5 || ratio > 2 {
				t.Fatalf("median sampled/exact ratio %.2f is not within 2x", ratio)
			}
		})
	}

	// One full window is enough for a non-zero estimate; serve's latency
	// attribution relies on it for short requests.
	path := chain(1)
	defer freeAll(path...)
	if ops := climbs(path, climbSample, false); ops.PromoteNanos <= 0 {
		t.Fatalf("PromoteNanos = %d after %d climbs", ops.PromoteNanos, climbSample)
	}
}

// BenchmarkClimb measures one promoting write — allocate a one-word object
// at the bottom of a root path, write it into a cell depth levels up — so
// depth+1 heaps are locked, one object is copied, and the locks released.
func BenchmarkClimb(b *testing.B) {
	for _, depth := range []int{1, 5, 16} {
		b.Run(fmt.Sprintf("depth=%d", depth), func(b *testing.B) {
			const batch = 1 << 14 // climbs between chunk releases, untimed
			for done := 0; done < b.N; done += batch {
				b.StopTimer()
				path := chain(depth)
				n := b.N - done
				if n > batch {
					n = batch
				}
				b.StartTimer()
				climbs(path, n, false)
				b.StopTimer()
				freeAll(path...)
				b.StartTimer()
			}
		})
	}
}

// allocIns performs n born-in-place publishes from leaf: a one-word object
// allocated in the heap of cell's master, then written into cell — the
// AllocIn replacement for one climb of climbs.
func allocIns(leaf *heap.Heap, cell mem.ObjPtr, n int) {
	var ops Counters
	for i := 0; i < n; i++ {
		fresh := AllocIn(nil, MasterHeap(cell), &ops, 0, 1, mem.TagRef)
		WritePtr(nil, leaf, nil, &ops, cell, 0, fresh)
	}
}

// BenchmarkAllocIn measures one born-in-place publish into a cell five
// levels up (compare BenchmarkClimb/depth=5, which copies the object there
// instead): one write lock on the target, no copy. Contended runs two
// writers from sibling leaves into the same target heap, so ns/op is wall
// time per publish with both competing for its lock.
func BenchmarkAllocIn(b *testing.B) {
	const depth = 5
	for _, writers := range []int{1, 2} {
		name := "uncontended"
		if writers > 1 {
			name = "contended"
		}
		b.Run(name, func(b *testing.B) {
			const batch = 1 << 14 // publishes between chunk releases, untimed
			for done := 0; done < b.N; done += batch {
				b.StopTimer()
				path := chain(depth)
				leaves := []*heap.Heap{path[depth]}
				for len(leaves) < writers {
					leaves = append(leaves, heap.NewChild(path[depth-1]))
				}
				var ops Counters
				cell := Alloc(nil, path[0], &ops, 1, 0, mem.TagRef)
				n := min(b.N-done, batch)
				b.StartTimer()
				var wg sync.WaitGroup
				for w, leaf := range leaves {
					wg.Add(1)
					go func() {
						defer wg.Done()
						allocIns(leaf, cell, (n+w)/writers)
					}()
				}
				wg.Wait()
				b.StopTimer()
				freeAll(append(path, leaves[1:]...)...)
				b.StartTimer()
			}
		})
	}
}
