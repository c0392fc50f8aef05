package core

import (
	"sync"
	"testing"

	"repro/internal/heap"
	"repro/internal/mem"
)

// buildChain allocates a k-cell chain in h (cell i holds value base+i and
// links to cell i-1) and returns the cells, oldest first.
func buildChain(h *heap.Heap, ops *Counters, k int, base uint64) []mem.ObjPtr {
	cells := make([]mem.ObjPtr, k)
	prev := mem.NilPtr
	for i := 0; i < k; i++ {
		c := Alloc(nil, h, ops, 1, 1, mem.TagCons)
		WriteInitWord(ops, c, 0, base+uint64(i))
		WriteInitPtr(ops, c, 0, prev)
		cells[i] = c
		prev = c
	}
	return cells
}

// TestAncestorFastPathNeverLosesToPromotion is the race-clean invariant
// behind the optimistic ancestor-pointee write: while one task promotes an
// object (installing its forwarding pointer and copying the body), another
// task writes a root value into a field of the same object through the
// lock-free fast path. Whatever the interleaving, the master copy must end
// up holding the written value — either the promotion's copy phase
// observed the optimistic store, or the writer observed the forwarding
// pointer and redid the write on the master. Run under -race.
func TestAncestorFastPathNeverLosesToPromotion(t *testing.T) {
	for iter := 0; iter < 200; iter++ {
		root := heap.NewRoot()
		child := heap.NewChild(root)
		writerHeap := heap.NewChild(child)
		var setup Counters
		cell := Alloc(nil, root, &setup, 1, 0, mem.TagRef)
		obj := Alloc(nil, child, &setup, 1, 0, mem.TagRef)
		val := Alloc(nil, root, &setup, 0, 1, mem.TagRef)

		var wg sync.WaitGroup
		wg.Add(2)
		go func() { // promoter: publishes obj, forcing its promotion to root
			defer wg.Done()
			var ops Counters
			WritePtr(nil, child, nil, &ops, cell, 0, obj)
		}()
		go func() { // optimistic writer racing the promotion
			defer wg.Done()
			var ops Counters
			// val is at the root: depth(obj's heap) >= depth(val's heap),
			// the ancestor fast path. The writer runs one level below obj's
			// heap; from child itself this would be the LOCAL fast path,
			// which rightly assumes nobody promotes out of the writer's own
			// leaf and does not re-check (the test used to do that, and
			// lost the update about once in 500 runs).
			WritePtr(nil, writerHeap, nil, &ops, obj, 0, val)
		}()
		wg.Wait()

		var ops Counters
		m, h := FindMaster(&ops, obj)
		got := mem.LoadPtrFieldAtomic(m, 0)
		h.Unlock()
		if got != val {
			t.Fatalf("iter %d: update lost: master field %v, want %v", iter, got, val)
		}
		if err := CheckSubtree(root, child); err != nil {
			t.Fatal(err)
		}
		freeAll(root, child)
	}
}

// TestConcurrentPromotionsIntoDisjointSlots races sibling tasks
// publishing chains record by record into disjoint slot ranges of one
// shared root array: the climbs contend on the root heap's write lock, and
// every slot must come out promoted and intact, with each record's link to
// its predecessor resolving to the predecessor's promoted copy (a record
// promoted by an earlier write is reused, not copied again). Run under
// -race.
func TestConcurrentPromotionsIntoDisjointSlots(t *testing.T) {
	const siblings = 4
	const perSibling = 16
	const rounds = 20

	root := heap.NewRoot()
	defer freeAll(root)
	var setup Counters
	arr := Alloc(nil, root, &setup, siblings*perSibling, 0, mem.TagArrPtr)

	children := make([]*heap.Heap, siblings)
	for i := range children {
		children[i] = heap.NewChild(root)
	}
	defer freeAll(children...)

	var wg sync.WaitGroup
	opsPer := make([]Counters, siblings)
	for s := 0; s < siblings; s++ {
		wg.Add(1)
		go func(s int) {
			defer wg.Done()
			ops := &opsPer[s]
			var buf PromoteBuf
			for r := 0; r < rounds; r++ {
				cells := buildChain(children[s], ops, perSibling, uint64(s*1000))
				for i, c := range cells {
					WritePtr(nil, children[s], &buf, ops, arr, s*perSibling+i, c)
				}
			}
		}(s)
	}
	wg.Wait()

	var total Counters
	total.Add(&setup)
	for i := range opsPer {
		total.Add(&opsPer[i])
	}
	want := int64(siblings * perSibling * rounds)
	if total.WritePtrProm != want || total.PromotedObjects != want {
		t.Fatalf("promotions %d, objects copied %d; want %d each",
			total.WritePtrProm, total.PromotedObjects, want)
	}
	var ops Counters
	for s := 0; s < siblings; s++ {
		for i := 0; i < perSibling; i++ {
			got := ReadMutPtr(&ops, arr, s*perSibling+i)
			if heap.Of(got) != root {
				t.Fatalf("slot %d/%d not at root", s, i)
			}
			if v := ReadImmWord(&ops, got, 0); v != uint64(s*1000+i) {
				t.Fatalf("slot %d/%d value %d", s, i, v)
			}
			if i > 0 && ReadImmPtr(&ops, got, 0) != ReadMutPtr(&ops, arr, s*perSibling+i-1) {
				t.Fatalf("slot %d/%d lost its shared link", s, i)
			}
		}
	}
	if err := CheckSubtree(append([]*heap.Heap{root}, children...)...); err != nil {
		t.Fatal(err)
	}
}
