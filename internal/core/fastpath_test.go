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

// TestWritePtrBatchSharedClimb checks the promote buffer's amortization:
// publishing k chained records into a root array with one WritePtrBatch
// costs ONE lock climb, and the chain links mean each record is copied
// exactly once even though every batch entry reaches the whole tail.
func TestWritePtrBatchSharedClimb(t *testing.T) {
	root, child, _ := hierarchy()
	defer freeAll(root, child)
	const k = 8
	var ops Counters
	arr := Alloc(nil, root, &ops, k, 0, mem.TagArrPtr)
	cells := buildChain(child, &ops, k, 100)

	buf := NewPromoteBuf(0) // default capacity (32) — one flush
	WritePtrBatch(nil, child, buf, &ops, arr, 0, cells)

	if ops.WritePtrProm != k || ops.Promotions != k || ops.WritePtrBatched != k {
		t.Fatalf("batch counters: %+v", ops)
	}
	if ops.PromoteClimbs != 1 {
		t.Fatalf("want one shared climb, got %d", ops.PromoteClimbs)
	}
	if ops.ClimbLockedHeaps != 2 { // child + root
		t.Fatalf("locked-path length %d, want 2", ops.ClimbLockedHeaps)
	}
	if ops.PromotedObjects != k {
		t.Fatalf("chain members copied %d times, want %d (shared tail copied once)",
			ops.PromotedObjects, k)
	}
	for i := 0; i < k; i++ {
		got := ReadMutPtr(&ops, arr, i)
		if heap.Of(got) != root {
			t.Fatalf("slot %d not promoted to root", i)
		}
		if v := ReadImmWord(&ops, got, 0); v != 100+uint64(i) {
			t.Fatalf("slot %d value %d, want %d", i, v, 100+i)
		}
	}
	// Sharing preserved: slot i's link must be slot i-1's record.
	for i := 1; i < k; i++ {
		if ReadImmPtr(&ops, ReadMutPtr(&ops, arr, i), 0) != ReadMutPtr(&ops, arr, i-1) {
			t.Fatalf("slot %d lost its shared link", i)
		}
	}
	if err := CheckSubtree(root, child); err != nil {
		t.Fatal(err)
	}
}

// TestWritePtrBatchCapOneEquivalent checks the batching ablation: capacity
// 1 degenerates to one climb per promoting write but produces the
// identical object graph.
func TestWritePtrBatchCapOneEquivalent(t *testing.T) {
	const k = 6
	run := func(capacity int) (Counters, []uint64) {
		root, child, _ := hierarchy()
		defer freeAll(root, child)
		var ops Counters
		arr := Alloc(nil, root, &ops, k, 0, mem.TagArrPtr)
		cells := buildChain(child, &ops, k, 500)
		WritePtrBatch(nil, child, NewPromoteBuf(capacity), &ops, arr, 0, cells)
		vals := make([]uint64, k)
		for i := range vals {
			vals[i] = ReadImmWord(&ops, ReadMutPtr(&ops, arr, i), 0)
		}
		if err := CheckSubtree(root, child); err != nil {
			t.Fatal(err)
		}
		return ops, vals
	}
	batched, bv := run(0)
	perObj, pv := run(1)
	if batched.PromoteClimbs != 1 || perObj.PromoteClimbs != k {
		t.Fatalf("climbs: batched %d, per-object %d (want 1 and %d)",
			batched.PromoteClimbs, perObj.PromoteClimbs, k)
	}
	if batched.PromotedObjects != perObj.PromotedObjects {
		t.Fatalf("copy volume differs: %d vs %d", batched.PromotedObjects, perObj.PromotedObjects)
	}
	for i := range bv {
		if bv[i] != pv[i] {
			t.Fatalf("slot %d: batched %d, per-object %d", i, bv[i], pv[i])
		}
	}
}

// TestWritePtrBatchMixed drives a batch whose entries span every class:
// nil, already-shallow, and promoting pointees.
func TestWritePtrBatchMixed(t *testing.T) {
	root, child, _ := hierarchy()
	defer freeAll(root, child)
	var ops Counters
	arr := Alloc(nil, root, &ops, 3, 0, mem.TagArrPtr)
	shallow := Alloc(nil, root, &ops, 0, 1, mem.TagRef)
	deep := Alloc(nil, child, &ops, 0, 1, mem.TagRef)
	WriteInitWord(&ops, deep, 0, 9)

	WritePtrBatch(nil, child, NewPromoteBuf(0), &ops, arr, 0,
		[]mem.ObjPtr{mem.NilPtr, shallow, deep})

	if ops.WritePtrNonProm != 2 || ops.WritePtrProm != 1 || ops.WritePtrBatched != 0 {
		t.Fatalf("mixed batch counters: %+v", ops)
	}
	if !ReadMutPtr(&ops, arr, 0).IsNil() || ReadMutPtr(&ops, arr, 1) != shallow {
		t.Fatal("non-promoting entries mis-stored")
	}
	if got := ReadMutPtr(&ops, arr, 2); heap.Of(got) != root || ReadImmWord(&ops, got, 0) != 9 {
		t.Fatal("promoting entry not promoted correctly")
	}
	if err := CheckSubtree(root, child); err != nil {
		t.Fatal(err)
	}
}

// TestWritePtrBatchLocalFast checks that a batch into the current leaf
// heap is a pure fast-path store run.
func TestWritePtrBatchLocalFast(t *testing.T) {
	root, child, _ := hierarchy()
	defer freeAll(root, child)
	var ops Counters
	arr := Alloc(nil, child, &ops, 2, 0, mem.TagArrPtr)
	a := Alloc(nil, child, &ops, 0, 1, mem.TagRef)
	WritePtrBatch(nil, child, nil, &ops, arr, 0, []mem.ObjPtr{a, mem.NilPtr})
	if ops.WritePtrFast != 2 || ops.PromoteClimbs != 0 {
		t.Fatalf("local batch counters: %+v", ops)
	}
	if ReadMutPtr(&ops, arr, 0) != a || !ReadMutPtr(&ops, arr, 1).IsNil() {
		t.Fatal("local batch mis-stored")
	}
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

// TestConcurrentBatchPromotions races sibling tasks batch-publishing into
// disjoint slot ranges of one shared root array: the climbs contend on the
// root heap's write lock, and every slot must come out promoted and
// intact. Run under -race.
func TestConcurrentBatchPromotions(t *testing.T) {
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
			buf := NewPromoteBuf(0)
			for r := 0; r < rounds; r++ {
				cells := buildChain(children[s], ops, perSibling, uint64(s*1000))
				WritePtrBatch(nil, children[s], buf, ops, arr, s*perSibling, cells)
			}
		}(s)
	}
	wg.Wait()

	var total Counters
	total.Add(&setup)
	for i := range opsPer {
		total.Add(&opsPer[i])
	}
	if want := int64(siblings * perSibling * rounds); total.Promotions != want {
		t.Fatalf("promotions = %d, want %d", total.Promotions, want)
	}
	if total.PromoteClimbs >= total.Promotions {
		t.Fatalf("no climb sharing: %d climbs for %d promotions",
			total.PromoteClimbs, total.Promotions)
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
		}
	}
	if err := CheckSubtree(append([]*heap.Heap{root}, children...)...); err != nil {
		t.Fatal(err)
	}
}
