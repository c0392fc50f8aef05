package core

import (
	"math/rand"
	"sync"
	"testing"
	"testing/quick"

	"repro/internal/heap"
	"repro/internal/mem"
)

// TestConcurrentPromotionsToSharedAncestor reproduces the paper's central
// race: sibling tasks repeatedly write locally allocated objects into
// mutable cells at the root, forcing concurrent promotions into the same
// heap, while other accesses chase master copies. Run under -race.
func TestConcurrentPromotionsToSharedAncestor(t *testing.T) {
	runConcurrentPromotions(t, func(cur *heap.Heap, ops *Counters, cell mem.ObjPtr, head mem.ObjPtr) {
		WritePtr(nil, cur, nil, ops, cell, 0, head)
	})
}

// TestConcurrentPromotionsSlowPathAblation runs the identical race with
// every write forced through the master-copy lookup (WritePtrSlow, the
// path WritePtr falls through to): the paper-faithful baseline must
// satisfy the same invariants as the fast-pathed barrier.
func TestConcurrentPromotionsSlowPathAblation(t *testing.T) {
	runConcurrentPromotions(t, func(cur *heap.Heap, ops *Counters, cell mem.ObjPtr, head mem.ObjPtr) {
		WritePtrSlow(nil, nil, ops, cell, 0, head)
	})
}

func runConcurrentPromotions(t *testing.T, writePtr func(cur *heap.Heap, ops *Counters, cell, head mem.ObjPtr)) {
	root := heap.NewRoot()
	defer freeAll(root)
	var setup Counters

	const siblings = 4
	const writes = 60

	cells := make([]mem.ObjPtr, siblings)
	for i := range cells {
		cells[i] = Alloc(nil, root, &setup, 1, 0, mem.TagRef)
	}

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
			cur := children[s]
			ops := &opsPer[s]
			for i := 0; i < writes; i++ {
				// Build a small local list and publish it through a root
				// cell; half the time through a sibling's cell to force
				// promotion contention on the same target heap.
				head := mem.NilPtr
				for j := 0; j < 3; j++ {
					cons := Alloc(nil, cur, ops, 1, 1, mem.TagCons)
					WriteInitWord(ops, cons, 0, uint64(s*1000+i))
					WriteInitPtr(ops, cons, 0, head)
					head = cons
				}
				cell := cells[(s+i)%siblings]
				writePtr(cur, ops, cell, head)

				// Read some other cell through the master discipline.
				got := ReadMutPtr(ops, cells[(s+i+1)%siblings], 0)
				if !got.IsNil() {
					if heap.Of(got).Depth() != 0 {
						t.Error("cell exposed an unpromoted object")
						return
					}
					_ = ReadImmWord(ops, got, 0)
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
	if total.WritePtrProm != siblings*writes {
		t.Fatalf("promotions = %d, want %d", total.WritePtrProm, siblings*writes)
	}
	if err := CheckSubtree(append([]*heap.Heap{root}, children...)...); err != nil {
		t.Fatal(err)
	}
	// Every published list must be fully promoted and intact.
	var ops Counters
	for _, cell := range cells {
		p := ReadMutPtr(&ops, cell, 0)
		n := 0
		for !p.IsNil() {
			if heap.Of(p) != root {
				t.Fatal("published list node below root")
			}
			p = ReadImmPtr(&ops, p, 0)
			n++
		}
		if n != 0 && n != 3 {
			t.Fatalf("published list length %d, want 0 or 3", n)
		}
	}
}

// TestConcurrentWritesDuringPromotion checks the optimistic
// write-then-recheck protocol: a writer updating a non-pointer field while
// another task promotes the object must never lose the update.
func TestConcurrentWritesDuringPromotion(t *testing.T) {
	for iter := 0; iter < 50; iter++ {
		root := heap.NewRoot()
		child := heap.NewChild(root)
		var setup Counters
		cell := Alloc(nil, root, &setup, 1, 0, mem.TagRef)
		obj := Alloc(nil, child, &setup, 0, 1, mem.TagRef)
		WriteInitWord(&setup, obj, 0, 1)

		var wg sync.WaitGroup
		wg.Add(2)
		go func() { // promoter (the child task publishing its object)
			defer wg.Done()
			var ops Counters
			WritePtr(nil, child, nil, &ops, cell, 0, obj)
		}()
		go func() { // writer racing the promotion through the old pointer
			defer wg.Done()
			var ops Counters
			WriteNonptr(child, &ops, obj, 0, 2)
		}()
		wg.Wait()

		var ops Counters
		if got := ReadMutWord(&ops, obj, 0); got != 2 {
			t.Fatalf("iter %d: update lost, master holds %d", iter, got)
		}
		freeAll(root, child)
	}
}

// randGraph builds a random object graph (possibly with sharing) of n
// tuples in h, returning the roots. Edges only point to already-created
// nodes, so the graph is acyclic; values are derived from the node index.
func randGraph(h *heap.Heap, ops *Counters, rng *rand.Rand, n int) []mem.ObjPtr {
	nodes := make([]mem.ObjPtr, n)
	for i := 0; i < n; i++ {
		deg := rng.Intn(3)
		if i == 0 {
			deg = 0
		}
		p := Alloc(nil, h, ops, deg, 1, mem.TagTuple)
		WriteInitWord(ops, p, 0, uint64(i)*2654435761)
		for j := 0; j < deg; j++ {
			WriteInitPtr(ops, p, j, nodes[rng.Intn(i)])
		}
		nodes[i] = p
	}
	return nodes
}

// graphChecksum folds values and shape over the reachable graph.
func graphChecksum(p mem.ObjPtr, seen map[uint64]int, order *int) uint64 {
	if p.IsNil() {
		return 11
	}
	if id, ok := seen[uint64(p)]; ok {
		return uint64(id)*31 + 7 // sharing-sensitive
	}
	*order++
	seen[uint64(p)] = *order
	sum := mem.LoadWordField(p, 0)
	for i, n := 0, mem.NumPtrFields(p); i < n; i++ {
		sum = sum*1099511628211 ^ graphChecksum(mem.LoadPtrField(p, i), seen, order)
	}
	return sum
}

// TestPromotionPreservesGraphs is the property test: promoting the root of
// a random object graph yields a copy with identical values, shape, and
// sharing structure, entirely at or above the target heap.
func TestPromotionPreservesGraphs(t *testing.T) {
	f := func(seed int64, sz uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		n := int(sz)%60 + 1
		root := heap.NewRoot()
		child := heap.NewChild(root)
		defer freeAll(root, child)
		var ops Counters
		nodes := randGraph(child, &ops, rng, n)
		top := nodes[len(nodes)-1]

		before := graphChecksum(top, map[uint64]int{}, new(int))

		cell := Alloc(nil, root, &ops, 1, 0, mem.TagRef)
		WritePtr(nil, child, nil, &ops, cell, 0, top)
		promoted := ReadMutPtr(&ops, cell, 0)

		after := graphChecksum(promoted, map[uint64]int{}, new(int))
		if before != after {
			t.Logf("checksum mismatch: %x vs %x", before, after)
			return false
		}
		// Verify everything reachable from the promoted root is in root's heap.
		var stack []mem.ObjPtr
		seen := map[mem.ObjPtr]bool{}
		stack = append(stack, promoted)
		for len(stack) > 0 {
			p := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			if p.IsNil() || seen[p] {
				continue
			}
			seen[p] = true
			if heap.Of(p) != root {
				t.Logf("promoted node %v not in root heap", p)
				return false
			}
			for i, deg := 0, mem.NumPtrFields(p); i < deg; i++ {
				stack = append(stack, mem.LoadPtrField(p, i))
			}
		}
		return CheckSubtree(root, child) == nil
	}
	cfg := &quick.Config{MaxCount: 40}
	if err := quick.Check(f, cfg); err != nil {
		t.Fatal(err)
	}
}
