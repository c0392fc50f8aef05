package core

import (
	"testing"
	"time"

	"repro/internal/heap"
	"repro/internal/mem"
)

// hierarchy builds a root-child-grandchild chain for tests.
func hierarchy() (root, child, grand *heap.Heap) {
	root = heap.NewRoot()
	child = heap.NewChild(root)
	grand = heap.NewChild(child)
	return
}

func freeAll(hs ...*heap.Heap) {
	for _, h := range hs {
		if h.IsAlive() {
			heap.FreeChunkList(h.TakeChunks())
		}
	}
}

func TestAllocCounts(t *testing.T) {
	root := heap.NewRoot()
	defer freeAll(root)
	var ops Counters
	p := Alloc(nil, root, &ops, 1, 2, mem.TagTuple)
	if heap.Of(p) != root {
		t.Fatal("allocation must land in the current heap")
	}
	if ops.Allocs != 1 || ops.AllocWords != int64(mem.ObjectWords(1, 2)) {
		t.Fatalf("counters: %+v", ops)
	}
}

func TestReadImm(t *testing.T) {
	root := heap.NewRoot()
	defer freeAll(root)
	var ops Counters
	p := Alloc(nil, root, &ops, 1, 1, mem.TagTuple)
	q := Alloc(nil, root, &ops, 0, 1, mem.TagRef)
	WriteInitWord(&ops, p, 0, 42)
	WriteInitPtr(&ops, p, 0, q)
	if ReadImmWord(&ops, p, 0) != 42 || ReadImmPtr(&ops, p, 0) != q {
		t.Fatal("immutable read roundtrip failed")
	}
	if ops.ReadImm != 2 || ops.WriteInit != 2 {
		t.Fatalf("counters: %+v", ops)
	}
}

func TestFindMasterNoChain(t *testing.T) {
	root := heap.NewRoot()
	defer freeAll(root)
	var ops Counters
	p := Alloc(nil, root, &ops, 0, 1, mem.TagRef)
	m, h := FindMaster(&ops, p)
	if m != p || h != root {
		t.Fatal("master of unforwarded object is itself")
	}
	h.Unlock()
}

func TestFindMasterFollowsChain(t *testing.T) {
	root, child, grand := hierarchy()
	defer freeAll(root, child, grand)
	var ops Counters
	a := Alloc(nil, grand, &ops, 0, 1, mem.TagRef)
	b := Alloc(nil, child, &ops, 0, 1, mem.TagRef)
	c := Alloc(nil, root, &ops, 0, 1, mem.TagRef)
	mem.StoreFwd(a, b)
	mem.StoreFwd(b, c)
	m, h := FindMaster(&ops, a)
	if m != c || h != root {
		t.Fatalf("master = %v in %v, want %v in root", m, h, c)
	}
	h.Unlock()
}

func TestReadMutFastAndSlow(t *testing.T) {
	root, child, _ := hierarchy()
	defer freeAll(root, child)
	var ops Counters
	p := Alloc(nil, child, &ops, 0, 1, mem.TagRef)
	WriteNonptr(child, &ops, p, 0, 7)
	if ReadMutWord(&ops, p, 0) != 7 {
		t.Fatal("local mutable read failed")
	}
	if ops.ReadMutFast != 1 || ops.ReadMutSlow != 0 {
		t.Fatalf("fast path not taken: %+v", ops)
	}
	// Manually promote: master in root holds a different value.
	m := Alloc(nil, root, &ops, 0, 1, mem.TagRef)
	mem.StoreWordField(m, 0, 99)
	mem.StoreFwd(p, m)
	if ReadMutWord(&ops, p, 0) != 99 {
		t.Fatal("mutable read must come from the master copy")
	}
	if ops.ReadMutSlow != 1 {
		t.Fatalf("slow path not taken: %+v", ops)
	}
}

func TestWriteNonptrUpdatesMaster(t *testing.T) {
	root, child, _ := hierarchy()
	defer freeAll(root, child)
	var ops Counters
	p := Alloc(nil, child, &ops, 0, 1, mem.TagRef)
	m := Alloc(nil, root, &ops, 0, 1, mem.TagRef)
	mem.StoreFwd(p, m)
	WriteNonptr(child, &ops, p, 0, 123)
	if mem.LoadWordField(m, 0) != 123 {
		t.Fatal("write must reach the master copy")
	}
	if ops.WriteNonptrSlow != 1 {
		t.Fatalf("slow path not counted: %+v", ops)
	}
}

func TestCASWord(t *testing.T) {
	root, child, _ := hierarchy()
	defer freeAll(root, child)
	var ops Counters
	p := Alloc(nil, root, &ops, 0, 1, mem.TagRef)
	if !CASWord(&ops, p, 0, 0, 5) {
		t.Fatal("CAS from zero must succeed")
	}
	if CASWord(&ops, p, 0, 0, 6) {
		t.Fatal("stale CAS must fail")
	}
	if ops.CASFast != 2 || ops.CASSlow != 0 {
		t.Fatalf("counters: %+v", ops)
	}
	// Promoted object: CAS settles on the master.
	q := Alloc(nil, child, &ops, 0, 1, mem.TagRef)
	m := Alloc(nil, root, &ops, 0, 1, mem.TagRef)
	mem.StoreWordField(m, 0, 10)
	mem.StoreFwd(q, m)
	if !CASWord(&ops, q, 0, 10, 11) || mem.LoadWordField(m, 0) != 11 {
		t.Fatal("CAS must apply to the master copy")
	}
	if ops.CASSlow != 1 {
		t.Fatalf("slow CAS not counted: %+v", ops)
	}
}

func TestWritePtrFastPathLocal(t *testing.T) {
	root, child, _ := hierarchy()
	defer freeAll(root, child)
	var ops Counters
	obj := Alloc(nil, child, &ops, 1, 0, mem.TagRef)
	val := Alloc(nil, child, &ops, 0, 1, mem.TagRef)
	WritePtr(nil, child, nil, &ops, obj, 0, val)
	if mem.LoadPtrFieldAtomic(obj, 0) != val {
		t.Fatal("local pointer write failed")
	}
	if ops.WritePtrFast != 1 || ops.Promotions != 0 {
		t.Fatalf("fast path not taken: %+v", ops)
	}
}

func TestWritePtrAncestorPointeeFastPath(t *testing.T) {
	// Writing an ancestor's pointer into a deeper object cannot entangle:
	// the optimistic fast path stores without touching any heap lock, so it
	// completes while something else holds the object's heap exclusively.
	root, child, _ := hierarchy()
	defer freeAll(root, child)
	var ops Counters
	obj := Alloc(nil, child, &ops, 1, 0, mem.TagRef) // deep object
	val := Alloc(nil, root, &ops, 0, 1, mem.TagRef)  // shallow value

	child.Lock(heap.WRITE)
	wrote := make(chan struct{})
	go func() {
		defer close(wrote)
		// Write from a context whose current heap is not child's: not local.
		WritePtr(nil, root, nil, &ops, obj, 0, val)
	}()
	select {
	case <-wrote:
		child.Unlock()
	case <-time.After(10 * time.Second):
		child.Unlock()
		<-wrote
		t.Fatal("fast path waited for the heap lock")
	}

	if mem.LoadPtrFieldAtomic(obj, 0) != val {
		t.Fatal("distant pointer write failed")
	}
	if ops.WritePtrAncestor != 1 || ops.WritePtrNonProm != 0 || ops.Promotions != 0 {
		t.Fatalf("want ancestor fast path: %+v", ops)
	}
}

func TestWritePtrNilNeverPromotes(t *testing.T) {
	root, child, _ := hierarchy()
	defer freeAll(root, child)
	var ops Counters
	obj := Alloc(nil, root, &ops, 1, 0, mem.TagRef)
	WritePtr(nil, child, nil, &ops, obj, 0, mem.NilPtr)
	if ops.Promotions != 0 || ops.WritePtrAncestor != 1 {
		t.Fatalf("nil write must not promote: %+v", ops)
	}
}

func TestWritePtrForwardedObjectGoesSlow(t *testing.T) {
	// A forwarded object defeats the optimistic fast path: the write is
	// redone on the master through FindMaster (WritePtrNonProm class).
	root, child, _ := hierarchy()
	defer freeAll(root, child)
	var ops Counters
	obj := Alloc(nil, child, &ops, 1, 0, mem.TagRef)
	master := Alloc(nil, root, &ops, 1, 0, mem.TagRef)
	mem.StoreFwd(obj, master)
	val := Alloc(nil, root, &ops, 0, 1, mem.TagRef)
	WritePtr(nil, root, nil, &ops, obj, 0, val)
	if mem.LoadPtrFieldAtomic(master, 0) != val {
		t.Fatal("write must land on the master copy")
	}
	if ops.WritePtrNonProm != 1 || ops.WritePtrAncestor != 0 {
		t.Fatalf("want FindMaster slow path: %+v", ops)
	}
}

func TestWritePtrPromotes(t *testing.T) {
	root, child, _ := hierarchy()
	defer freeAll(root, child)
	var ops Counters
	cell := Alloc(nil, root, &ops, 1, 0, mem.TagRef) // mutable cell at the root
	local := Alloc(nil, child, &ops, 0, 1, mem.TagRef)
	WriteInitWord(&ops, local, 0, 77)

	WritePtr(nil, child, nil, &ops, cell, 0, local)

	got := ReadMutPtr(&ops, cell, 0)
	if got.IsNil() || got == local {
		t.Fatal("cell must hold a promoted copy, not the original")
	}
	if heap.Of(got) != root {
		t.Fatalf("promoted copy must live in the root heap, got %v", heap.Of(got))
	}
	if mem.LoadWordField(got, 0) != 77 {
		t.Fatal("promoted copy must carry the value")
	}
	if mem.LoadFwd(local) != got {
		t.Fatal("original must forward to the promoted copy")
	}
	if ops.WritePtrProm != 1 || ops.Promotions != 1 || ops.PromotedObjects != 1 {
		t.Fatalf("counters: %+v", ops)
	}
	if err := CheckSubtree(root, child); err != nil {
		t.Fatal(err)
	}
}

func TestPromotionIsTransitive(t *testing.T) {
	// A linked list allocated in the leaf is promoted wholesale.
	root, child, grand := hierarchy()
	defer freeAll(root, child, grand)
	var ops Counters
	cell := Alloc(nil, root, &ops, 1, 0, mem.TagRef)

	const n = 20
	list := mem.NilPtr
	for i := n - 1; i >= 0; i-- {
		cons := Alloc(nil, grand, &ops, 1, 1, mem.TagCons)
		WriteInitWord(&ops, cons, 0, uint64(i))
		WriteInitPtr(&ops, cons, 0, list)
		list = cons
	}

	WritePtr(nil, grand, nil, &ops, cell, 0, list)

	if ops.PromotedObjects != n {
		t.Fatalf("promoted %d objects, want %d", ops.PromotedObjects, n)
	}
	// Walk the promoted list: every cell must be in root with intact values.
	p := ReadMutPtr(&ops, cell, 0)
	for i := 0; i < n; i++ {
		if p.IsNil() {
			t.Fatalf("list truncated at %d", i)
		}
		if heap.Of(p) != root {
			t.Fatalf("promoted cons %d is in %v, want root", i, heap.Of(p))
		}
		if mem.LoadWordField(p, 0) != uint64(i) {
			t.Fatalf("cons %d carries %d", i, mem.LoadWordField(p, 0))
		}
		p = ReadImmPtr(&ops, p, 0)
	}
	if !p.IsNil() {
		t.Fatal("promoted list too long")
	}
	if err := CheckSubtree(root, child, grand); err != nil {
		t.Fatal(err)
	}
}

func TestPromotionSharesAlreadyPromoted(t *testing.T) {
	// Promoting twice must not duplicate: the second promotion follows the
	// forwarding pointer installed by the first.
	root, child, _ := hierarchy()
	defer freeAll(root, child)
	var ops Counters
	cellA := Alloc(nil, root, &ops, 1, 0, mem.TagRef)
	cellB := Alloc(nil, root, &ops, 1, 0, mem.TagRef)
	local := Alloc(nil, child, &ops, 0, 1, mem.TagRef)

	WritePtr(nil, child, nil, &ops, cellA, 0, local)
	first := ReadMutPtr(&ops, cellA, 0)
	WritePtr(nil, child, nil, &ops, cellB, 0, local)
	second := ReadMutPtr(&ops, cellB, 0)

	if first != second {
		t.Fatal("second promotion must reuse the first copy")
	}
	if ops.PromotedObjects != 1 {
		t.Fatalf("object copied %d times, want 1", ops.PromotedObjects)
	}
}

func TestPromotionStopsAtTargetDepth(t *testing.T) {
	// Objects reachable from the pointee that already live at or above the
	// target are not copied.
	root, child, _ := hierarchy()
	defer freeAll(root, child)
	var ops Counters
	cell := Alloc(nil, root, &ops, 1, 0, mem.TagRef)
	shallow := Alloc(nil, root, &ops, 0, 1, mem.TagRef)
	WriteInitWord(&ops, shallow, 0, 5)
	pair := Alloc(nil, child, &ops, 1, 0, mem.TagTuple)
	WriteInitPtr(&ops, pair, 0, shallow)

	WritePtr(nil, child, nil, &ops, cell, 0, pair)

	if ops.PromotedObjects != 1 {
		t.Fatalf("only the pair should be copied, got %d", ops.PromotedObjects)
	}
	promoted := ReadMutPtr(&ops, cell, 0)
	if mem.LoadPtrField(promoted, 0) != shallow {
		t.Fatal("promoted pair must reference the original shallow object")
	}
}

func TestPromotionOfCyclicGraph(t *testing.T) {
	// Mutable objects can form cycles; promotion must terminate and
	// preserve the cycle among the copies.
	root, child, _ := hierarchy()
	defer freeAll(root, child)
	var ops Counters
	cell := Alloc(nil, root, &ops, 1, 0, mem.TagRef)
	a := Alloc(nil, child, &ops, 1, 1, mem.TagTuple)
	b := Alloc(nil, child, &ops, 1, 1, mem.TagTuple)
	WriteInitWord(&ops, a, 0, 1)
	WriteInitWord(&ops, b, 0, 2)
	WriteInitPtr(&ops, a, 0, b)
	WriteInitPtr(&ops, b, 0, a)

	WritePtr(nil, child, nil, &ops, cell, 0, a)

	pa := ReadMutPtr(&ops, cell, 0)
	pb := mem.LoadPtrField(pa, 0)
	if mem.LoadWordField(pa, 0) != 1 || mem.LoadWordField(pb, 0) != 2 {
		t.Fatal("cycle values lost")
	}
	if mem.LoadPtrField(pb, 0) != pa {
		t.Fatal("cycle not preserved among copies")
	}
	if ops.PromotedObjects != 2 {
		t.Fatalf("cycle copied %d objects, want 2", ops.PromotedObjects)
	}
}

func TestRepeatedPromotionBuildsChain(t *testing.T) {
	// Writing the same object into cells at decreasing depth promotes it
	// repeatedly; the master is the shallowest copy and mutable accesses
	// see its state.
	root, child, grand := hierarchy()
	defer freeAll(root, child, grand)
	var ops Counters
	cellMid := Alloc(nil, child, &ops, 1, 0, mem.TagRef)
	cellTop := Alloc(nil, root, &ops, 1, 0, mem.TagRef)
	obj := Alloc(nil, grand, &ops, 0, 1, mem.TagRef)
	WriteInitWord(&ops, obj, 0, 1)

	WritePtr(nil, grand, nil, &ops, cellMid, 0, obj) // promote grand -> child
	WritePtr(nil, grand, nil, &ops, cellTop, 0, obj) // promote child -> root

	if ops.Promotions != 2 || ops.PromotedObjects != 2 {
		t.Fatalf("counters: %+v", ops)
	}
	m, h := FindMaster(&ops, obj)
	if h != root {
		t.Fatalf("master should be in root, got %v", h)
	}
	h.Unlock()

	WriteNonptr(grand, &ops, obj, 0, 42) // write through the original
	if ReadMutWord(&ops, m, 0) != 42 {
		t.Fatal("update did not reach master")
	}
	if ReadMutWord(&ops, obj, 0) != 42 {
		t.Fatal("read through original did not see master state")
	}
}

func TestCheckHeapDetectsEntanglement(t *testing.T) {
	root, child, _ := hierarchy()
	defer freeAll(root, child)
	var ops Counters
	cell := Alloc(nil, root, &ops, 1, 0, mem.TagRef)
	local := Alloc(nil, child, &ops, 0, 1, mem.TagRef)
	// Bypass WritePtr to forge a down-pointer.
	mem.StorePtrField(cell, 0, local)
	if err := CheckHeap(root); err == nil {
		t.Fatal("checker must flag the down-pointer")
	}
	// Repair through the legal path and re-check.
	WritePtr(nil, child, nil, &ops, cell, 0, local)
	if err := CheckSubtree(root, child); err != nil {
		t.Fatal(err)
	}
}

func TestIsAncestorOrSelf(t *testing.T) {
	root, child, grand := hierarchy()
	sib := heap.NewChild(root)
	defer freeAll(root, child, grand, sib)
	if !IsAncestorOrSelf(root, grand) || !IsAncestorOrSelf(child, grand) || !IsAncestorOrSelf(grand, grand) {
		t.Fatal("ancestor chain not recognized")
	}
	if IsAncestorOrSelf(grand, root) {
		t.Fatal("descendant is not an ancestor")
	}
	if IsAncestorOrSelf(sib, grand) || IsAncestorOrSelf(grand, sib) {
		t.Fatal("siblings are unrelated")
	}
}

func TestRepresentative(t *testing.T) {
	var pure Counters
	pure.ReadImm = 1000
	if got := pure.Representative(); got != "immutable reads" {
		t.Fatalf("pure: %q", got)
	}
	var local Counters
	local.WriteNonptrLocal = 500
	if got := local.Representative(); got != "local non-pointer writes" {
		t.Fatalf("local: %q", got)
	}
	var promo Counters
	promo.WriteNonptrSlow = 100
	promo.WritePtrProm = 90
	if got := promo.Representative(); got != "distant promoting writes" {
		t.Fatalf("promoting: %q", got)
	}
}
