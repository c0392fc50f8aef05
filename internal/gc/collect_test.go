package gc

import (
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/heap"
	"repro/internal/mem"
)

// buildList allocates an n-cell list (value, next) in h, values i at cell i.
func buildList(h *heap.Heap, n int) mem.ObjPtr {
	head := mem.NilPtr
	for i := n - 1; i >= 0; i-- {
		cons := h.FreshObj(1, 1, mem.TagCons)
		mem.StoreWordField(cons, 0, uint64(i))
		mem.StorePtrField(cons, 0, head)
		head = cons
	}
	return head
}

func checkList(t *testing.T, head mem.ObjPtr, n int, want *heap.Heap) {
	t.Helper()
	p := head
	for i := 0; i < n; i++ {
		if p.IsNil() {
			t.Fatalf("list truncated at %d", i)
		}
		if got := mem.LoadWordField(p, 0); got != uint64(i) {
			t.Fatalf("cell %d holds %d", i, got)
		}
		if want != nil && heap.Of(p) != want {
			t.Fatalf("cell %d in heap %v, want %v", i, heap.Of(p), want)
		}
		p = mem.LoadPtrField(p, 0)
	}
	if !p.IsNil() {
		t.Fatal("list too long")
	}
}

func TestLeafCollectionPreservesLiveDropsGarbage(t *testing.T) {
	h := heap.NewRoot()
	defer heap.FreeChunkList(h.TakeChunks())

	live := buildList(h, 50)
	for i := 0; i < 1000; i++ { // garbage
		h.FreshObj(0, 8, mem.TagTuple)
	}
	usedBefore := h.UsedWords()

	stats := Collect([]*heap.Heap{h}, []*mem.ObjPtr{&live})

	checkList(t, live, 50, h)
	if stats.ObjectsCopied != 50 {
		t.Fatalf("copied %d objects, want 50", stats.ObjectsCopied)
	}
	if h.UsedWords() >= usedBefore {
		t.Fatal("collection did not shrink the heap")
	}
	if h.UsedWords() != int64(50*mem.ObjectWords(1, 1)) {
		t.Fatalf("live size %d", h.UsedWords())
	}
	if h.LiveWords != h.UsedWords() {
		t.Fatal("policy bookkeeping not reset")
	}
	if stats.WordsReclaimed <= 0 {
		t.Fatal("no space reclaimed")
	}
}

func TestCollectionUpdatesNilAndForeignRoots(t *testing.T) {
	root := heap.NewRoot()
	leaf := heap.NewChild(root)
	defer heap.FreeChunkList(root.TakeChunks())
	defer heap.FreeChunkList(leaf.TakeChunks())

	above := root.FreshObj(0, 1, mem.TagRef)
	mem.StoreWordField(above, 0, 9)
	var nilRoot mem.ObjPtr
	aboveRoot := above

	Collect([]*heap.Heap{leaf}, []*mem.ObjPtr{&nilRoot, &aboveRoot, nil})

	if !nilRoot.IsNil() {
		t.Fatal("nil root must stay nil")
	}
	if aboveRoot != above {
		t.Fatal("roots above the zone must not move")
	}
}

func TestCollectionSharesCopies(t *testing.T) {
	h := heap.NewRoot()
	defer heap.FreeChunkList(h.TakeChunks())
	shared := h.FreshObj(0, 1, mem.TagRef)
	mem.StoreWordField(shared, 0, 42)
	a := h.FreshObj(1, 0, mem.TagTuple)
	b := h.FreshObj(1, 0, mem.TagTuple)
	mem.StorePtrField(a, 0, shared)
	mem.StorePtrField(b, 0, shared)

	ra, rb := a, b
	stats := Collect([]*heap.Heap{h}, []*mem.ObjPtr{&ra, &rb})

	if stats.ObjectsCopied != 3 {
		t.Fatalf("copied %d, want 3 (sharing preserved)", stats.ObjectsCopied)
	}
	if mem.LoadPtrField(ra, 0) != mem.LoadPtrField(rb, 0) {
		t.Fatal("shared object duplicated by collection")
	}
	if mem.LoadWordField(mem.LoadPtrField(ra, 0), 0) != 42 {
		t.Fatal("shared value lost")
	}
}

func TestCollectionEliminatesPromotionDuplicates(t *testing.T) {
	// An object was promoted from the leaf to the root earlier: the leaf
	// copy has a forwarding pointer upward. Collecting the leaf must drop
	// the duplicate and redirect roots to the promoted copy (case 2).
	root := heap.NewRoot()
	leaf := heap.NewChild(root)
	defer heap.FreeChunkList(root.TakeChunks())
	defer heap.FreeChunkList(leaf.TakeChunks())

	old := leaf.FreshObj(0, 1, mem.TagRef)
	mem.StoreWordField(old, 0, 7)
	promotedCopy := root.FreshObj(0, 1, mem.TagRef)
	mem.StoreWordField(promotedCopy, 0, 7)
	mem.StoreFwd(old, promotedCopy)

	slot := old
	stats := Collect([]*heap.Heap{leaf}, []*mem.ObjPtr{&slot})

	if slot != promotedCopy {
		t.Fatal("root must be redirected to the promoted copy")
	}
	if stats.ObjectsCopied != 0 {
		t.Fatalf("duplicate was recopied (%d objects)", stats.ObjectsCopied)
	}
	if stats.DuplicatesMerged != 1 {
		t.Fatalf("DuplicatesMerged = %d, want 1", stats.DuplicatesMerged)
	}
	if leaf.UsedWords() != 0 {
		t.Fatalf("leaf still holds %d words", leaf.UsedWords())
	}
}

func TestCollectionFollowsInteriorPromotedPointers(t *testing.T) {
	// A live local object references a previously promoted neighbour: the
	// field must be redirected to the promoted copy during the scan.
	root := heap.NewRoot()
	leaf := heap.NewChild(root)
	defer heap.FreeChunkList(root.TakeChunks())
	defer heap.FreeChunkList(leaf.TakeChunks())

	promotedOld := leaf.FreshObj(0, 1, mem.TagRef)
	promotedNew := root.FreshObj(0, 1, mem.TagRef)
	mem.StoreWordField(promotedNew, 0, 13)
	mem.StoreFwd(promotedOld, promotedNew)

	holder := leaf.FreshObj(1, 0, mem.TagTuple)
	mem.StorePtrField(holder, 0, promotedOld)

	slot := holder
	Collect([]*heap.Heap{leaf}, []*mem.ObjPtr{&slot})

	if mem.LoadPtrField(slot, 0) != promotedNew {
		t.Fatal("interior pointer not redirected to the promoted copy")
	}
}

func TestCollectionPreservesCycles(t *testing.T) {
	h := heap.NewRoot()
	defer heap.FreeChunkList(h.TakeChunks())
	a := h.FreshObj(1, 1, mem.TagTuple)
	b := h.FreshObj(1, 1, mem.TagTuple)
	mem.StoreWordField(a, 0, 1)
	mem.StoreWordField(b, 0, 2)
	mem.StorePtrField(a, 0, b)
	mem.StorePtrField(b, 0, a)

	slot := a
	stats := Collect([]*heap.Heap{h}, []*mem.ObjPtr{&slot})
	if stats.ObjectsCopied != 2 {
		t.Fatalf("copied %d, want 2", stats.ObjectsCopied)
	}
	na := slot
	nb := mem.LoadPtrField(na, 0)
	if mem.LoadWordField(na, 0) != 1 || mem.LoadWordField(nb, 0) != 2 {
		t.Fatal("cycle values lost")
	}
	if mem.LoadPtrField(nb, 0) != na {
		t.Fatal("cycle broken")
	}
}

func TestSubtreeCollection(t *testing.T) {
	// Zone = parent + two children; pointers cross within the zone and out
	// of the zone into the root.
	root := heap.NewRoot()
	parent := heap.NewChild(root)
	c1 := heap.NewChild(parent)
	c2 := heap.NewChild(parent)
	defer func() {
		for _, h := range []*heap.Heap{root, parent, c1, c2} {
			if h.IsAlive() {
				heap.FreeChunkList(h.TakeChunks())
			}
		}
	}()

	globalVal := root.FreshObj(0, 1, mem.TagRef)
	mem.StoreWordField(globalVal, 0, 100)

	inParent := parent.FreshObj(0, 1, mem.TagRef)
	mem.StoreWordField(inParent, 0, 55)

	// c1: tuple -> (inParent, globalVal)
	t1 := c1.FreshObj(2, 1, mem.TagTuple)
	mem.StoreWordField(t1, 0, 11)
	mem.StorePtrField(t1, 0, inParent)
	mem.StorePtrField(t1, 1, globalVal)

	// c2: garbage plus a live cell
	c2.FreshObj(0, 64, mem.TagTuple)
	t2 := c2.FreshObj(0, 1, mem.TagRef)
	mem.StoreWordField(t2, 0, 22)

	r1, r2 := t1, t2
	stats := Collect([]*heap.Heap{parent, c1, c2}, []*mem.ObjPtr{&r1, &r2})

	if mem.LoadWordField(r1, 0) != 11 || mem.LoadWordField(r2, 0) != 22 {
		t.Fatal("zone values lost")
	}
	ip := mem.LoadPtrField(r1, 0)
	if heap.Of(ip) != parent || mem.LoadWordField(ip, 0) != 55 {
		t.Fatal("within-zone cross-heap pointer mishandled")
	}
	if mem.LoadPtrField(r1, 1) != globalVal {
		t.Fatal("out-of-zone pointer must be untouched")
	}
	if heap.Of(r1) != c1 || heap.Of(r2) != c2 {
		t.Fatal("objects must stay in their own (collected) heaps")
	}
	// inParent copied once, t1, t2: 3 objects; garbage dropped.
	if stats.ObjectsCopied != 3 {
		t.Fatalf("copied %d, want 3", stats.ObjectsCopied)
	}
}

func TestCollectEmptyZonePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("empty zone must panic")
		}
	}()
	NewCollector(nil)
}

func TestPolicy(t *testing.T) {
	p := Policy{MinWords: 100, Ratio: 2}
	h := heap.NewRoot()
	defer heap.FreeChunkList(h.TakeChunks())
	if p.ShouldCollect(h) {
		t.Fatal("empty heap must not collect")
	}
	for h.UsedWords() < 100 {
		h.FreshObj(0, 6, mem.TagTuple)
	}
	if !p.ShouldCollect(h) {
		t.Fatal("heap past floor with zero live must collect")
	}
	h.LiveWords = h.UsedWords()
	if p.ShouldCollect(h) {
		t.Fatal("freshly collected heap must not recollect")
	}
	for h.UsedWords() < 2*h.LiveWords {
		h.FreshObj(0, 6, mem.TagTuple)
	}
	if !p.ShouldCollect(h) {
		t.Fatal("heap at 2x live must collect")
	}
}

// graph checksum over raw mem (sharing-sensitive), for the property test.
func checksum(p mem.ObjPtr, seen map[mem.ObjPtr]int, order *int) uint64 {
	if p.IsNil() {
		return 11
	}
	if id, ok := seen[p]; ok {
		return uint64(id)*31 + 7
	}
	*order++
	seen[p] = *order
	sum := uint64(mem.TagOf(p))
	for i, n := 0, mem.NumNonptrWords(p); i < n; i++ {
		sum = sum*31 ^ mem.LoadWordField(p, i)
	}
	for i, n := 0, mem.NumPtrFields(p); i < n; i++ {
		sum = sum*1099511628211 ^ checksum(mem.LoadPtrField(p, i), seen, order)
	}
	return sum
}

func TestCollectionPreservesRandomGraphs(t *testing.T) {
	f := func(seed int64, sz uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		n := int(sz)%80 + 1
		h := heap.NewRoot()
		defer heap.FreeChunkList(h.TakeChunks())

		nodes := make([]mem.ObjPtr, n)
		for i := range nodes {
			deg := rng.Intn(3)
			if i == 0 {
				deg = 0
			}
			p := h.FreshObj(deg, 1, mem.TagTuple)
			mem.StoreWordField(p, 0, uint64(i)*2654435761)
			for j := 0; j < deg; j++ {
				mem.StorePtrField(p, j, nodes[rng.Intn(i)])
			}
			nodes[i] = p
		}
		// A few random roots (plus garbage: unrooted nodes).
		nRoots := rng.Intn(3) + 1
		roots := make([]mem.ObjPtr, nRoots)
		slots := make([]*mem.ObjPtr, nRoots)
		before := make([]uint64, nRoots)
		for i := range roots {
			roots[i] = nodes[rng.Intn(n)]
			slots[i] = &roots[i]
			before[i] = checksum(roots[i], map[mem.ObjPtr]int{}, new(int))
		}

		Collect([]*heap.Heap{h}, slots)

		for i := range roots {
			if checksum(roots[i], map[mem.ObjPtr]int{}, new(int)) != before[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestRepeatedCollections(t *testing.T) {
	// Failure-injection style stress: many rounds of churn + collection on
	// one heap; live set rotates each round.
	h := heap.NewRoot()
	defer heap.FreeChunkList(h.TakeChunks())
	var live mem.ObjPtr
	for round := 0; round < 20; round++ {
		live = buildList(h, 30)
		for i := 0; i < 500; i++ {
			h.FreshObj(0, 10, mem.TagTuple)
		}
		Collect([]*heap.Heap{h}, []*mem.ObjPtr{&live})
		checkList(t, live, 30, h)
		if h.UsedWords() != int64(30*mem.ObjectWords(1, 1)) {
			t.Fatalf("round %d: live size %d", round, h.UsedWords())
		}
	}
}
