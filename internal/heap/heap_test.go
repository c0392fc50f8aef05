package heap

import (
	"testing"
	"testing/quick"

	"repro/internal/mem"
)

// freeHeap releases a live heap's chunks for test cleanup.
func freeHeap(h *Heap) { FreeChunkList(h.TakeChunks()) }

func TestHeapAllocAndOwnership(t *testing.T) {
	h := NewRoot()
	defer freeHeap(h)
	p := h.FreshObj(1, 2, mem.TagTuple)
	if Of(p) != h {
		t.Fatal("heapOf must return the allocating heap")
	}
	if mem.NumPtrFields(p) != 1 || mem.NumNonptrWords(p) != 2 {
		t.Fatal("object shape wrong")
	}
	if mem.LoadPtrField(p, 0) != mem.NilPtr || mem.LoadWordField(p, 0) != 0 {
		t.Fatal("fresh object fields must be zero")
	}
	if h.UsedWords() != int64(mem.ObjectWords(1, 2)) {
		t.Fatalf("UsedWords = %d", h.UsedWords())
	}
}

func TestHeapDepthAndParent(t *testing.T) {
	root := NewRoot()
	c1 := NewChild(root)
	c2 := NewChild(c1)
	if root.Depth() != 0 || c1.Depth() != 1 || c2.Depth() != 2 {
		t.Fatalf("depths: %d %d %d", root.Depth(), c1.Depth(), c2.Depth())
	}
	if root.Parent() != nil || c1.Parent() != root || c2.Parent() != c1 {
		t.Fatal("parents wrong")
	}
}

func TestHeapGrowsChunks(t *testing.T) {
	h := NewRoot()
	defer freeHeap(h)
	// Allocate more than one chunk's worth of small objects.
	per := mem.ObjectWords(0, 6)
	n := mem.DefaultChunkWords/per + 10
	for i := 0; i < n; i++ {
		h.FreshObj(0, 6, mem.TagTuple)
	}
	if h.NumChunks() < 2 {
		t.Fatalf("expected chunk growth, got %d chunks", h.NumChunks())
	}
	if h.UsedWords() != int64(n*per) {
		t.Fatalf("UsedWords = %d want %d", h.UsedWords(), n*per)
	}
}

func TestHeapLargeObject(t *testing.T) {
	h := NewRoot()
	defer freeHeap(h)
	big := 3 * mem.DefaultChunkWords
	p := h.FreshObj(0, big, mem.TagArrI64)
	if mem.NumNonptrWords(p) != big {
		t.Fatal("large array shape wrong")
	}
	mem.StoreWordField(p, big-1, 77)
	if mem.LoadWordField(p, big-1) != 77 {
		t.Fatal("large array last word roundtrip failed")
	}
}

func TestJoinMovesOwnership(t *testing.T) {
	parent := NewRoot()
	defer freeHeap(parent)
	child := NewChild(parent)
	p := parent.FreshObj(0, 1, mem.TagRef)
	q := child.FreshObj(0, 1, mem.TagRef)
	Join(parent, child)
	if !parent.IsAlive() || child.IsAlive() {
		t.Fatal("join must merge child into parent")
	}
	if Of(p) != parent || Of(q) != parent {
		t.Fatal("after join both objects belong to the parent")
	}
	if child.Resolve() != parent {
		t.Fatal("child must resolve to parent")
	}
	if child.Depth() != 0 {
		t.Fatal("merged child reports the parent's depth")
	}
}

func TestJoinSplicesChunkCounts(t *testing.T) {
	parent := NewRoot()
	defer freeHeap(parent)
	child := NewChild(parent)
	parent.FreshObj(0, 4, mem.TagTuple)
	child.FreshObj(0, 4, mem.TagTuple)
	child.FreshObj(0, mem.DefaultChunkWords, mem.TagArrI64) // forces 2nd chunk
	pw, cw := parent.UsedWords(), child.UsedWords()
	pc, cc := parent.NumChunks(), child.NumChunks()
	Join(parent, child)
	if parent.UsedWords() != pw+cw {
		t.Fatal("used words not accumulated")
	}
	if parent.NumChunks() != pc+cc {
		t.Fatal("chunk counts not accumulated")
	}
	n := 0
	for c := parent.Chunks(); c != nil; c = c.Next {
		n++
	}
	if n != parent.NumChunks() {
		t.Fatalf("chunk list has %d entries, counter says %d", n, parent.NumChunks())
	}
}

func TestJoinSelfPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("self-join must panic")
		}
	}()
	h := NewRoot()
	Join(h, h)
}

func TestResolveChainCompression(t *testing.T) {
	// Build a chain root <- a <- b <- c, join bottom-up, check resolution.
	root := NewRoot()
	defer freeHeap(root)
	a := NewChild(root)
	b := NewChild(a)
	c := NewChild(b)
	Join(b, c)
	Join(a, b)
	Join(root, a)
	for _, h := range []*Heap{a, b, c} {
		if h.Resolve() != root {
			t.Fatalf("%v does not resolve to root", h)
		}
	}
}

func TestUnionFindProperty(t *testing.T) {
	// Property: after joining a random tree of heaps bottom-up, every heap
	// resolves to the root and every allocated object is owned by the root.
	f := func(shape []uint8) bool {
		if len(shape) > 40 {
			shape = shape[:40]
		}
		root := NewRoot()
		heaps := []*Heap{root}
		var objs []mem.ObjPtr
		for _, s := range shape {
			parent := heaps[int(s)%len(heaps)]
			if !parent.IsAlive() {
				parent = parent.Resolve()
			}
			h := NewChild(parent)
			heaps = append(heaps, h)
			objs = append(objs, h.FreshObj(0, 1, mem.TagRef))
		}
		// Join children deepest-first.
		for i := len(heaps) - 1; i >= 1; i-- {
			h := heaps[i]
			if h.IsAlive() {
				Join(h.Parent(), h)
			}
		}
		ok := true
		for _, h := range heaps {
			if h.Resolve() != root {
				ok = false
			}
		}
		for _, p := range objs {
			if Of(p) != root {
				ok = false
			}
		}
		freeHeap(root)
		return ok
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestTwinAdopt(t *testing.T) {
	h := NewRoot()
	h.FreshObj(0, 3, mem.TagTuple)
	twin := NewTwin(h)
	if !twin.IsTo() || twin.Depth() != h.Depth() {
		t.Fatal("twin must be a to-space at the same depth")
	}
	q := twin.FreshObj(0, 3, mem.TagTuple)
	old := h.TakeChunks()
	h.AdoptFrom(twin)
	FreeChunkList(old)
	defer freeHeap(h)
	if Of(q) != h {
		t.Fatal("adopted object must belong to the original heap")
	}
	if h.IsTo() {
		t.Fatal("heap itself must not become a to-space")
	}
	if h.LiveWords != h.UsedWords() {
		t.Fatal("GC bookkeeping not reset by adoption")
	}
}

func TestSuperheapPushPop(t *testing.T) {
	root := NewRoot()
	defer freeHeap(root)
	sh := NewSuperheap(root)
	if sh.Current() != root || sh.Base() != root || sh.Len() != 1 {
		t.Fatal("fresh superheap state wrong")
	}
	h1 := sh.Push()
	if h1.Depth() != 1 || sh.Current() != h1 {
		t.Fatal("push must create the next depth")
	}
	p := h1.FreshObj(0, 1, mem.TagRef)
	sh.PopJoin()
	if sh.Current() != root || Of(p) != root {
		t.Fatal("pop must join into the base")
	}
}

func TestSuperheapPopBasePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("PopJoin at base must panic")
		}
	}()
	sh := NewSuperheap(NewRoot())
	sh.PopJoin()
}

func TestSuperheapAdoptJoin(t *testing.T) {
	root := NewRoot()
	defer freeHeap(root)
	parent := NewSuperheap(root)
	forkHeap := parent.Push() // depth 1, where the fork happens

	// A thief builds its own superheap as a child of the fork heap.
	stolenBase := NewChild(forkHeap)
	thief := NewSuperheap(stolenBase)
	h2 := thief.Push()
	p := h2.FreshObj(0, 1, mem.TagRef)
	thief.PopJoin()

	parent.AdoptJoin(thief)
	if Of(p) != forkHeap {
		t.Fatal("stolen data must land in the fork-point heap after adoption")
	}
	parent.PopJoin()
	if Of(p) != root {
		t.Fatal("data must reach the root after the final join")
	}
}

func TestOfUnownedPanics(t *testing.T) {
	c := mem.NewChunk(8)
	defer mem.FreeChunk(c)
	off, _ := c.Bump(uint32(mem.ObjectWords(0, 1)))
	p := mem.InitObject(c, off, 0, 1, mem.TagRef)
	defer func() {
		if recover() == nil {
			t.Fatal("Of on unowned chunk must panic")
		}
	}()
	Of(p)
}
