package heap

import (
	"fmt"
	"sync/atomic"
	"unsafe"

	"repro/internal/mem"
)

// Heap is one node of the heap hierarchy: a list of chunks with a bump
// allocator, a depth, a link to its hierarchy parent, and a readers-writer
// lock (paper Figure 4).
//
// Allocation into a heap is never concurrent: the owning task allocates in
// its (deepest) heap without synchronization, and promotions and
// core.AllocIn allocate into ancestor heaps only while holding the heap's
// WRITE lock, at which point
// the ancestor's owning task is suspended at a fork. The scheduler's
// synchronization (deque publish on fork/steal, join signal on completion)
// provides the happens-before edges between those phases.
type Heap struct {
	// Three cache lines of 64 bytes, which is also how the Go allocator
	// aligns a 192-byte object (TestHeapLayout checks both), so that no two
	// of these share a line, in this heap or with a neighbouring one:
	//
	//	line 0  the lock word, which climbing and waiting goroutines write
	//	        and spin on, and the cold fields;
	//	line 1  the identity fields every barrier reads through Depth, and
	//	        the chunk-list fields written once per chunk;
	//	line 2  the bump-allocator fields FreshObjVia writes per object.
	//
	// Waiters polling a lock word on an allocator line slow down the very
	// copy they are waiting for.
	lk RWLock
	id uint64
	_  [2]uint64

	LiveWords int64 // GC policy input: live estimate from the last collection

	depth  int32
	isTo   bool                 // true while this heap is a collection to-space
	parent *Heap                // hierarchy parent at creation; resolve when walking
	merged atomic.Pointer[Heap] // union-find link set by Join

	head      *mem.Chunk // oldest chunk
	nChunks   int
	nextWords int   // next chunk size (geometric growth)
	capWords  int64 // total chunk capacity
	_         uint64

	tail      *mem.Chunk // newest chunk; allocation target
	usedWords int64      // words handed out to objects
	_         [6]uint64
}

var heapIDs atomic.Uint64

// NewRoot creates a root heap at depth 0.
func NewRoot() *Heap {
	return &Heap{id: heapIDs.Add(1)}
}

// NewChild creates a heap one level below h in the hierarchy.
func NewChild(h *Heap) *Heap {
	h = h.Resolve()
	return &Heap{id: heapIDs.Add(1), depth: h.depth + 1, parent: h}
}

// NewTwin creates the to-space twin used during a collection of h: same
// depth and parent, marked as a to-space.
func NewTwin(h *Heap) *Heap {
	h = h.Resolve()
	return &Heap{id: heapIDs.Add(1), depth: h.depth, parent: h.parent, isTo: true}
}

// ID returns the heap's debug identifier.
func (h *Heap) ID() uint64 { return h.id }

// Depth returns the heap's depth in the hierarchy (root = 0).
func (h *Heap) Depth() int32 { return h.Resolve().depth }

// Parent returns the heap's hierarchy parent, resolved through joins.
// It returns nil for the root.
func (h *Heap) Parent() *Heap {
	p := h.Resolve().parent
	if p == nil {
		return nil
	}
	return p.Resolve()
}

// IsTo reports whether the heap is currently a collection to-space.
func (h *Heap) IsTo() bool { return h.isTo }

// Lock acquires the heap's lock in the given mode.
func (h *Heap) Lock(m Mode) { h.lk.Lock(m) }

// Unlock releases the heap's lock.
func (h *Heap) Unlock() { h.lk.Unlock() }

// LockStats returns the heap lock's acquisition counters.
func (h *Heap) LockStats() LockStats { return h.lk.Stats() }

// Resolve follows union-find links to the live heap this heap has been
// merged into, compressing the path. A heap that has not been joined
// resolves to itself.
func (h *Heap) Resolve() *Heap {
	m := h.merged.Load()
	if m == nil {
		return h
	}
	root := m.Resolve()
	if root != m {
		h.merged.Store(root)
	}
	return root
}

// Of returns the live heap holding the object (paper's heapOf): its
// chunk's owner slot, resolved through any joins. A dangling pointer
// panics in mem.GetChunk.
func Of(p mem.ObjPtr) *Heap {
	if c := mem.GetChunk(p.ChunkID()); c != nil {
		if h := (*Heap)(c.Owner()); h != nil {
			return h.Resolve()
		}
	}
	panic(fmt.Sprintf("heap: object %v has no owning heap", p))
}

// IsAlive reports whether the heap has not been merged away.
func (h *Heap) IsAlive() bool { return h.merged.Load() == nil }

// Join merges child into parent (paper's joinHeap): the child's chunks are
// spliced onto the parent's list in O(1) and the child descriptor becomes
// an alias for the parent. The caller must guarantee the child's task has
// completed; Join performs no locking.
func Join(parent, child *Heap) {
	parent = parent.Resolve()
	child = child.Resolve()
	if parent == child {
		panic("heap: joining a heap into itself")
	}
	if child.isTo || parent.isTo {
		panic("heap: joining a to-space")
	}
	if child.head != nil {
		if parent.tail == nil {
			parent.head, parent.tail = child.head, child.tail
		} else {
			parent.tail.Next = child.head
			parent.tail = child.tail
		}
		parent.nChunks += child.nChunks
	}
	parent.usedWords += child.usedWords
	parent.capWords += child.capWords
	parent.LiveWords += child.LiveWords
	child.head, child.tail, child.nChunks = nil, nil, 0
	child.merged.Store(parent)
}

// grow appends a chunk able to hold at least need words, acquired through
// the recycling allocator (cc is the calling worker's chunk cache, nil when
// the caller has none). Chunk sizes grow geometrically from MinChunkWords
// to DefaultChunkWords, so short-lived leaf heaps stay tiny while
// allocation-heavy heaps amortize to large chunks (the paper's
// fragmentation/locality trade-off).
func (h *Heap) grow(cc *mem.ChunkCache, need int) *mem.Chunk {
	size := h.nextWords
	if size < mem.MinChunkWords {
		size = mem.MinChunkWords
	}
	if size < mem.DefaultChunkWords {
		h.nextWords = size * 4
	}
	if need > size {
		size = need
	}
	c := mem.AcquireChunk(cc, size)
	c.SetOwner(unsafe.Pointer(h))
	if h.tail == nil {
		h.head, h.tail = c, c
	} else {
		h.tail.Next = c
		h.tail = c
	}
	h.nChunks++
	h.capWords += int64(c.Cap())
	return c
}

// FreshObj allocates an object with the given shape in h (paper's
// freshObj). Fields start zeroed. Chunk acquisition goes straight to the
// global pool; hot paths that run on a worker use FreshObjVia with the
// worker's cache instead.
func (h *Heap) FreshObj(numPtr, numNonptr int, tag mem.Tag) mem.ObjPtr {
	return h.FreshObjVia(nil, numPtr, numNonptr, tag)
}

// FreshObjVia is FreshObj with chunk acquisition routed through cc, the
// CALLING worker's chunk cache (nil for no cache). Passing the caller's —
// not the heap's — cache is what keeps cache access single-goroutine even
// when the heap is a shared ancestor or a collection to-space.
func (h *Heap) FreshObjVia(cc *mem.ChunkCache, numPtr, numNonptr int, tag mem.Tag) mem.ObjPtr {
	need := mem.ObjectWords(numPtr, numNonptr)
	c := h.tail
	if c == nil {
		c = h.grow(cc, need)
	}
	off, ok := c.Bump(uint32(need))
	if !ok {
		c = h.grow(cc, need)
		off, ok = c.Bump(uint32(need))
		if !ok {
			panic(fmt.Sprintf("heap: fresh chunk cannot hold %d words", need))
		}
	}
	h.usedWords += int64(need)
	return mem.InitObject(c, off, numPtr, numNonptr, tag)
}

// UsedWords returns the words handed out to objects in this heap.
func (h *Heap) UsedWords() int64 { return h.usedWords }

// CapWords returns the heap's total chunk capacity in words.
func (h *Heap) CapWords() int64 { return h.capWords }

// NumChunks returns the number of chunks owned by the heap.
func (h *Heap) NumChunks() int { return h.nChunks }

// Chunks returns the head of the heap's chunk list, for collectors.
func (h *Heap) Chunks() *mem.Chunk { return h.head }

// TakeChunks detaches and returns the heap's chunk list, resetting the
// heap's allocation state. Collectors use this to swap semispaces.
func (h *Heap) TakeChunks() *mem.Chunk {
	c := h.head
	h.head, h.tail, h.nChunks = nil, nil, 0
	h.usedWords, h.capWords = 0, 0
	return c
}

// AdoptFrom moves the to-space twin's chunks into h after a collection
// ("switchSemispaces" with a stable heap identity: locks and union-find
// links into h stay valid). The chunks' owner slots are repointed at h and
// the twin is discarded.
func (h *Heap) AdoptFrom(twin *Heap) {
	if !twin.isTo {
		panic("heap: AdoptFrom expects a to-space twin")
	}
	for c := twin.head; c != nil; c = c.Next {
		c.SetOwner(unsafe.Pointer(h))
	}
	h.head, h.tail, h.nChunks = twin.head, twin.tail, twin.nChunks
	h.usedWords, h.capWords = twin.usedWords, twin.capWords
	h.LiveWords = twin.usedWords
	twin.head, twin.tail, twin.nChunks = nil, nil, 0
}

// FreeChunkList releases a detached chunk list (end of run, or the
// from-space after a collection) back to the recycling allocator's global
// pool. Equivalent to RecycleChunkList with no worker cache.
func FreeChunkList(head *mem.Chunk) { RecycleChunkList(nil, head) }

// RecycleChunkList releases a detached chunk list through the recycling
// allocator: each chunk's directory entry is invalidated (stale ObjPtrs
// into it panic), then the slab is parked in cc — the calling worker's
// cache — overflowing to the global pool and, past the pool's high-water
// mark, to the OS.
func RecycleChunkList(cc *mem.ChunkCache, head *mem.Chunk) {
	for c := head; c != nil; {
		next := c.Next
		mem.RecycleChunk(cc, c)
		c = next
	}
}

// String renders the heap for debugging.
func (h *Heap) String() string {
	return fmt.Sprintf("heap#%d(depth=%d,chunks=%d,used=%dw)", h.id, h.depth, h.nChunks, h.usedWords)
}
