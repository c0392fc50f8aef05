package heap

import "repro/internal/mem"

// Super-root support: the serving layer runs many simultaneous root-level
// subtrees ("sessions") under one process super-root heap. A completed
// subtree is reclaimed WHOLESALE: its chunks are released in bulk without
// ever being merged into the root, the region-style payoff of the
// hierarchy — reclamation cost proportional to the number of chunks, not
// to the live data. The super-root keeps no list of its children: each
// session frees its own subtree when it completes, and the runtime's Close
// waits every session out before it frees the super-root.
//
// Lock ordering note: ReleaseWholesale takes no heap locks at all — its
// contract is that the subtree's tasks have completed and nothing else can
// reach the subtree (disentanglement keeps other sessions' root paths
// disjoint).

// AttachChild is NewChild. It exists only because the benchmark harness's
// attach/release probe names it.
func (h *Heap) AttachChild() *Heap { return NewChild(h) }

// DetachChild does nothing. It exists only because the benchmark harness's
// attach/release probe names it.
func (h *Heap) DetachChild(*Heap) {}

// ReleaseWholesale releases every chunk of child in bulk — no merge, no
// copy, no per-object work — and aliases child to parent so that any stale
// descriptor reference resolves somewhere live. The chunks go back to the
// recycling allocator, not the OS: cc is the calling worker's chunk cache
// (nil when the caller has none), which takes the slabs first, overflowing
// to the global size-classed pool — so the next request's heaps are built
// from this request's chunks without touching the directory ID lock.
// Every released chunk's directory entry is invalidated before the slab
// can be reused; a surviving ObjPtr into the subtree panics in GetChunk.
// It returns the bytes of chunk capacity released.
//
// The caller must guarantee that every task of child's subtree has
// completed and that no live pointer (from parent or anywhere else) targets
// an object in child: this is the serving layer's unpinned-session
// contract. Heaps that were already merged away resolve to their live
// target and release nothing here.
func ReleaseWholesale(cc *mem.ChunkCache, parent, child *Heap) int64 {
	parent = parent.Resolve()
	child = child.Resolve()
	if child == parent {
		return 0 // already merged into the survivor; nothing separate to free
	}
	if child.isTo || parent.isTo {
		panic("heap: wholesale release of a to-space")
	}
	bytes := child.CapWords() * 8
	RecycleChunkList(cc, child.TakeChunks())
	child.AllocSinceGC, child.LiveWords = 0, 0
	child.merged.Store(parent)
	return bytes
}
