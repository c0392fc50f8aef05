package heap

import (
	"sync"

	"repro/internal/mem"
)

// Super-root support: the serving layer runs many simultaneous root-level
// subtrees ("sessions") under one process super-root heap. The super-root
// tracks its attached children so the runtime can enumerate abandoned
// subtrees at shutdown, and a completed subtree can be reclaimed WHOLESALE:
// its chunks are released in bulk without ever being merged into the root,
// the region-style payoff of the hierarchy — reclamation cost proportional
// to the number of chunks, not to the live data.
//
// The registry is STRIPED by child heap ID: every session's attach at
// submit and detach at reclaim used to serialize on one per-parent mutex,
// which at high session churn was a per-request global lock on the serving
// path. With stripes, concurrent sessions touch disjoint stripe locks with
// high probability; enumeration (a shutdown path) locks the stripes one at
// a time.
//
// Lock ordering note: AttachChild / DetachChild touch only one stripe of
// the parent's child registry (leaf-level mutexes, never held while taking
// a heap lock or another stripe), so they compose with the deepest-first
// heap lock order without extending it. ReleaseWholesale takes no heap
// locks at all — its contract is that the subtree's tasks have completed
// and nothing else can reach the subtree (disentanglement keeps other
// sessions' root paths disjoint).

// childStripeCount is the number of stripes in a child registry. Sessions
// hash to stripes by heap ID, so 16 keeps collisions between a handful of
// concurrently attaching/detaching sessions rare while costing one small
// fixed array per super-root (registries are lazily allocated, and only
// heaps that host sessions ever have one).
const (
	childStripeShift = 4
	childStripeCount = 1 << childStripeShift
)

type childStripe struct {
	mu       sync.Mutex
	children map[*Heap]struct{}
	_        [64]byte // keep neighbouring stripe mutexes off one cache line
}

type childRegistry struct {
	stripes [childStripeCount]childStripe
}

// stripeFor maps a child heap to its registry stripe. Heap IDs are
// sequential, so the multiplicative hash spreads the consecutive IDs of a
// burst of new sessions across stripes.
func (r *childRegistry) stripeFor(c *Heap) *childStripe {
	return &r.stripes[(c.id*0x9E3779B97F4A7C15)>>(64-childStripeShift)]
}

// registry returns h's child registry, installing one on first use. The
// CAS makes concurrent first attaches converge on a single registry.
func (h *Heap) registry() *childRegistry {
	if r := h.childReg.Load(); r != nil {
		return r
	}
	fresh := &childRegistry{}
	if h.childReg.CompareAndSwap(nil, fresh) {
		return fresh
	}
	return h.childReg.Load()
}

// AttachChild creates a heap one level below h and records it in h's child
// registry. The serving layer attaches one child per session under the
// process super-root; DetachChild (or ReleaseWholesale via the runtime)
// must be called when the session completes.
func (h *Heap) AttachChild() *Heap {
	c := NewChild(h)
	str := h.registry().stripeFor(c)
	str.mu.Lock()
	if str.children == nil {
		str.children = make(map[*Heap]struct{})
	}
	str.children[c] = struct{}{}
	str.mu.Unlock()
	return c
}

// DetachChild removes c from h's child registry. Detaching a heap that was
// never attached (or was already detached) is a no-op.
func (h *Heap) DetachChild(c *Heap) {
	r := h.childReg.Load()
	if r == nil {
		return
	}
	str := r.stripeFor(c)
	str.mu.Lock()
	delete(str.children, c)
	str.mu.Unlock()
}

// AttachedChildren snapshots the heaps currently attached to h. The
// runtime's Close walks it to release subtrees of sessions that were never
// drained. Stripes are locked one at a time, so the snapshot is per-stripe
// consistent; callers (shutdown, tests) run after session traffic stops.
func (h *Heap) AttachedChildren() []*Heap {
	r := h.childReg.Load()
	if r == nil {
		return nil
	}
	var out []*Heap
	for i := range r.stripes {
		str := &r.stripes[i]
		str.mu.Lock()
		for c := range str.children {
			out = append(out, c)
		}
		str.mu.Unlock()
	}
	return out
}

// AttachedCount reports how many children are currently attached to h.
func (h *Heap) AttachedCount() int {
	r := h.childReg.Load()
	if r == nil {
		return 0
	}
	n := 0
	for i := range r.stripes {
		str := &r.stripes[i]
		str.mu.Lock()
		n += len(str.children)
		str.mu.Unlock()
	}
	return n
}

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
