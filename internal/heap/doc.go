// Package heap implements the hierarchy of heaps that mirrors the fork-join
// task tree (paper §3.2, Appendix B).
//
// A Heap owns a linked list of chunks and supports bump allocation. Heaps
// form a tree: forkjoin creates child heaps, and when tasks complete their
// heaps are joined into the parent in O(1) — the child heap descriptor is
// redirected into the parent with a union-find link, so no objects move and
// chunk ownership lookups stay O(1) amortized via path compression. This
// reproduces MLton's constant-time linked-list splice while keeping the
// chunk-metadata heapOf lookup of the paper's implementation.
//
// # Locks and the one global order
//
// Every heap carries a readers-writer lock (paper Figure 4): findMaster
// acquires it in read mode, promotion and zone collection in write mode.
// The lock is one atomic word — reader count, writer bit, waiting-writer
// count, sleeper count — so taking and releasing an uncontended lock is a
// compare-and-swap and an atomic add; a blocked acquirer re-reads the word a
// few dozen times and then parks on a mutex-and-condition pair that exists
// only once somebody has slept (RWLock). Heap keeps the word on a cache line
// of its own, away from the depth and parent fields every barrier reads and
// from the bump-allocator fields every allocation writes.
//
// One global lock order keeps the three composable — every multi-heap
// acquisition climbs the hierarchy bottom-up (deepest heap first, heap ID
// breaking ties between siblings). The zone helpers encode that order:
// SortZone canonicalizes a zone, LockZone/UnlockZone write-lock and
// release it in order, and IsAncestorOf answers zone-membership queries
// through any joins. The promotion path's climb (core.PromoteBuf.lockPath)
// follows the same order from the other end: pointee's heap first, then
// each ancestor up to the promotion target.
//
// Depth is the hierarchy's cheap ancestry oracle: two heaps referenced by
// one task both lie on that task's root path, so comparing Depth values is
// an ancestor test without walking parents. The write barrier's lock-free
// fast paths (core.WritePtr) rely on exactly this — a depth comparison plus
// a forwarding-pointer check decides that a write cannot entangle, without
// touching any lock.
//
// A Superheap is the per-user-level-thread stack of heaps from Appendix B:
// forkjoin pushes a fresh heap (depth+1) and the matching join pops and
// joins it, both constant-time operations, so the common no-steal case
// stays cheap.
//
// A heap records nothing about the pointers into it. The write barrier
// promotes eagerly, so the hierarchy stays disentangled between writes: a
// collection's roots are the collecting task's own, Join splices chunk
// lists and nothing else, and ReleaseWholesale frees a subtree without
// looking inside it.
//
// Chunk movement goes through the recycling allocator (package mem):
// grow/FreshObjVia acquire through the calling worker's ChunkCache, and
// RecycleChunkList / ReleaseWholesale hand completed heaps' chunks back to
// the cache, the global pool, or the OS.
package heap
