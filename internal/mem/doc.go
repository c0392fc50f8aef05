// Package mem implements the simulated managed-memory substrate that the
// rest of the runtime is built on.
//
// Go's garbage collector cannot host the paper's hierarchical heaps
// directly, so this package provides raw material the runtime manages
// itself: memory is carved into chunks (fixed-granularity []uint64 slabs),
// objects are bump-allocated inside chunks, and object pointers are packed
// 64-bit handles (chunk ID in the high word, word offset in the low word).
// A global two-level chunk directory resolves handles to chunks with two
// atomic loads, mirroring MLton's address-masked chunk metadata lookup.
//
// # Chunk lifecycle: alloc → cache → pool → OS
//
// Chunks are recycled, not freed. The allocator (pool.go) has three tiers:
//
//	AcquireChunk:  worker cache → global size-classed pool → fresh OS alloc
//	RecycleChunk:  worker cache → global size-classed pool → OS (high-water)
//
// Each scheduler worker owns a private ChunkCache (a few chunks per size
// class, touched only by the worker's own goroutine), so the common case —
// a leaf heap growing during request work, and a completed request's
// subtree being released wholesale — trades chunks worker-locally with
// ZERO shared-state operations. Overflow and cold flushes land in the
// global pool: one free list per size class under one mutex, held briefly;
// only when the pool is above its high-water mark (DefaultPoolLimitBytes,
// 64 MiB) does memory go back to the OS.
//
// Each Chunk carries an opaque owner slot that the heap package fills with
// the chunk's owning heap, so heapOf is a directory lookup plus one load.
// Live bytes are one atomic counter with an exact high-water mark.
//
// A recycled slab keeps its directory ID parked with it, so the recycling
// paths never touch the ID free list's lock; its directory ENTRY, however,
// is invalidated on every release and re-asserted empty on every reuse.
// Stale ObjPtrs into released chunks therefore panic in GetChunk exactly
// as they do after a hard free, a double release fails its entry CAS and
// panics, and each reuse wraps the slab in a fresh Chunk object so a stale
// *Chunk cannot alias the slab's next life. Slabs park dirty and are
// re-zeroed (used prefix only) on reuse, preserving the
// objects-start-zeroed contract without charging destroyed slabs for it.
//
// AllocSnapshot reports the traffic of every tier — cache/pool hit rates,
// fresh allocations, release destinations, and the idMu-serialized
// directory ID operations the recycling design exists to avoid; the
// benchmark's mem.* layer metrics are differences of two snapshots.
//
// # Object layout
//
// Every object carries two metadata words:
//
//	word 0: header — packs the number of pointer fields, the number of
//	        non-pointer words, and a tag describing the object kind
//	word 1: forwarding pointer — NilPtr, or the next copy of this object
//
// The dedicated forwarding word reproduces the paper's design decision
// (§6): promotion never overwrites object data, so immutable reads need no
// read barrier, and only mutable accesses check the forwarding word.
//
// Pointer fields are stored before non-pointer words so collectors and
// promotion can scan them without per-field type maps.
package mem
