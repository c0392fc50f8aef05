// Package core implements the paper's primary contribution: the high-level
// memory operations of Figure 3 realized over hierarchical heaps with
// support for mutable state (Figures 5–7).
//
// The central invariant is disentanglement: a pointer stored in heap h may
// only refer to objects in h or its ancestors. Reads of immutable data are
// plain loads (no barrier). Mutable accesses honor the master-copy
// discipline: when promotion has duplicated an object, its copies form a
// forwarding-pointer chain whose last element — the copy in the shallowest
// heap — is authoritative. FindMaster walks the chain with double-checked
// read locking.
//
// # Barrier taxonomy
//
// Every mutable access falls into one of three cost tiers (the full
// decision diagram is in DESIGN.md §5, and docs/PAPER-MAP.md maps each
// tier back to the paper's figures):
//
//   - Lock-free fast paths. Reads and non-pointer writes go straight to
//     the object and check for a forwarding pointer afterwards; unpromoted
//     objects pay a couple of instructions. Pointer writes have two such
//     paths: the local path (the object is in the task's own leaf heap,
//     where promotion is impossible) and the ancestor-pointee path (the
//     pointee's heap is no deeper than the object's, so the write cannot
//     entangle; the store is optimistic with a forwarding recheck, exactly
//     like WriteNonptr).
//   - FindMaster under the read lock. Forwarded objects, compare-and-swap
//     (which cannot be optimistic), and non-promoting writes whose object
//     was promoted redirect to the master copy while holding its heap's
//     lock in shared mode.
//   - The promotion climb. A pointer write whose pointee is deeper than
//     the object's master write-locks the heap path from the pointee's
//     heap up to the master's, deepest first, and copies the pointee's
//     reachable graph upward (writePromote). It takes no read lock first:
//     an unlocked walk of the forwarding chain is enough to know the write
//     must promote, and the climb settles which copy is the master once it
//     holds the locks (WritePtrSlow). Each climb promotes one pointee; the
//     task's PromoteBuf holds the climb's reusable scratch.
//
// Promotion is always eager, as in the paper's Figure 7: no write leaves a
// down-pointer behind for later repair. Pointer writes have two entry
// points, WritePtr (both fast paths, then the climb) and WritePtrSlow (the
// paper-faithful baseline without them); both promote to the same depth.
//
// Promotion vs. in-flight collection: zone collections (package gc) run
// concurrently with these operations. The two machineries never meet on an
// object — a promotion only touches heaps on its own task's root path,
// while a collection zone is a heap with no live descendants, which by
// disentanglement no other task can reference — and never deadlock on a
// lock. A climb acquires its locks bottom-up (deepest first), so it only
// ever waits on a heap shallower than one it holds. A zone collection holds
// exactly one heap lock, its heap's write lock, and waits for no other
// heap lock while holding it, so no cycle of waits can pass through it. That write
// lock is a second line of defense: if entanglement ever leaked a pointer
// into a zone, findMaster's read locks and the promotion path's write locks
// would serialize against the collection instead of observing objects
// mid-copy.
//
// All operations count themselves into per-task Counters so the evaluation
// can report the Figure 8/9 operation taxonomy, the barrier fast/slow mix,
// and the lock-climb length (the benchmark's core.* metrics). A promoting
// write is one climb and is counted once, in WritePtrProm. The counts are
// exact; the one time among them, PromoteNanos, is sampled — one climb in
// climbSample is timed and charged that many times over — unless the
// flight recorder is on, when every climb is timed and published as one
// EvClimb span.
package core
