// Package sched implements the work-stealing fork-join scheduler the
// runtime couples with the memory manager (paper Appendix B).
//
// The design follows the lazy-task-creation discipline the paper inherits:
// forkjoin is cheap — the right-hand thunk is pushed onto the calling
// worker's Chase–Lev deque as a frame, the left-hand thunk runs inline, and
// if nobody stole the frame it is popped and also run inline. Only a steal
// pays for task creation: the thief runs the frame in a fresh context (a
// new "user-level thread"), and the victim, upon reaching the join, helps —
// it executes other stealable frames while it waits.
//
// The scheduler is memory-manager agnostic: the runtime layer (rts) builds
// fork-join-with-heaps on top of Push/PopBottom/WaitHelp, and installs a
// SafePoint hook so that idle and waiting workers participate in
// stop-the-world rendezvous when a baseline collector needs one.
//
// Only the stop-the-world baseline installs a parking hook. The
// hierarchical runtime's zone collections (leaf heaps at allocation safe
// points, merged ancestors at joins) run inline on the collecting worker
// and park nobody: while one worker collects, the others keep executing
// frames and stealing — including from the collecting worker's deque,
// whose published frames stay stealable throughout the collection.
//
// # Idle workers
//
// A worker that finds no frame keeps looking, yielding the processor
// between looks, for pollWindow of wall-clock time since it last had one;
// then takes a few sleeps of the shortest length the timer gives; then
// sleeps a tenth of a millisecond at a time (idleLadder, shared by the main
// loop and WaitHelp). The first rung is measured in time, not rounds,
// because it is what decides whether a request arriving at a steady rate
// finds a polling worker or a sleeping one, and how long a round takes
// depends on how cheap the rest of the runtime is. Workers never park on a
// channel: on a virtual processor a halted thread wakes slowly.
//
// # Worker chunk caches
//
// Each Worker owns a private mem.ChunkCache (NewPool builds it, bounded at
// mem.DefaultCacheChunksPerClass chunks per size class), the fast tier of the runtime's chunk lifecycle (alloc → cache → pool →
// OS, see package mem): heap growth on this worker acquires chunks from it
// and completed work releases chunks into it, with no synchronization,
// because only the worker's own goroutine ever touches its cache. The
// runtime threads the cache of the worker a task is CURRENTLY running on
// through allocation, collection, and release paths — a frame that is
// stolen simply starts trading chunks with its thief's cache instead. A
// worker that reaches coldTrimSleeps sleeps in a row flushes its cache back
// to the shared pool, so a drained server's chunks migrate to whichever workers
// take the next burst of load.
package sched
