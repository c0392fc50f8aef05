package rts

import (
	"time"

	"repro/internal/core"
	"repro/internal/gc"
	"repro/internal/heap"
	"repro/internal/mem"
	"repro/internal/sched"
)

// Task is one user-level thread: the execution context for a path of
// forkjoin tasks (Appendix B). It allocates through its superheap — the
// stack of heaps its forks pushed in ParMem, one level everywhere else —
// carries per-task operation counters, and holds the shadow stack of GC
// root slots.
type Task struct {
	rt  *Runtime
	w   *sched.Worker
	sh  *heap.Superheap
	ws  *workerState // STW / Manticore: the worker whose root set holds the task
	ses *Session     // owning session (every task belongs to one)

	// Ops tallies this task's memory operations (merged at completion).
	Ops     core.Counters
	gcStats gc.Stats
	gcNanos int64
	forks   ForkCounts

	// pbuf is the task's promote buffer: the reusable scratch and clock
	// sampler for promotion lock climbs (core.PromoteBuf). Task-private, so
	// the write barrier's slow path allocates nothing in steady state.
	pbuf core.PromoteBuf

	roots []*mem.ObjPtr

	// pending tracks the frames this task published but has not yet
	// joined, newest last; the session abort path drains it (session.go).
	pending []*sched.Frame

	// madeHeaps records the hierarchy heaps this task created (superheap
	// pushes, stolen bases), task-locally to keep the fork path lock-free;
	// finish merges it into the session's reclamation registry.
	madeHeaps []*heap.Heap
}

// Session returns the session the task belongs to.
func (t *Task) Session() *Session { return t.ses }

// Runtime returns the owning runtime.
func (t *Task) Runtime() *Runtime { return t.rt }

// GCNanosSoFar reports GC time observed so far: this task's own (not yet
// merged) plus everything already merged or charged at the runtime level.
// The benchmark harness snapshots it to separate setup-phase from
// run-phase collection time.
func (t *Task) GCNanosSoFar() int64 { return t.gcNanos + t.rt.gcNanos.Load() }

// PushRoot registers object-pointer slots on the task's shadow stack and
// returns a mark for PopRoots. Collections update registered slots in
// place, so any pointer held in a Go local across an allocating call must
// be registered for the duration of that call.
func (t *Task) PushRoot(slots ...*mem.ObjPtr) int {
	mark := len(t.roots)
	t.roots = append(t.roots, slots...)
	return mark
}

// RootCount reports how many root slots are currently registered. The
// public façade's scope tests use it to verify push/pop balance.
func (t *Task) RootCount() int { return len(t.roots) }

// PopRoots unregisters every slot pushed since the mark.
func (t *Task) PopRoots(mark int) {
	for i := mark; i < len(t.roots); i++ {
		t.roots[i] = nil
	}
	t.roots = t.roots[:mark]
}

// finish merges the task's statistics into the runtime, hands its created
// heaps to the session's reclamation registry, and deregisters it.
func (t *Task) finish() {
	r := t.rt
	if t.ws != nil {
		delete(t.ws.tasks, t)
	}
	t.ses.addHeaps(t.madeHeaps)
	t.madeHeaps = nil
	// Latency attribution: how much of this task's wall time went to
	// collections and to promotion climbs. Summed per session so the
	// serving layer can split a request's latency into queue / GC /
	// barrier / mutator (serve.ServeStats).
	t.ses.gcAttrNanos.Add(t.gcNanos)
	t.ses.barrierAttrNanos.Add(t.Ops.PromoteNanos)
	r.totalsMu.Lock()
	r.ops.Add(&t.Ops)
	r.gcStats.Add(t.gcStats)
	r.forks.add(t.forks)
	r.totalsMu.Unlock()
	r.gcNanos.Add(t.gcNanos)
}

// ForkCounts counts forks by the path they took (Task.forkJoin).
type ForkCounts struct {
	// Inline forks ran both arms on the forking task: every Seq fork, and
	// an unpinned session's fork while no worker was idle.
	Inline int64
	// Parallel forks published the right arm as a stealable frame (and in
	// ParMem pushed a heap level).
	Parallel int64
}

func (c *ForkCounts) add(o ForkCounts) {
	c.Inline += o.Inline
	c.Parallel += o.Parallel
}

// CurrentHeap returns the heap the task is allocating into.
func (t *Task) CurrentHeap() *heap.Heap { return t.sh.Current() }

// chunkCache returns the chunk cache of the worker this task is currently
// executing on. Allocation, collection, and release paths thread it down
// so chunk traffic stays worker-local; because it is resolved per call
// from t.w, the cache is only ever touched by its owning worker's
// goroutine.
func (t *Task) chunkCache() *mem.ChunkCache { return t.w.Chunks }

// collectLocal collects the worker-local heap in Manticore mode, rooted by
// every task hosted on this worker (all suspended except the caller). The
// heap's write lock, which the zone recorder holds for the copy, excludes
// a thief's promotion of a stolen environment out of this heap
// (frame.stolenEnv) and makes this worker the heap's only collector.
// Recording it as a zone makes the local heaps' natural concurrency
// (disjoint per-worker zones under the shared global heap) show up in the
// same counters as ParMem's.
func (t *Task) collectLocal() {
	start := time.Now()
	var roots []*mem.ObjPtr
	for ht := range t.ws.tasks {
		roots = append(roots, ht.roots...)
	}
	stats := t.rt.zones.Collect(t.chunkCache(), 0, t.ws.heap, roots, gc.LeafZone)
	t.gcNanos += time.Since(start).Nanoseconds()
	t.gcStats.Add(stats)
}
