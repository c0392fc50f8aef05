package rts

import (
	"time"

	"repro/internal/gc"
	"repro/internal/heap"
	"repro/internal/mem"
)

// The hierarchical (ParMem) collection driver. Unlike the stop-the-world
// rendezvous in gcdrive.go, nothing here parks other workers: a collection
// targets a zone — a heap with no live descendants — and runs inline on
// the task that owns it, holding only the zone heap's write lock. Workers in
// other subtrees keep allocating, mutating, promoting, and stealing; zones
// of different tasks collect concurrently, with nothing to admit them.
//
// Two triggers produce zones:
//
//   - Leaf zones: an allocation safe point finds the task's current heap
//     past policy. The current heap is always a leaf of the live
//     hierarchy, and only this task can reference into it, so the task's
//     own shadow stack is the complete root set.
//   - Join zones (internal-node collection): a ForkJoin's join merges the
//     child heap into its parent, and the merged ancestor — which now has
//     no live descendants either, since fork-join discipline completed
//     every task below it — is collected if it has grown past policy. At
//     a top-level join the merged ancestor is the hierarchy root itself,
//     so this subsumes whole-hierarchy collection without any rendezvous.
//
// Root-set safety against concurrent readers: a thief reads a published
// frame's env slot without locks (ParMem stolenEnv). Every published
// frame was forked at a depth strictly shallower than the collecting
// task's current heap — the fork pushed a deeper heap before publishing —
// so pending frames' envs always point outside the zone, and the
// collector never writes a slot whose pointer did not move (gc.CopyRoot).

// collectZone collects the heap h as a zone, rooted by the task's shadow
// stack, charging the elapsed time to this task's GC account. The zone is
// tagged with the task's session, so the recorder can report how many
// distinct sessions collected concurrently (the serving layer's
// cross-request GC concurrency).
func (t *Task) collectZone(h *heap.Heap, kind gc.ZoneKind) {
	start := time.Now()
	stats := t.rt.zones.Collect(t.chunkCache(), t.ses.id, h, t.roots, kind)
	t.gcNanos += time.Since(start).Nanoseconds()
	t.gcStats.Add(stats)
}

// maybeCollectJoin runs the internal-node collection at a join point: the
// superheap has just popped, so the current heap is the merged ancestor.
// extra roots (the join's result pointers, not yet registered) are pushed
// for the duration. Policy is evaluated on the merged heap, whose
// allocation and live accounting were accumulated by heap.Join.
func (t *Task) maybeCollectJoin(extra ...*mem.ObjPtr) {
	if !t.shouldCollect(t.sh.Current()) {
		return
	}
	mark := t.PushRoot(extra...)
	t.collectZone(t.sh.Current(), gc.JoinZone)
	t.PopRoots(mark)
}

// shouldCollect is the ParMem/Seq trigger behind both zone kinds. A heap of
// an unpinned session dies wholesale when the session is reclaimed, so
// collecting it early only copies what release frees a moment later: it is
// left alone until it holds the default policy's floor (1 MiB), after which
// the configured policy applies unchanged. Checking the floor per heap
// keeps shared counters off the allocation path, and still bounds each
// heap of the session between collections. Pinned sessions (Runtime.Run
// among them) merge into the super-root instead of dying, and keep the
// configured policy throughout. An escaped Seq session is not collected
// at all: a pinned object outside the zone may point into it.
func (t *Task) shouldCollect(h *heap.Heap) bool {
	if t.ses.escaped || !t.ses.pin && h.UsedWords() < gc.DefaultPolicy().MinWords {
		return false
	}
	return t.rt.cfg.Policy.ShouldCollect(h)
}
