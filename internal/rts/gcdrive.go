package rts

import (
	"time"

	"repro/internal/gc"
	"repro/internal/heap"
	"repro/internal/mem"
	"repro/internal/trace"
)

// The stop-the-world driver, used ONLY by the Spoonhower-style baseline
// (STW mode): any worker whose allocation trips the global trigger becomes
// the collector; all other workers park at safe points (allocations,
// forks, and the scheduler's idle/wait loops); the collector then runs a
// sequential semispace collection over every worker heap, rooted by every
// live task and by the pointer fields of the root heap above the worker
// heaps. Parked time is charged to GC, which is how the paper reports
// GC_72 for mlton-spoonhower ("processor time spent blocked during a
// stop-the-world collection").
//
// The hierarchical modes never use this rendezvous: their collections go
// through the concurrent zone driver (zonedrive.go), which parks nobody —
// the scheduler's safe-point hook is not even installed for them, so leaf
// and join collections proceed while every other worker keeps running.

// stwShouldCollect checks the global occupancy trigger.
func (r *Runtime) stwShouldCollect() bool {
	live := mem.LiveBytes() - r.baselineBytes
	threshold := int64(r.cfg.STWRatio * float64(r.stwLastLive.Load()))
	if threshold < r.cfg.STWFloorBytes {
		threshold = r.cfg.STWFloorBytes
	}
	return live >= threshold
}

// parkForGC blocks until no collection is in progress. Must be called with
// gcMu held; temporarily joins the stopped set.
func (r *Runtime) parkForGC() {
	for r.gcInProgress {
		r.gcStopped++
		r.gcCond.Broadcast() // let the collector recount
		r.gcCond.Wait()
		r.gcStopped--
	}
}

// stopForGC is the safe-point hook for workers with no task context
// (idle or waiting in the scheduler). Blocked time is charged to GC.
func (r *Runtime) stopForGC() {
	start := time.Now()
	r.gcMu.Lock()
	r.parkForGC()
	r.gcMu.Unlock()
	if d := time.Since(start); d > time.Microsecond {
		r.gcNanos.Add(d.Nanoseconds())
	}
}

// stopForGCTask is the safe-point check on allocation and fork paths.
func (t *Task) stopForGCTask() {
	start := time.Now()
	r := t.rt
	r.gcMu.Lock()
	r.parkForGC()
	r.gcMu.Unlock()
	if d := time.Since(start); d > time.Microsecond {
		t.gcNanos += d.Nanoseconds()
	}
}

// triggerSTW makes the calling task the collector: raise the flag, wait for
// the other P-1 workers to park, collect everything sequentially, release.
func (r *Runtime) triggerSTW(t *Task) {
	r.gcMu.Lock()
	if r.gcInProgress {
		// Someone else is collecting; park like everyone else, then let the
		// caller re-test its trigger.
		r.parkForGC()
		r.gcMu.Unlock()
		return
	}
	r.gcInProgress = true
	r.gcFlag.Store(true)
	// The span opens before the rendezvous wait so the trace shows the full
	// pause — flag raise to release — not just the copy phase.
	var span uint64
	if trace.Enabled() {
		span = trace.Begin(t.w.ID, trace.EvSTW, 0, 0)
	}
	for r.gcStopped < r.pool.NumWorkers()-1 {
		r.gcCond.Wait()
	}

	start := time.Now()
	zone := make([]*heap.Heap, 0, len(r.states))
	for _, ws := range r.states {
		zone = append(zone, ws.heap)
	}
	// Gather roots from the per-worker task sets. Safe without any lock on
	// the sets themselves: every other worker is parked in parkForGC (the
	// rendezvous above counted them), and a parked worker's last writes to
	// its ws.tasks happen-before this read via gcMu, which the collector
	// holds and every parker acquired on its way in. The caller's own task
	// set is touched only by this goroutine.
	var roots []*mem.ObjPtr
	for _, ws := range r.states {
		for task := range ws.tasks {
			roots = append(roots, task.roots...)
		}
	}
	// The root heap stays put, but a plain STW store may have linked a
	// worker object into a pinned result that lives there.
	stats := gc.CollectUnder(t.chunkCache(), r.rootHeap, zone, roots)
	r.stwLastLive.Store(mem.LiveBytes() - r.baselineBytes)
	t.gcStats.Add(stats)
	t.gcNanos += time.Since(start).Nanoseconds()

	r.gcInProgress = false
	r.gcFlag.Store(false)
	r.gcCond.Broadcast()
	r.gcMu.Unlock()
	if span != 0 {
		trace.End(t.w.ID, trace.EvSTW, span, 0, uint64(stats.WordsCopied))
	}
}
