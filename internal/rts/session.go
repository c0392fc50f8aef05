package rts

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/heap"
	"repro/internal/sched"
	"repro/internal/trace"
)

// Multi-root sessions: the serving layer's unit of work. Each submitted
// session becomes an independent root-level subtree of the hierarchy — a
// child of the process super-root heap — published to the scheduler pool as
// a stealable root frame and executed concurrently with every other
// session. Inside a session the usual fork-join discipline applies
// unchanged; across sessions the subtrees are disjoint, so their zone
// collections run concurrently (the ZoneRecorder tags them with the
// session id and reports how many distinct sessions it saw collecting at
// once).
//
// Completion reclaims the subtree WHOLESALE: every chunk the session
// allocated — however many tasks and heaps it forked — is released in bulk
// without a merge into the super-root and without per-object work. This is
// the region-style payoff of the hierarchy: request memory whose lifetime
// is the request. A session submitted with Pin instead joins its subtree
// into the super-root, keeping its result's object graph valid until the
// runtime closes.
//
// Failure isolation: a panic in any of the session's tasks (including a
// blown chunk budget) aborts only that session. The panicking task drains
// the frames it published but that were never stolen, sibling tasks of the
// same session stop at their next allocation safe point, and the subtree is
// reclaimed wholesale once every outstanding frame has drained. Other
// sessions never notice.

// SessionOpts configures one submitted session.
type SessionOpts struct {
	// Pin preserves the session's object graph: on completion the subtree
	// is joined into the super-root instead of being released, so pointer
	// results stay valid until the runtime closes. Failed sessions are
	// never pinned.
	Pin bool

	// BudgetWords caps the words the session's tasks may allocate in total
	// (0 = unlimited). Exceeding the budget aborts the session with
	// ErrBudgetExceeded at an allocation safe point; the partially built
	// subtree is reclaimed wholesale.
	BudgetWords int64
}

// ErrBudgetExceeded aborts a session whose tasks allocated past the
// session's BudgetWords.
var ErrBudgetExceeded = errors.New("rts: session allocation budget exceeded")

// PanicError wraps a panic raised by a session's own code; Session.Wait
// returns it instead of crashing the worker, and Runtime.Run re-raises the
// original value.
type PanicError struct{ Value any }

func (e *PanicError) Error() string { return fmt.Sprintf("rts: session panicked: %v", e.Value) }

// AbortError is a voluntary rollback raised by Task.Abort: the session's
// own code decided to abandon the request (a transaction that failed
// optimistic validation, say) and unwound through the same panic-isolation
// path a crash would take, so the subtree is reclaimed wholesale — the
// hierarchy's free rollback. Result carries an application word (e.g. the
// conflicting key) and Reason the application's why; callers distinguish
// voluntary aborts from crashes with errors.As and decide whether to
// retry.
type AbortError struct {
	Reason error  // application-supplied cause (may be nil)
	Result uint64 // application payload, e.g. a conflict discriminator
}

func (e *AbortError) Error() string {
	return fmt.Sprintf("rts: session aborted by its own code: %v", e.Reason)
}

// Unwrap exposes the application's cause to errors.Is/As chains.
func (e *AbortError) Unwrap() error { return e.Reason }

// Abort rolls the calling session back: it records an *AbortError as the
// session's failure and unwinds through the panic-isolation machinery, so
// every sibling task stops at its next allocation safe point and the
// subtree — all memory the request staged — is reclaimed wholesale exactly
// as a crash would be, with no per-object undo. Abort never returns.
// Session.Wait returns the *AbortError, and Runtime.Run re-panics it.
func (t *Task) Abort(result uint64, reason error) {
	t.ses.fail(&AbortError{Reason: reason, Result: result})
	panic(sessionAbort{})
}

// sessionAbort is the internal panic raised at safe points of a session
// that has already failed; boundaries translate it back to the recorded
// first failure.
type sessionAbort struct{}

// asSessionError translates a recovered panic value into the session error.
func (s *Session) asSessionError(p any) error {
	if _, ok := p.(sessionAbort); ok {
		s.mu.Lock()
		defer s.mu.Unlock()
		if s.err != nil {
			return s.err
		}
		return &PanicError{Value: p} // unreachable: fail precedes the panic
	}
	return &PanicError{Value: p}
}

// Session is one in-flight (or completed) root-level unit of work.
type Session struct {
	r   *Runtime
	id  uint64
	pin bool

	budgetWords int64
	allocWords  atomic.Int64

	// heap is the session subtree's base, a child of the process super-root
	// (ParMem and Seq; nil in STW and Manticore, whose sessions allocate
	// into worker heaps).
	heap *heap.Heap

	// escaped is set by a Seq pointer store into an object outside the
	// session's heap (Task.WritePtr): something the session built is now
	// reachable from a pinned object, so its heap is no longer collected
	// and is merged into the super-root at completion, failed or not. Only
	// the session's one task writes it (Seq forks inline).
	escaped bool

	// outstanding counts published-but-unconsumed frames, the root frame
	// included. Reclamation waits for it to reach zero so that no stolen
	// task of an aborted session can touch the subtree after its chunks are
	// released.
	outstanding atomic.Int64

	aborted atomic.Bool

	mu    sync.Mutex
	err   error        // first failure
	heaps []*heap.Heap // every heap the session's tasks created (for reclamation)

	// Latency attribution, accumulated by Task.finish as the session's tasks
	// complete: nanoseconds its tasks spent inside zone/STW collections and
	// inside promotion lock climbs. Atomic because stolen tasks finish on
	// other workers; all adds happen-before done closes (reclamation waits
	// out every outstanding frame).
	gcAttrNanos      atomic.Int64
	barrierAttrNanos atomic.Int64

	res            uint64
	wholesaleBytes int64
	mergedBytes    int64
	done           chan struct{}
}

// ID returns the session's runtime-unique identifier (also its zone-family
// tag in the collector's statistics).
func (s *Session) ID() uint64 { return s.id }

// Submit starts fn as a new root-level session and returns immediately.
// The session runs concurrently with other sessions (and with the caller);
// Wait blocks for its completion. In the hierarchical modes the session's
// subtree is reclaimed wholesale on completion unless opts.Pin is set.
func (r *Runtime) Submit(opts SessionOpts, fn func(*Task) uint64) *Session {
	// Counter before flag: Close stores the flag and then waits for the
	// counter, so every Submit either registers before Close's wait loop
	// reads zero (Close waits the session out) or observes the flag here.
	live := r.liveSessions.Add(1)
	if r.closed.Load() {
		r.liveSessions.Add(-1)
		panic("rts: Submit on a closed Runtime")
	}
	s := &Session{
		r:           r,
		id:          r.sessionIDs.Add(1),
		pin:         opts.Pin,
		budgetWords: opts.BudgetWords,
		done:        make(chan struct{}),
	}
	if r.cfg.Mode == ParMem || r.cfg.Mode == Seq {
		s.heap = heap.NewChild(r.rootHeap)
		s.heaps = append(s.heaps, s.heap)
	}
	r.sessTotals.Submitted.Add(1)
	if trace.Enabled() {
		trace.Emit(-1, trace.EvSubmit, 0, s.id)
	}
	for {
		peak := r.peakSessions.Load()
		if live <= peak || r.peakSessions.CompareAndSwap(peak, live) {
			break
		}
	}
	s.outstanding.Add(1) // the root frame
	r.pool.Submit(sched.NewFrame(func(w *sched.Worker) { s.runRoot(w, fn) }))
	return s
}

// Wait blocks until the session completes and returns its result, or the
// error that aborted it (ErrBudgetExceeded, or a *PanicError wrapping the
// session's own panic).
func (s *Session) Wait() (uint64, error) {
	<-s.done
	return s.res, s.err
}

// GCNanos reports the time the session's tasks spent inside collections
// (zone or STW), summed across tasks. Valid after Wait; 0 while in flight.
func (s *Session) GCNanos() int64 {
	select {
	case <-s.done:
		return s.gcAttrNanos.Load()
	default:
		return 0
	}
}

// BarrierNanos reports the time the session's tasks spent inside promotion
// lock climbs (lock + copy + store), summed across tasks. Valid after Wait.
func (s *Session) BarrierNanos() int64 {
	select {
	case <-s.done:
		return s.barrierAttrNanos.Load()
	default:
		return 0
	}
}

// WholesaleBytes reports the chunk bytes released in bulk when the session
// completed (0 while in flight, for pinned sessions, and in the flat
// modes).
func (s *Session) WholesaleBytes() int64 {
	select {
	case <-s.done:
		return s.wholesaleBytes
	default:
		return 0
	}
}

// MergedBytes reports the chunk bytes a pinned session merged into the
// super-root on completion.
func (s *Session) MergedBytes() int64 {
	select {
	case <-s.done:
		return s.mergedBytes
	default:
		return 0
	}
}

// fail records the session's first failure and flips it to aborted; every
// task of the session observes the flag at its next allocation safe point
// and unwinds.
func (s *Session) fail(err error) {
	s.mu.Lock()
	if s.err == nil {
		s.err = err
	}
	s.mu.Unlock()
	s.aborted.Store(true)
}

// addHeaps merges a finished task's created-heap list into the session's
// reclamation registry.
func (s *Session) addHeaps(hs []*heap.Heap) {
	if len(hs) == 0 {
		return
	}
	s.mu.Lock()
	s.heaps = append(s.heaps, hs...)
	s.mu.Unlock()
}

// frameDone consumes one outstanding frame.
func (s *Session) frameDone() { s.outstanding.Add(-1) }

// runRoot executes the session body as the root task on worker w, waits
// out any orphaned frames, and reclaims the subtree.
func (s *Session) runRoot(w *sched.Worker, fn func(*Task) uint64) {
	var span uint64
	if trace.Enabled() {
		span = trace.Begin(w.ID, trace.EvSession, 0, s.id)
	}
	t := s.r.newTask(w, s, s.heap)
	res := s.protect(t, fn)
	t.finish()
	s.frameDone()

	// After an abort, frames this session published may have been stolen
	// and still be running on other workers; the subtree cannot be released
	// under them. Spin at the scheduler's safe point (an STW rendezvous
	// must be able to park this worker while it waits).
	for s.outstanding.Load() > 0 {
		w.SafePoint()
		time.Sleep(20 * time.Microsecond)
	}
	s.reclaim(w, res)
	if span != 0 {
		outcome := uint32(0)
		if s.err != nil {
			outcome = 1
		}
		trace.End(w.ID, trace.EvSession, span, outcome, s.id)
	}
}

// guard runs body on task t, converting a panic — the session's own code,
// or the abort signal raised at a safe point — into the session's failure
// state and unwinding t's published-but-unstolen frames. The defer
// ordering matters everywhere guard is used: the recover (and its drain)
// must complete before t is finished, and t must be finished before the
// frame's outstanding count is consumed, or reclamation could race the
// task's heap handoff.
func (s *Session) guard(t *Task, body func()) {
	defer func() {
		if p := recover(); p != nil {
			s.fail(s.asSessionError(p))
			t.drainPending()
		}
	}()
	body()
}

// protect is guard for the session's root body.
func (s *Session) protect(t *Task, fn func(*Task) uint64) (res uint64) {
	s.guard(t, func() { res = fn(t) })
	return res
}

// reclaim releases (or, pinned or escaped, merges) the session subtree
// and publishes the session's completion. It runs on worker w, whose
// chunk cache receives the released chunks first — the per-request reuse
// path: the chunks of the request that just finished become the chunks of
// whatever this worker runs next, with no directory traffic at all.
func (s *Session) reclaim(w *sched.Worker, res uint64) {
	r := s.r
	s.mu.Lock()
	err := s.err
	heaps := s.heaps
	s.heaps = nil
	s.mu.Unlock()

	if s.heap != nil {
		if (s.pin && err == nil || s.escaped) && s.heap.IsAlive() {
			// Pinned or escaped: splice the subtree's chunks into the
			// super-root in O(1). The write lock orders the splice against
			// promotions into the super-root by concurrent sessions.
			bytes := s.heap.CapWords() * 8
			r.rootHeap.Lock(heap.WRITE)
			heap.Join(r.rootHeap, s.heap)
			r.rootHeap.Unlock()
			s.mergedBytes = bytes
		}
		// Wholesale release of everything still alive. On a normal unpinned
		// completion that is exactly the session base (every forked heap
		// was joined back into it); after an abort it also covers heaps
		// orphaned mid-unwind. Heaps already merged away free nothing.
		var freed int64
		for _, h := range heaps {
			freed += heap.ReleaseWholesale(w.Chunks, r.rootHeap, h)
		}
		s.wholesaleBytes = freed
	}

	s.res, s.err = res, err
	r.liveSessions.Add(-1)
	if err != nil {
		r.sessTotals.Failed.Add(1)
	} else {
		r.sessTotals.Completed.Add(1)
	}
	r.sessTotals.WholesaleBytes.Add(s.wholesaleBytes)
	r.sessTotals.MergedBytes.Add(s.mergedBytes)
	close(s.done)
}

// allocGate is the session hook on every allocation safe point: it aborts
// the calling task if the session has failed, and enforces the session's
// allocation budget.
func (t *Task) allocGate(words int) {
	s := t.ses
	if s.aborted.Load() {
		panic(sessionAbort{})
	}
	if s.budgetWords > 0 && s.allocWords.Add(int64(words)) > s.budgetWords {
		s.fail(ErrBudgetExceeded)
		panic(sessionAbort{})
	}
}

// drainPending unwinds the frames this task published but never joined:
// frames still in the worker's deque are popped and cancelled (they are
// the newest entries — thieves steal oldest-first, so anything below the
// first nil pop was stolen and will be consumed by its thief). Called only
// on the panic path, on the task's own worker.
func (t *Task) drainPending() {
	for len(t.pending) > 0 {
		top := t.pending[len(t.pending)-1]
		popped := t.w.PopBottom()
		if popped == nil {
			// Deque empty: every remaining pending frame was stolen; each
			// thief consumes its own frame's outstanding count.
			t.pending = nil
			return
		}
		if popped != top {
			panic("rts: foreign frame popped while unwinding a session abort")
		}
		t.pending = t.pending[:len(t.pending)-1]
		t.ses.frameDone()
	}
}

// sessionCounters aggregates the runtime's lifetime session statistics.
type sessionCounters struct {
	Submitted      atomic.Int64
	Completed      atomic.Int64
	Failed         atomic.Int64
	WholesaleBytes atomic.Int64
	MergedBytes    atomic.Int64
}

// SessionTotals is the Stats snapshot of the runtime's session activity.
type SessionTotals struct {
	Submitted      int64 // sessions submitted
	Completed      int64 // sessions completed without failure
	Failed         int64 // sessions aborted (budget, panic)
	PeakLive       int64 // peak simultaneously in-flight sessions
	WholesaleBytes int64 // chunk bytes released in bulk at session completion
	MergedBytes    int64 // chunk bytes pinned sessions merged into the super-root
}
