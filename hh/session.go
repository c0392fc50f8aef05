package hh

import (
	"repro/internal/rts"
)

// Multi-root sessions: each Submit starts an independent root-level unit
// of work — its own subtree of the heap hierarchy under the process
// super-root — that runs concurrently with other sessions and with the
// caller. Inside a session all of the package's fork-join machinery works
// unchanged; across sessions the subtrees are disjoint, so their
// collections proceed concurrently (the cross-request GC concurrency
// reported in Stats().Zones.MaxConcurrentSessions).
//
// On completion an unpinned session's subtree is reclaimed WHOLESALE: its
// chunks are released in bulk, with no per-object work and no merge into
// the super-root. Every Ptr that was handed out by the session is dead the
// moment Wait returns — sessions whose pointer results must outlive them
// set Pin, which merges the subtree into the super-root instead (valid
// until Close).
//
// [Server] in package hh/serve layers admission control, backpressure, and
// latency accounting over Submit for closed-loop serving.

// SessionOpts configures one submitted session: Pin preserves its object
// graph past completion by merging the subtree into the super-root (pointer
// results then stay valid until the runtime closes), and BudgetWords caps
// the words it may allocate (0 = unlimited; a session past it aborts with
// ErrBudgetExceeded and is reclaimed wholesale).
type SessionOpts = rts.SessionOpts

// ErrBudgetExceeded aborts a session that allocated past its BudgetWords.
var ErrBudgetExceeded = rts.ErrBudgetExceeded

// PanicError wraps a panic raised inside a session; Wait returns it
// instead of letting the panic take down the process, so one bad request
// cannot crash a serving runtime.
type PanicError = rts.PanicError

// AbortError is the failure Wait returns when the session rolled itself
// back with Task.Abort — optimistic-concurrency conflicts, validation
// failures, any voluntary abandon. Result carries the aborting code's
// payload word; match with errors.As to distinguish retryable aborts from
// crashes.
type AbortError = rts.AbortError

// Session is a handle to one in-flight (or completed) unit of work. Wait
// blocks for its result; GCNanos and BarrierNanos attribute its tasks' time
// to collections and promotion climbs, and WholesaleBytes and MergedBytes
// report what its completion released or kept.
type Session = rts.Session

// Submit starts fn as a new root-level session and returns immediately;
// Wait blocks for the result. Sessions run concurrently with each other:
// submit many to serve simultaneous requests. The closure must follow the
// same capture rules as fork arms (no Ptr/Ref capture; the session
// allocates everything it touches, or receives data through pinned
// super-root objects).
func (r *Runtime) Submit(opts SessionOpts, fn func(t *Task) uint64) *Session {
	return r.rt.Submit(opts, func(it *rts.Task) uint64 {
		return fn(&Task{r: r, inner: it})
	})
}
