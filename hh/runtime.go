package hh

import (
	"repro/internal/mem"
	"repro/internal/rts"
)

// Runtime is one configured runtime system. Create it with New, execute
// work with Run, inspect it with Stats, and release it with Close.
type Runtime struct {
	rt *rts.Runtime
}

// Stats is a snapshot of a runtime's aggregate statistics: operation
// counters by cost class (Ops), collection totals (GC, GCNanos), steal
// counts, peak memory, and the zone-concurrency counters of the
// hierarchical collector (Zones).
type Stats = rts.Totals

// New builds and starts a runtime. With no options it runs the paper's
// hierarchical system (ParMem) on every CPU. At most one Runtime may be
// open per process — memory accounting is process-global — and New panics
// if the previous Runtime has not been Closed.
func New(opts ...Option) *Runtime {
	return &Runtime{rt: rts.New(newConfig(opts))}
}

// Mode returns the runtime system in use.
func (r *Runtime) Mode() Mode { return r.rt.Config().Mode }

// Procs returns the worker count: in Seq mode, the number of sessions that
// run at once.
func (r *Runtime) Procs() int { return r.rt.Procs() }

// Stats returns aggregate statistics. Call it after Run completes.
func (r *Runtime) Stats() Stats { return r.rt.Stats() }

// CheckDisentangled verifies the disentanglement invariant over the
// surviving object graph (a debugging aid; a completed Run has merged
// every task heap into the root, so this covers everything live).
func (r *Runtime) CheckDisentangled() error { return r.rt.CheckDisentangled() }

// Close stops the workers and releases every heap owned by the runtime.
// Closing twice is a no-op.
func (r *Runtime) Close() { r.rt.Close() }

// ChunksInUse reports the process-wide count of live memory chunks. After
// Close it returns to its pre-New value unless objects leaked — stress
// drivers use it as a leak check.
func ChunksInUse() int64 { return mem.ChunksInUse() }

// Run executes fn as a single PINNED session — Submit + Wait — and blocks
// for its result. The result may be any Go value. A Ptr result, and every
// object reachable from it, remains valid until Close: pinning merges the
// session's subtree into the super-root (ParMem, Seq), and in STW and
// Manticore, whose sessions allocate into worker heaps, Run copies the
// result's graph into the root heap before the session ends. The root is
// never collected. A Ptr nested inside another result type (a struct or a
// slice) is kept only in ParMem and Seq. Concurrent sessions started with
// Submit may run alongside and cannot invalidate a pinned result; only
// unpinned sessions' own pointers die when their subtree is reclaimed
// wholesale at Wait. A panic inside fn is re-raised on the calling
// goroutine.
func Run[T any](r *Runtime, fn func(t *Task) T) T {
	var out T
	r.rt.Run(func(inner *rts.Task) uint64 {
		out = fn(&Task{r: r, inner: inner})
		if m := r.Mode(); m == STW || m == Manticore {
			if p, ok := any(out).(Ptr); ok {
				out = any(Ptr{inner.PromoteToRoot(p.raw)}).(T)
			}
		}
		return 0
	})
	return out
}
