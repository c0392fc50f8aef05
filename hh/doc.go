// Package hh is the public face of the hierarchical-heaps runtime: a
// typed, scope-safe API over the engine in internal/rts that reproduces
// "Hierarchical Memory Management for Mutable State" (Guatto, Westrick,
// Raghunathan, Acar, Fluet; PPoPP 2018).
//
// The engine's raw surface is deliberately low-level — untyped object
// handles, hand-packed environment tuples at every fork, and manually
// balanced PushRoot/PopRoots pairs. This package wraps it with Go
// generics and lexical scoping so that the paper's promise ("parallel
// memory management without changing how you write code") holds for Go
// callers too:
//
//	r := hh.New(hh.WithMode(hh.ParMem), hh.WithProcs(8))
//	defer r.Close()
//	sum := hh.Run(r, func(t *hh.Task) uint64 {
//		var total uint64
//		t.Scoped(func(s *hh.Scope) {
//			hist := s.Ref(t.AllocMut(0, 64, hh.TagArrI64))
//			hh.ParDo(t, hh.Bind(hist), 0, 1<<20, 4096,
//				func(t *hh.Task, e *hh.Env, lo, hi int) {
//					h := e.Ptr(0)
//					for i := lo; i < hi; i++ {
//						for {
//							b := int(hh.Hash64(uint64(i)) % 64)
//							old := t.ReadMutWord(h, b)
//							if t.CASWord(h, b, old, old+1) {
//								break
//							}
//						}
//					}
//				})
//			h := hist.Get()
//			for b := 0; b < 64; b++ {
//				total += t.ReadMutWord(h, b)
//			}
//		})
//		return total
//	})
//
// # Pointers, Refs, and Scopes
//
// A [Ptr] is a raw handle to a managed object. The collectors move
// objects, and they update only registered root slots — so a Ptr held in
// a plain Go variable is guaranteed valid only until the task's next
// allocating operation. To keep a pointer live across allocations,
// register it in the enclosing [Scope]:
//
//	t.Scoped(func(s *hh.Scope) {
//		r := s.Ref(p)        // rooted for the scope's lifetime
//		q := t.Alloc(2, 0, hh.TagTuple) // may collect and move things
//		use(r.Get())         // re-read: always the current location
//	})
//
// [Scope.Ref] registers the pointer on the task's shadow stack and
// [Task.Scoped] unregisters everything on exit — including panic unwinds —
// so root registration can no longer be unbalanced. Two rules are
// enforced at runtime: a Ref used after its scope exits panics, and Refs
// may only be created on the task's innermost open scope (creating one on
// an outer scope would let an inner scope's exit unregister it early).
//
// # Forks and environments
//
// Closures passed to [Fork2], [ParDo], [ParSum], or [Tabulate]
// must not capture Ptr or Ref values: a stolen arm runs as a different
// task (possibly on a different worker, against a promoted copy of the
// data), so captured handles would bypass both promotion and root
// updates. Scalars (ints, floats, bools, strings) may be captured
// freely. Managed pointers travel through the fork's environment
// instead: pass them as a [Binding] of Refs, and every arm receives an
// [Env] whose pointers have been re-read on the arm's side of the fork —
// promoted where the mode requires it — and pre-registered in the arm's
// own root set.
//
// Arms may return any Go value. A result that is (or contains) a managed
// pointer must be returned as a plain [Ptr] result — the engine then
// relocates or promotes it across the join as the mode requires; a
// pointer smuggled out inside a struct or slice is not tracked.
//
// # Memory operations
//
// Objects are made with [Task.Alloc], [Task.AllocMut] (objects shared and
// mutated across tasks) and [Task.AllocIn], filled with [Task.InitWord]
// and [Task.InitPtr], and then read and written through the mode's
// barriers ([Task.ReadMutPtr], [Task.WritePtr], [Task.CASWord], ...). In
// ParMem a WritePtr that links a task-local object into an object in an
// ancestor heap copies it up there (promotion). [Task.AllocIn] avoids
// that copy when the destination is known at allocation: the object is
// born in the heap that holds the anchor, and may then be initialized
// only with objects from that heap or above ([WithInvariantChecks]
// enforces this).
//
// # Runtimes
//
// [New] builds a runtime for one of the paper's four systems ([ParMem],
// [STW], [Seq], [Manticore]). Memory accounting is process-global, so at
// most one Runtime may be open at a time; New panics if the previous one
// was not closed.
//
// # Sessions and result lifetimes
//
// Every unit of work is a session: an independent root-level subtree of
// the hierarchy. [Run] executes one pinned session and blocks; [Submit]
// starts a session that runs concurrently with the caller and with other
// sessions, which is how a serving process hosts many simultaneous
// requests on one runtime (package hh/serve adds admission control and
// backpressure on top).
//
// Result lifetime follows the session's reclamation policy, not "until the
// next Run" (sessions are concurrent, so there is no next-Run boundary):
//
//   - An UNPINNED session ([SessionOpts].Pin false) is reclaimed wholesale
//     when it completes — its chunks are released in bulk and every Ptr it
//     created is dead once Wait returns. Its uint64 result (a checksum, a
//     count, a scalar answer) is the only thing that survives.
//   - A PINNED session (Run, or Pin true) merges its subtree into the
//     process super-root at completion, so a Ptr result and everything
//     reachable from it stay valid until Close. Pinned memory is never
//     collected: pin results, not scratch space. In STW and Manticore,
//     where sessions allocate into worker heaps, Run instead copies a Ptr
//     result's graph into the root heap; a Ptr nested inside a non-Ptr
//     result (a struct or a slice of them) is kept only in ParMem and Seq.
//   - A session of any kind may store pointers into a pinned object, and
//     what they point to stays valid with it. ParMem and Manticore promote
//     the stored graph into the root heap, STW's collector scans the root
//     heap's pointer fields, and a Seq session that stores into an object
//     outside its own heap is marked escaped: it is no longer collected,
//     and its heap is merged into the super-root when it completes, failed
//     or not.
//
// The engine layers under internal/ (mem, heap, core, gc, sched, rts,
// seq, graph, bench, report) remain the reference implementation of the
// paper's algorithms; see DESIGN.md for that inventory.
package hh
