package hh

import (
	"repro/internal/mem"
	"repro/internal/rts"
)

// Binding is the ordered set of rooted pointers a fork threads to its
// arms. Build one with Bind. A nil Binding forks with an empty
// environment (arms that need only captured scalars).
type Binding []Ref

// Bind collects refs into a Binding. All refs must be rooted on the task
// performing the fork.
func Bind(refs ...Ref) Binding { return refs }

// Env is the arm-side view of a fork's Binding: the same pointers,
// re-read on the arm's side of the fork (promoted where the mode requires
// it) and pre-registered in the arm's own root set. Env positions match
// Binding positions.
type Env struct {
	refs []Ref
}

// Len returns the number of bound pointers.
func (e *Env) Len() int { return len(e.refs) }

// Ref returns the arm-rooted handle at position i.
func (e *Env) Ref(i int) Ref { return e.refs[i] }

// Ptr returns the current value of the pointer at position i. Like any
// raw Ptr it is valid until the arm's next allocating operation; re-read
// it (or hold Ref(i)) across allocations.
func (e *Env) Ptr(i int) Ptr { return e.refs[i].Get() }

// packEnv builds the managed tuple that carries a Binding through the
// engine's fork. The refs' slots are read after the allocation, so a
// collection triggered by the tuple allocation itself is harmless.
func (t *Task) packEnv(b Binding) mem.ObjPtr {
	if len(b) == 0 {
		return mem.NilPtr
	}
	for _, r := range b {
		r.check()
		if r.s.t.inner != t.inner {
			panic("hh: Binding ref belongs to a different task")
		}
	}
	env := t.inner.Alloc(len(b), 0, mem.TagTuple)
	for i, r := range b {
		t.inner.WriteInitPtr(env, i, *r.slot)
	}
	return env
}

// openEnv unpacks the environment tuple into arm-rooted refs inside the
// given scope. The tuple's fields are read and registered before any
// allocation can occur on the arm, so no pointer is ever exposed raw.
func openEnv(at *Task, s *Scope, env mem.ObjPtr, n int) *Env {
	e := &Env{refs: make([]Ref, n)}
	for i := 0; i < n; i++ {
		e.refs[i] = s.Ref(Ptr{at.inner.ReadImmPtr(env, i)})
	}
	return e
}

// armThunk adapts a typed arm to an engine thunk. The arm's result is
// passed out through *out; if the result is a Ptr it is ALSO returned to
// the engine, which is what routes it through the mode's join machinery
// (rooting across stop-the-world relocation, promotion of stolen results
// in Manticore) — the caller must then prefer the engine's returned
// pointer over *out.
func armThunk[T any](r *Runtime, n int, f func(*Task, *Env) T, out *T) rts.Thunk {
	return func(inner *rts.Task, env mem.ObjPtr) mem.ObjPtr {
		at := r.taskFor(inner)
		var res T
		at.Scoped(func(s *Scope) {
			res = f(at, openEnv(at, s, env, n))
		})
		*out = res
		if p, ok := any(res).(Ptr); ok {
			return p.raw
		}
		return mem.NilPtr
	}
}

// finishResult replaces a Ptr result with the engine's joined pointer
// (which reflects any relocation or promotion the join performed).
func finishResult[T any](out *T, p mem.ObjPtr) {
	if _, ok := any(*out).(Ptr); ok {
		*out = any(Ptr{p}).(T)
	}
}

// Fork2 runs f and g in parallel and returns both results. The Binding's
// pointers travel through the fork as the environment; each arm receives
// them re-read and re-rooted as an Env. Arms must not capture Ptr or Ref
// values (see the package documentation); results that are managed
// pointers must be returned as Ptr.
//
// In a session started with Submit (unpinned), a fork made while no worker
// is idle runs f and then g on the calling task, as in Seq mode: no heap
// level, no stealable frame, and no promotion of what the arms write into
// shared objects. Run's pinned sessions always fork as the paper does.
// Results are the same either way.
func Fork2[A, B any](t *Task, env Binding, f func(t *Task, e *Env) A, g func(t *Task, e *Env) B) (A, B) {
	packed := t.packEnv(env)
	var ra A
	var rb B
	pa, pb := t.inner.ForkJoin(packed,
		armThunk(t.r, len(env), f, &ra),
		armThunk(t.r, len(env), g, &rb))
	finishResult(&ra, pa)
	finishResult(&rb, pb)
	return ra, rb
}
