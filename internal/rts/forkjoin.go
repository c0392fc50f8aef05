package rts

import (
	"repro/internal/heap"
	"repro/internal/mem"
	"repro/internal/sched"
)

// Thunk is one forkjoin arm (Figure 3's thunk). It receives the task
// context and an environment pointer and returns an object pointer (NilPtr
// for unit results).
//
// The environment is how object pointers cross a fork: closures must not
// capture mem.ObjPtr values directly, because collectors only update
// registered root slots and promoted environments must reach the stolen
// side. Pack pointers into env (a single object or a small tuple) and
// re-read them inside the thunk. Scalars may be captured freely.
type Thunk func(t *Task, env mem.ObjPtr) mem.ObjPtr

// ScalarThunk is a forkjoin arm returning a raw word (fib-style results);
// the result is never treated as a pointer.
type ScalarThunk func(t *Task, env mem.ObjPtr) uint64

// frame carries a forkjoin's stealable right arm, the root slots of its
// env and pointer results, and its join state. The results live here, in
// the one heap object every parallel fork allocates anyway, so rooting
// them costs no Go allocation of its own.
type frame struct {
	sf       *sched.Frame
	owner    *Task // forking task: its runtime, session and worker state
	env      mem.ObjPtr
	left     mem.ObjPtr      // left arm's pointer result
	result   mem.ObjPtr      // right arm's pointer result
	scalar   uint64          // right arm's word result
	childSH  *heap.Superheap // ParMem: the thief's superheap, adopted at join
	forkHeap *heap.Heap      // the forking task's current heap at the fork
}

// publish makes fr stealable: it charges the frame to the session's
// outstanding count (reclamation must not run under a live thief), pushes
// it on the worker deque, and records it on the task's pending list for
// the abort-time drain.
func (t *Task) publish(fr *frame) {
	t.ses.outstanding.Add(1)
	t.w.Push(fr.sf)
	t.pending = append(t.pending, fr.sf)
}

// joined removes the newest pending frame at its join point. inline
// reports whether the parent consumed the frame itself (a stolen frame's
// outstanding count is consumed by its thief instead).
func (t *Task) joined(fr *frame, inline bool) {
	if t.pending[len(t.pending)-1] != fr.sf {
		panic("rts: pending-frame stack out of sync at join")
	}
	t.pending = t.pending[:len(t.pending)-1]
	if inline {
		t.ses.frameDone()
	}
}

// pushHeap pushes a fresh superheap level for a fork and records it for
// session reclamation; popHeap drops the record once the level has been
// joined away on the normal path, keeping the registry O(live heaps)
// instead of O(lifetime forks) — only a panic unwind (which skips the
// PopJoin) leaves entries behind for the session's reclaimer.
func (t *Task) pushHeap() {
	h := t.sh.Push()
	t.madeHeaps = append(t.madeHeaps, h)
}

func (t *Task) popHeap() {
	// The just-popped level is necessarily this task's newest recorded
	// heap: nested forks push and pop in LIFO order on the same task, and
	// stolen arms record their heaps on the thief's task instead.
	t.madeHeaps = t.madeHeaps[:len(t.madeHeaps)-1]
}

// ForkJoin runs f and g in parallel (Figure 5) and returns both results.
// env is passed to both arms — the stolen arm may receive a promoted copy
// (Manticore mode).
func (t *Task) ForkJoin(env mem.ObjPtr, f, g Thunk) (mem.ObjPtr, mem.ObjPtr) {
	l, r, _, _ := t.forkJoin(env, f, g, nil, nil)
	return l, r
}

// ForkJoinScalar is ForkJoin for raw-word results.
func (t *Task) ForkJoinScalar(env mem.ObjPtr, f, g ScalarThunk) (uint64, uint64) {
	_, _, l, r := t.forkJoin(env, nil, nil, f, g)
	return l, r
}

// runArm runs one arm on t and stores its result: a pointer arm's in *p,
// a word arm's in *w. Exactly one of f and fw is non-nil.
func runArm(t *Task, env mem.ObjPtr, f Thunk, fw ScalarThunk, p *mem.ObjPtr, w *uint64) {
	if f != nil {
		*p = f(t, env)
	} else {
		*w = fw(t, env)
	}
}

// forkJoin is the fork-join protocol behind both entry points: pointer
// arms (f, g) or word arms (fw, gw), the other pair nil. Heap management
// per Appendix B: the superheap gains a level for the fork; if the right
// arm is stolen the thief bases a child superheap at the fork heap, which
// the parent adopts and joins at the join point; the popped level is then
// a zone with no live descendants, collected if its policy says so.
//
// Seq runs every fork inline, and so does an unpinned session when no
// worker is on its idle ladder: nobody could steal the right arm before
// its owner pops it back, so the heap level, the frame and the promotions
// of what the arms publish upward would buy no parallelism. Pinned
// sessions, Runtime.Run's included, always take the paper's path.
func (t *Task) forkJoin(env mem.ObjPtr, f, g Thunk, fw, gw ScalarThunk) (l, r mem.ObjPtr, lw, rw uint64) {
	rt := t.rt
	if rt.cfg.Mode == Seq || (!t.ses.pin && !rt.pool.HasIdle()) {
		t.forks.Inline++
		// Both arms run inline. The root slots are boxed here, in the
		// branch, so that a word fork costs one 8-byte box and the parallel
		// path's locals stay on the stack.
		e := env
		mark := t.PushRoot(&e)
		if rt.gcFlag.Load() {
			// STW's fork safe point, as on the parallel path: an inline
			// arm that never allocates must not hold off a rendezvous.
			t.stopForGCTask()
		}
		if f != nil {
			left := f(t, e)
			t.PushRoot(&left)
			r = g(t, e)
			l = left
		} else {
			lw = fw(t, e)
			rw = gw(t, e)
		}
		t.PopRoots(mark)
		return l, r, lw, rw
	}
	t.forks.Parallel++
	fr := &frame{owner: t, env: env, forkHeap: t.sh.Current()}
	mark := t.PushRoot(&fr.env, &fr.left)
	if rt.cfg.Mode == STW {
		// Only the stop-the-world collector may need to relocate a stolen
		// result (everything is parked when it runs). In ParMem the result
		// sits in the thief's heap, which is never collected before the
		// join; in Manticore it is promoted to the global heap first.
		t.PushRoot(&fr.result)
	}
	if rt.gcFlag.Load() {
		// Fork safe point. This must come after fr.env is rooted: parking
		// here hands the collector a window to move (or reclaim) anything
		// unregistered, and env would otherwise be held only in Go locals.
		t.stopForGCTask()
	}
	if rt.cfg.Mode == ParMem {
		t.pushHeap()
	}
	fr.sf = sched.NewFrame(func(thief *sched.Worker) {
		fr.runStolen(thief, g, gw)
	})
	t.publish(fr)
	runArm(t, fr.env, f, fw, &fr.left, &lw)
	popped := t.w.PopBottom()
	stolen := popped != fr.sf
	if stolen && popped != nil {
		panic("rts: foreign frame popped at join")
	}
	t.joined(fr, !stolen)
	if stolen {
		t.w.WaitHelp(fr.sf)
	} else {
		runArm(t, fr.env, g, gw, &fr.result, &fr.scalar)
	}
	if rt.cfg.Mode == ParMem {
		if stolen {
			t.sh.AdoptJoin(fr.childSH)
		}
		t.sh.PopJoin()
		t.popHeap()
		// Internal-node collection: the merged ancestor has no live
		// descendants left, so it is a valid zone. The left result is
		// already rooted; the right one is not yet.
		t.maybeCollectJoin(&fr.result)
	}
	t.PopRoots(mark)
	return fr.left, fr.result, lw, fr.scalar
}

// runStolen runs fr's right arm (g or gw) on a thief. The stolen task
// joins the victim's session: it counts against the session's
// outstanding frames (consumed here, not at the victim's join), checks the
// session's abort flag, and converts its own panics into the session's
// failure instead of crashing the worker. Teardown order is strict:
// guard's recover/drain, then task finish, then the frame's outstanding
// count (which is what finally lets reclamation proceed).
func (fr *frame) runStolen(thief *sched.Worker, g Thunk, gw ScalarThunk) {
	r, ses := fr.owner.rt, fr.owner.ses
	defer ses.frameDone() // last: runs after st.finish
	var base *heap.Heap
	if r.cfg.Mode == ParMem {
		base = heap.NewChild(fr.forkHeap)
	}
	st := r.newTask(thief, ses, base)
	if base != nil {
		st.madeHeaps = append(st.madeHeaps, base)
		fr.childSH = st.sh
	}
	defer st.finish()
	if ses.aborted.Load() { // an aborted session leaves the arm unrun
		return
	}
	ses.guard(st, func() {
		env := fr.stolenEnv(st)
		mark := st.PushRoot(&env)
		runArm(st, env, g, gw, &fr.result, &fr.scalar)
		st.PopRoots(mark)
		if r.cfg.Mode == Manticore {
			// Result communication to another worker promotes the result's
			// object graph to the shared global heap (DLG invariant).
			fr.result = st.PromoteToRoot(fr.result)
		}
	})
}

// stolenEnv resolves the environment seen by a stolen frame. In Manticore
// mode the environment is promoted to the global heap (steal-time
// communication) under the WRITE lock of the victim's heap, which its
// local collections hold while they copy: the lock orders the read of
// fr.env against those collections, which update the frame's rooted env
// slot in place. The root's lock is taken second, deep then shallow, the
// order of every promotion climb.
func (fr *frame) stolenEnv(st *Task) mem.ObjPtr {
	if fr.owner.rt.cfg.Mode != Manticore {
		return fr.env
	}
	fr.forkHeap.Lock(heap.WRITE)
	// The thief works on the promoted copy; the victim's inline arm keeps
	// using the original (fr.env is not written back — the parent reads it
	// concurrently for the left arm).
	env := st.PromoteToRoot(fr.env)
	fr.forkHeap.Unlock()
	return env
}
