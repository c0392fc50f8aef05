package rts

import (
	"repro/internal/core"
	"repro/internal/gc"
	"repro/internal/heap"
	"repro/internal/mem"
)

// The high-level memory operations of Figure 3, dispatched per mode. The
// ParMem and Manticore paths run the paper's algorithms (package core);
// the Seq path compiles to plain loads and stores; the STW path uses
// atomics for mutable data (parallel mutators) but needs no barriers.

// Alloc allocates an object with numPtr pointer fields and numNonptr raw
// words in the task's current heap, running the mode's collection trigger
// first (allocation points are the GC safe points). Allocation is also the
// session safe point: an aborted session's tasks unwind here, and the
// session allocation budget is charged here (session.go allocGate).
func (t *Task) Alloc(numPtr, numNonptr int, tag mem.Tag) mem.ObjPtr {
	t.allocGate(mem.ObjectWords(numPtr, numNonptr))
	r := t.rt
	h := t.sh.Current()
	switch r.cfg.Mode {
	case STW:
		if r.gcFlag.Load() {
			t.stopForGCTask()
		}
		if r.stwShouldCollect() {
			r.triggerSTW(t)
		}
	case Manticore:
		if r.cfg.Policy.ShouldCollect(h) {
			t.collectLocal()
		}
	default:
		if t.shouldCollect(h) {
			t.collectZone(h, gc.LeafZone)
		}
	}
	return core.Alloc(t.chunkCache(), h, &t.Ops, numPtr, numNonptr, tag)
}

// AllocMut allocates an object that will be mutated and shared. In the
// Manticore (DLG) mode, mutable objects must live in the shared global
// heap — the invariant forbids pointers from the global heap into local
// heaps, so a locally allocated mutable object would entangle on its first
// shared update. The global allocation synchronizes on the global heap's
// lock: exactly the "increased cost of mutable allocations" the paper's
// related-work section attributes to DLG designs. Every other mode
// allocates task-locally (the paper's advantage).
func (t *Task) AllocMut(numPtr, numNonptr int, tag mem.Tag) mem.ObjPtr {
	r := t.rt
	if r.cfg.Mode == Manticore {
		t.allocGate(mem.ObjectWords(numPtr, numNonptr))
		return core.AllocIn(t.chunkCache(), r.rootHeap, &t.Ops, numPtr, numNonptr, tag)
	}
	return t.Alloc(numPtr, numNonptr, tag)
}

// AllocIn allocates an object in the heap that holds anchor's master copy,
// so that publishing it into anchor (or into anything else in that heap)
// does not promote. In ParMem that heap is the current heap or one of its
// ancestors; an ancestor is allocated into under its WRITE lock
// (core.AllocIn), and the call stays a session safe point. A current-heap
// anchor, a nil anchor and every other mode take plain Alloc: Seq and STW
// never promote, and Manticore keeps the DLG design's local allocation.
func (t *Task) AllocIn(anchor mem.ObjPtr, numPtr, numNonptr int, tag mem.Tag) mem.ObjPtr {
	if t.rt.cfg.Mode == ParMem && !anchor.IsNil() {
		if h := core.MasterHeap(anchor); h != t.sh.Current() {
			t.allocGate(mem.ObjectWords(numPtr, numNonptr))
			return core.AllocIn(t.chunkCache(), h, &t.Ops, numPtr, numNonptr, tag)
		}
	}
	return t.Alloc(numPtr, numNonptr, tag)
}

// ReadImmWord reads an immutable raw word field (no barrier in any mode).
func (t *Task) ReadImmWord(p mem.ObjPtr, i int) uint64 {
	return core.ReadImmWord(&t.Ops, p, i)
}

// ReadImmPtr reads an immutable pointer field.
func (t *Task) ReadImmPtr(p mem.ObjPtr, i int) mem.ObjPtr {
	return core.ReadImmPtr(&t.Ops, p, i)
}

// ReadMutWord reads a mutable raw word field.
func (t *Task) ReadMutWord(p mem.ObjPtr, i int) uint64 {
	switch t.rt.cfg.Mode {
	case ParMem, Manticore:
		return core.ReadMutWord(&t.Ops, p, i)
	case Seq:
		t.Ops.ReadMutFast++
		return mem.LoadWordField(p, i)
	default: // STW
		t.Ops.ReadMutFast++
		return mem.LoadWordFieldAtomic(p, i)
	}
}

// ReadMutPtr reads a mutable pointer field.
func (t *Task) ReadMutPtr(p mem.ObjPtr, i int) mem.ObjPtr {
	switch t.rt.cfg.Mode {
	case ParMem, Manticore:
		return core.ReadMutPtr(&t.Ops, p, i)
	case Seq:
		t.Ops.ReadMutFast++
		return mem.LoadPtrField(p, i)
	default: // STW
		t.Ops.ReadMutFast++
		return mem.LoadPtrFieldAtomic(p, i)
	}
}

// WriteNonptr writes a mutable raw word field.
func (t *Task) WriteNonptr(p mem.ObjPtr, i int, v uint64) {
	switch t.rt.cfg.Mode {
	case ParMem, Manticore:
		core.WriteNonptr(t.sh.Current(), &t.Ops, p, i, v)
	case Seq:
		t.Ops.WriteNonptrLocal++
		mem.StoreWordField(p, i, v)
	default: // STW
		t.Ops.WriteNonptrLocal++
		mem.StoreWordFieldAtomic(p, i, v)
	}
}

// CASWord compare-and-swaps a mutable raw word field.
func (t *Task) CASWord(p mem.ObjPtr, i int, old, new uint64) bool {
	switch t.rt.cfg.Mode {
	case ParMem, Manticore:
		return core.CASWord(&t.Ops, p, i, old, new)
	default:
		t.Ops.CASFast++
		return mem.CASWordField(p, i, old, new)
	}
}

// WritePtr writes a mutable pointer field, promoting in ParMem and
// Manticore when the write would entangle the hierarchy. A Seq store of a
// pointer into an object outside the session's heap — a cell a pinned
// session returned — marks the session escaped, so that the session's heap
// outlives it (Session.reclaim).
func (t *Task) WritePtr(p mem.ObjPtr, i int, q mem.ObjPtr) {
	switch t.rt.cfg.Mode {
	case ParMem, Manticore:
		core.WritePtr(t.chunkCache(), t.sh.Current(), &t.pbuf, &t.Ops, p, i, q)
	case Seq:
		if !q.IsNil() && heap.Of(p) != t.sh.Current() {
			t.ses.escaped = true
		}
		t.Ops.WritePtrFast++
		mem.StorePtrField(p, i, q)
	default: // STW
		t.Ops.WritePtrFast++
		mem.StorePtrFieldAtomic(p, i, q)
	}
}

// PromoteToRoot copies the object graph reachable from p into the root
// heap, which is never collected, and returns the root copy; a nil p or one
// already in the root is returned as is. The flat modes use it for what
// must outlive the worker heap it was built in: Manticore's stolen
// environments and results, and a Ptr result of hh.Run in STW and
// Manticore.
func (t *Task) PromoteToRoot(p mem.ObjPtr) mem.ObjPtr {
	if p.IsNil() || heap.Of(p).Depth() == 0 {
		return p
	}
	return core.PromoteTo(t.chunkCache(), &t.Ops, t.rt.rootHeap, p)
}

// WriteInitWord performs an initializing raw-word store into a fresh
// object (array construction; not mutation).
func (t *Task) WriteInitWord(p mem.ObjPtr, i int, v uint64) {
	core.WriteInitWord(&t.Ops, p, i, v)
}

// WriteInitPtr performs an initializing pointer store into a fresh object.
// The value must be disentangled with respect to the object (same heap or
// an ancestor). In ParMem with CheckInvariants set the store panics with a
// *core.EntanglementError when it is not; an object born in an ancestor by
// AllocIn is the easy way to get this wrong.
func (t *Task) WriteInitPtr(p mem.ObjPtr, i int, q mem.ObjPtr) {
	if t.rt.cfg.CheckInvariants && t.rt.cfg.Mode == ParMem && !q.IsNil() {
		hp, hq := heap.Of(p), heap.Of(q)
		if !core.IsAncestorOrSelf(hq, hp) {
			panic(&core.EntanglementError{From: p, To: q, FromHeap: hp, ToHeap: hq, Field: i})
		}
	}
	core.WriteInitPtr(&t.Ops, p, i, q)
}
