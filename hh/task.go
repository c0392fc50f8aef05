package hh

import (
	"repro/internal/mem"
	"repro/internal/rts"
)

// Ptr is a handle to a managed object. The zero value is the nil pointer.
//
// A Ptr is raw: collections move objects and update only registered root
// slots, so a Ptr held in a Go variable is guaranteed valid only until
// the task's next allocating operation. Register it in a Scope (Ref) to
// keep it live and current across allocations.
type Ptr struct {
	raw mem.ObjPtr
}

// Nil is the nil object pointer.
var Nil = Ptr{}

// IsNil reports whether p is the nil pointer.
func (p Ptr) IsNil() bool { return p.raw.IsNil() }

// String renders the handle as chunk:offset for debugging.
func (p Ptr) String() string { return p.raw.String() }

// Tag classifies an object's kind. Tags are carried for debugging, GC
// statistics, and the disentanglement checker; the runtime itself depends
// only on the pointer/non-pointer field split.
type Tag = mem.Tag

// Object kinds.
const (
	TagRef    = mem.TagRef    // single mutable cell
	TagTuple  = mem.TagTuple  // immutable record
	TagArrI64 = mem.TagArrI64 // array of raw 64-bit words
	TagArrPtr = mem.TagArrPtr // array of object pointers
	TagCons   = mem.TagCons   // list cell
	TagLeaf   = mem.TagLeaf   // tree / rope leaf
	TagNode   = mem.TagNode   // tree / rope interior node
	TagOther  = mem.TagOther
)

// Task is one user-level thread: the execution context handed to the
// closures of Run, Fork2, and the parallel combinators. All memory
// operations and scopes go through the task.
type Task struct {
	r     *Runtime
	inner *rts.Task
	cur   *Scope // innermost open scope, nil outside Scoped
}

// Runtime returns the owning runtime.
func (t *Task) Runtime() *Runtime { return t.r }

// Alloc allocates an object with numPtr pointer fields (nil-initialized)
// and numWords raw 64-bit words (zeroed). Allocation is a GC safe point:
// any raw Ptr held only in Go variables may be stale afterwards.
func (t *Task) Alloc(numPtr, numWords int, tag Tag) Ptr {
	return Ptr{t.inner.Alloc(numPtr, numWords, tag)}
}

// AllocMut allocates an object that will be mutated and shared across
// tasks. In Manticore mode this allocates in the shared global heap (the
// DLG design's mutable-allocation cost); every other mode allocates
// task-locally.
func (t *Task) AllocMut(numPtr, numWords int, tag Tag) Ptr {
	return Ptr{t.inner.AllocMut(numPtr, numWords, tag)}
}

// AllocIn allocates like Alloc, but in ParMem the object is born in the
// heap that holds anchor's master copy — the heap it will be published to —
// so a following WritePtr of it into anchor takes the barrier's lock-free
// ancestor path instead of promoting it. Every other mode, and a nil or
// task-local anchor, is plain Alloc. It is an allocation safe point like
// Alloc. Because the object may live in an ancestor of the task's heap,
// InitPtr into it must store only objects from that heap or above
// (checked under WithInvariantChecks): initialize it with the anchor's
// existing contents, not with task-local objects.
func (t *Task) AllocIn(anchor Ptr, numPtr, numWords int, tag Tag) Ptr {
	return Ptr{t.inner.AllocIn(anchor.raw, numPtr, numWords, tag)}
}

// InitWord performs an initializing store of raw word i of a fresh
// object (array construction; not mutation).
func (t *Task) InitWord(p Ptr, i int, v uint64) { t.inner.WriteInitWord(p.raw, i, v) }

// InitPtr performs an initializing store of pointer field i of a fresh
// object. The value must be disentangled with respect to the object
// (same heap or an ancestor); WithInvariantChecks enforces this in ParMem.
func (t *Task) InitPtr(p Ptr, i int, q Ptr) { t.inner.WriteInitPtr(p.raw, i, q.raw) }

// ReadImmWord reads immutable raw word i (no barrier in any mode).
func (t *Task) ReadImmWord(p Ptr, i int) uint64 { return t.inner.ReadImmWord(p.raw, i) }

// ReadImmPtr reads immutable pointer field i.
func (t *Task) ReadImmPtr(p Ptr, i int) Ptr { return Ptr{t.inner.ReadImmPtr(p.raw, i)} }

// ReadMutWord reads mutable raw word i through the mode's read barrier.
func (t *Task) ReadMutWord(p Ptr, i int) uint64 { return t.inner.ReadMutWord(p.raw, i) }

// ReadMutPtr reads mutable pointer field i through the mode's read
// barrier.
func (t *Task) ReadMutPtr(p Ptr, i int) Ptr { return Ptr{t.inner.ReadMutPtr(p.raw, i)} }

// WriteWord writes mutable raw word i.
func (t *Task) WriteWord(p Ptr, i int, v uint64) { t.inner.WriteNonptr(p.raw, i, v) }

// WritePtr writes mutable pointer field i, promoting the pointee's object
// graph in the hierarchical modes when the write would entangle the
// hierarchy (the paper's central mechanism).
func (t *Task) WritePtr(p Ptr, i int, q Ptr) { t.inner.WritePtr(p.raw, i, q.raw) }

// Abort rolls the session back and never returns: the session fails with
// an *AbortError carrying result and reason, every sibling task unwinds at
// its next allocation safe point, and the session's subtree is reclaimed
// wholesale — everything the request allocated is rolled back in bulk with
// no per-object undo, the hierarchy's free-rollback path. Outside a
// session (Run) the AbortError is re-raised as a panic.
func (t *Task) Abort(result uint64, reason error) { t.inner.Abort(result, reason) }

// CASWord atomically compares-and-swaps mutable raw word i.
func (t *Task) CASWord(p Ptr, i int, old, new uint64) bool {
	return t.inner.CASWord(p.raw, i, old, new)
}

// NumPtrFields returns the number of pointer fields of the object.
func (t *Task) NumPtrFields(p Ptr) int { return mem.NumPtrFields(p.raw) }

// NumWords returns the number of raw words of the object.
func (t *Task) NumWords(p Ptr) int { return mem.NumNonptrWords(p.raw) }

// TagOf returns the object's kind tag.
func (t *Task) TagOf(p Ptr) Tag { return mem.TagOf(p.raw) }

// taskFor wraps an engine task for an arm. The engine reuses the parent
// task when an arm runs inline and creates a fresh one when it is stolen;
// either way the arm gets its own wrapper so its scope chain is private.
func (r *Runtime) taskFor(inner *rts.Task) *Task { return &Task{r: r, inner: inner} }
