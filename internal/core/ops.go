package core

import (
	"repro/internal/heap"
	"repro/internal/mem"
)

// Alloc allocates a fresh object in the task's current heap (Figure 6,
// alloc): the caller passes its current — necessarily leaf — heap, and its
// worker's chunk cache (nil when it runs off-worker) so that the heap's
// chunks are acquired without shared-state operations.
func Alloc(cc *mem.ChunkCache, cur *heap.Heap, ops *Counters, numPtr, numNonptr int, tag mem.Tag) mem.ObjPtr {
	ops.Allocs++
	ops.AllocWords += int64(mem.ObjectWords(numPtr, numNonptr))
	return cur.FreshObjVia(cc, numPtr, numNonptr, tag)
}

// MasterHeap returns the heap holding p's master copy as of an unlocked
// walk of its forwarding chain. A racing promotion can move the master
// higher right after the walk; it never moves it lower.
func MasterHeap(p mem.ObjPtr) *heap.Heap { return heap.Of(chaseFwd(p)) }

// AllocIn allocates a fresh object in target, a heap shared with other
// tasks, under target's WRITE lock: the lock a promotion into target takes
// to allocate its copies, so the two never share target's bump pointer.
// Manticore mode allocates its mutable objects in the global heap this
// way. In ParMem target is an ancestor of the caller's heap — usually
// MasterHeap of the object the new one is about to be published into, so
// that the publishing write takes the ancestor fast path instead of a
// promotion climb (not in the paper, whose objects are always born in the
// allocating task's leaf heap). Target's own task is then suspended at a
// fork and does not allocate there, and target cannot be collected or
// merged under the call: a collection zone never contains an ancestor of a
// live task.
func AllocIn(cc *mem.ChunkCache, target *heap.Heap, ops *Counters, numPtr, numNonptr int, tag mem.Tag) mem.ObjPtr {
	target.Lock(heap.WRITE)
	p := Alloc(cc, target, ops, numPtr, numNonptr, tag)
	target.Unlock()
	return p
}

// ReadImmWord reads an immutable non-pointer field: a plain load with no
// barrier of any kind. All copies of an object agree on immutable fields,
// so forwarding pointers are irrelevant here (Figure 6, readImmutable).
func ReadImmWord(ops *Counters, p mem.ObjPtr, i int) uint64 {
	ops.ReadImm++
	return mem.LoadWordField(p, i)
}

// ReadImmPtr reads an immutable pointer field with a plain load.
func ReadImmPtr(ops *Counters, p mem.ObjPtr, i int) mem.ObjPtr {
	ops.ReadImm++
	return mem.LoadPtrField(p, i)
}

// FindMaster walks obj's forwarding chain to the master copy and returns it
// with its heap READ-locked; the caller must Unlock the returned heap
// (Figure 6, findMaster). The double-checked pattern walks without locking,
// locks the candidate's heap in shared mode, and retries if a promotion
// installed a forwarding pointer in the meantime.
func FindMaster(ops *Counters, obj mem.ObjPtr) (mem.ObjPtr, *heap.Heap) {
	for {
		for {
			f := mem.LoadFwd(obj)
			if f.IsNil() {
				break
			}
			obj = f
		}
		h := heap.Of(obj)
		h.Lock(heap.READ)
		if !mem.HasFwd(obj) {
			return obj, h
		}
		h.Unlock()
		ops.FindMasterRetries++
	}
}

// ReadMutWord reads a mutable non-pointer field (Figure 6, readMutable).
// Fast path: read optimistically, then check for a forwarding pointer;
// objects that were never promoted pay a couple of instructions.
func ReadMutWord(ops *Counters, p mem.ObjPtr, i int) uint64 {
	res := mem.LoadWordFieldAtomic(p, i)
	if !mem.HasFwd(p) {
		ops.ReadMutFast++
		return res
	}
	ops.ReadMutSlow++
	m, h := FindMaster(ops, p)
	res = mem.LoadWordFieldAtomic(m, i)
	h.Unlock()
	return res
}

// ReadMutPtr reads a mutable pointer field with the same discipline.
func ReadMutPtr(ops *Counters, p mem.ObjPtr, i int) mem.ObjPtr {
	res := mem.LoadPtrFieldAtomic(p, i)
	if !mem.HasFwd(p) {
		ops.ReadMutFast++
		return res
	}
	ops.ReadMutSlow++
	m, h := FindMaster(ops, p)
	res = mem.LoadPtrFieldAtomic(m, i)
	h.Unlock()
	return res
}

// WriteNonptr writes a mutable non-pointer field (Figure 6, writeNonptr).
// Non-pointer data can never entangle the hierarchy, so the write proceeds
// optimistically; if the object turns out to have been promoted, the write
// is repeated on the master copy. The fwd-install-before-copy ordering in
// promotion guarantees no update is lost: either the promotion's copy sees
// our optimistic store, or we see its forwarding pointer and rewrite the
// master (whose heap lock we wait on until the promotion finishes).
func WriteNonptr(cur *heap.Heap, ops *Counters, p mem.ObjPtr, i int, v uint64) {
	mem.StoreWordFieldAtomic(p, i, v)
	if !mem.HasFwd(p) {
		// The local/distant distinction is bookkeeping for the Figure 9
		// taxonomy; the write itself took the same optimistic fast path
		// either way.
		if heap.Of(p) == cur {
			ops.WriteNonptrLocal++
		} else {
			ops.WriteNonptrDistant++
		}
		return
	}
	ops.WriteNonptrSlow++
	m, h := FindMaster(ops, p)
	mem.StoreWordFieldAtomic(m, i, v)
	h.Unlock()
}

// CASWord performs a compare-and-swap on a mutable non-pointer field.
//
// Unlike plain writes, a compare-and-swap cannot use the optimistic
// write-then-recheck pattern: if a promotion snapshots the field between
// the optimistic CAS and its forwarding check, the operation cannot tell
// whether its transition survived on the master, and callers that retry on
// failure would double-apply. Two linearizable paths remain:
//
//   - objects in the hierarchy root (depth 0) can never be promoted —
//     nothing is shallower — so a direct CAS is safe. This covers the
//     benchmarks' usage (visited arrays and counters allocated at the
//     root before the parallel phase), and DLG-style runtimes where all
//     mutable objects live in the global heap.
//   - otherwise the CAS executes on the master copy under its heap's read
//     lock, which excludes in-flight promotions of the master.
func CASWord(ops *Counters, p mem.ObjPtr, i int, old, new uint64) bool {
	if heap.Of(p).Depth() == 0 {
		ops.CASFast++
		return mem.CASWordField(p, i, old, new)
	}
	ops.CASSlow++
	m, h := FindMaster(ops, p)
	ok := mem.CASWordField(m, i, old, new)
	h.Unlock()
	return ok
}

// WriteInitWord performs an initializing store into a freshly allocated
// object that has not yet been shared. Array construction (e.g. parallel
// tabulation of numeric sequences) uses this; it is not mutation, which is
// why the paper's pure benchmarks are all classed as "immutable reads".
func WriteInitWord(ops *Counters, p mem.ObjPtr, i int, v uint64) {
	ops.WriteInit++
	mem.StoreWordField(p, i, v)
}

// WriteInitPtr performs an initializing pointer store. The caller asserts
// that the store cannot entangle the hierarchy (the value lives in the same
// heap as the object, or an ancestor of it). The runtime checks this under
// its CheckInvariants knob (rts.Task.WriteInitPtr), and the disentanglement
// checker verifies it in tests.
func WriteInitPtr(ops *Counters, p mem.ObjPtr, i int, q mem.ObjPtr) {
	ops.WriteInit++
	mem.StorePtrField(p, i, q)
}

// WritePtr writes a mutable pointer field (Figure 7, writePtr). Two fast
// paths cover the writes that cannot entangle, in increasing cost:
//
//   - Local: the object is in the current task's own (leaf) heap with no
//     forwarding pointer. Promotion is impossible there (nothing deeper
//     exists), so a plain store suffices.
//   - Ancestor pointee: the object's heap is at least as deep as the
//     pointee's, so the stored pointer goes sideways or upward and cannot
//     create a down-pointer. Since both heaps lie on the writing task's
//     root path, the depth comparison is an ancestry test. The store is
//     optimistic — write first, then check for a forwarding pointer — the
//     same protocol as WriteNonptr: either the racing promotion's copy
//     phase observes our store, or we observe its forwarding pointer and
//     redo the write through the master lookup below.
//
// Neither fast path touches a heap lock; FindMaster's read lock is reserved
// for forwarded objects, and a write that must promote goes straight to its
// climb's write locks (WritePtrSlow). buf is
// the task's promote buffer (scratch for the climb; nil for a transient
// one) and cc the calling worker's chunk cache, supplying the target
// heap's chunks during promotion (nil for none).
func WritePtr(cc *mem.ChunkCache, cur *heap.Heap, buf *PromoteBuf, ops *Counters, obj mem.ObjPtr, field int, ptr mem.ObjPtr) {
	ho := heap.Of(obj)
	if ho == cur && !mem.HasFwd(obj) {
		ops.WritePtrFast++
		mem.StorePtrFieldAtomic(obj, field, ptr)
		return
	}
	if ptr.IsNil() || ho.Depth() >= heap.Of(ptr).Depth() {
		mem.StorePtrFieldAtomic(obj, field, ptr)
		if !mem.HasFwd(obj) {
			ops.WritePtrAncestor++
			return
		}
		// The object was promoted before or during the store: the write may
		// have hit a stale copy. Fall through and redo it on the master
		// (the forwarding chain is permanent, so the slow path cannot miss).
	}
	WritePtrSlow(cc, buf, ops, obj, field, ptr)
}

// WritePtrSlow is WritePtr without the fast paths: the paper-faithful
// baseline. It exists as an ablation knob (the paper's implementation
// "prioritizes the efficiency of updates to local objects"; this measures
// what that priority — and the ancestor fast path on top of it — buys) and
// as the write path for contexts with no current-heap notion.
//
// A write that must promote takes no read lock first. Promotion only ever
// moves an object shallower, so if the end of obj's forwarding chain as
// walked without a lock is already shallower than the pointee, the true
// master is too, and the climb's own lockPath — which re-checks the
// forwarding word once the target is locked, and extends the path — finds
// it. Every other write goes through the master-copy lookup under the heap
// read lock, where the depth test is repeated: the unlocked walk can
// mistake a promoting write for a plain one, never the reverse.
func WritePtrSlow(cc *mem.ChunkCache, buf *PromoteBuf, ops *Counters, obj mem.ObjPtr, field int, ptr mem.ObjPtr) {
	m := chaseFwd(obj)
	if ptr.IsNil() || heap.Of(m).Depth() >= heap.Of(ptr).Depth() {
		var h *heap.Heap
		m, h = FindMaster(ops, m)
		if ptr.IsNil() || h.Depth() >= heap.Of(ptr).Depth() {
			ops.WritePtrNonProm++
			mem.StorePtrFieldAtomic(m, field, ptr)
			h.Unlock()
			return
		}
		h.Unlock()
	}
	ops.WritePtrProm++
	ops.Promotions++
	writePromote(cc, buf, ops, m, field, ptr)
}
