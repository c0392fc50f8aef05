package core

import (
	"fmt"

	"repro/internal/heap"
	"repro/internal/mem"
)

// ExampleWritePtr walks a mutable pointer write through its three barrier
// tiers: the local fast path (object in the task's own leaf heap), the
// optimistic ancestor-pointee fast path (the store cannot entangle, no
// lock touched), and the promoting slow path (the pointee's graph is
// copied up to the object's heap under the write-locked climb).
func ExampleWritePtr() {
	root := heap.NewRoot()
	child := heap.NewChild(root) // the task's current (leaf) heap
	defer freeAll(root, child)
	var ops Counters

	cell := Alloc(nil, root, &ops, 1, 0, mem.TagRef) // mutable cell at the root
	localCell := Alloc(nil, child, &ops, 1, 0, mem.TagRef)
	rootVal := Alloc(nil, root, &ops, 0, 1, mem.TagRef)
	deepVal := Alloc(nil, child, &ops, 0, 1, mem.TagRef)
	WriteInitWord(&ops, deepVal, 0, 7)

	WritePtr(nil, child, nil, &ops, localCell, 0, deepVal) // local: plain store
	WritePtr(nil, child, nil, &ops, cell, 0, rootVal)      // ancestor pointee: optimistic store
	WritePtr(nil, child, nil, &ops, cell, 0, deepVal)      // entangling: promotes deepVal

	fmt.Println("fast:", ops.WritePtrFast, "ancestor:", ops.WritePtrAncestor,
		"promoting:", ops.WritePtrProm)
	m := ReadMutPtr(&ops, cell, 0)
	fmt.Println("promoted copy holds", ReadImmWord(&ops, m, 0), "at depth", heap.Of(m).Depth())
	// Output:
	// fast: 1 ancestor: 1 promoting: 1
	// promoted copy holds 7 at depth 0
}

// ExampleReadMutWord shows the read barrier's master-copy discipline: an
// unpromoted object is read in place, and after a promotion the same
// handle transparently reads the master copy through its forwarding
// pointer.
func ExampleReadMutWord() {
	root := heap.NewRoot()
	child := heap.NewChild(root)
	defer freeAll(root, child)
	var ops Counters

	obj := Alloc(nil, child, &ops, 0, 1, mem.TagRef)
	WriteInitWord(&ops, obj, 0, 41)
	fmt.Println("before promotion:", ReadMutWord(&ops, obj, 0))

	cell := Alloc(nil, root, &ops, 1, 0, mem.TagRef)
	WritePtr(nil, child, nil, &ops, cell, 0, obj) // promotes obj to the root
	WriteNonptr(child, &ops, obj, 0, 42)          // redirected to the master
	fmt.Println("after promotion: ", ReadMutWord(&ops, obj, 0))
	fmt.Println("fast reads:", ops.ReadMutFast, "master reads:", ops.ReadMutSlow)
	// Output:
	// before promotion: 41
	// after promotion:  42
	// fast reads: 1 master reads: 1
}
