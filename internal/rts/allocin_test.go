package rts

import (
	"errors"
	"fmt"
	"testing"

	"repro/internal/core"
	"repro/internal/heap"
	"repro/internal/mem"
)

// Tests for allocation at the destination (Task.AllocIn). The racing case
// — the anchor promoted between AllocIn's walk and its lock — is
// core.TestRacingPromotionOfAllocInAnchor, beside the climb's own race
// tests.

// TestAllocInBornInAnchorMasterHeap checks where AllocIn puts an object
// and what publishing it costs: in an ancestor anchor's heap, with a
// lock-free ancestor write and no promotion; through a forwarded anchor,
// in its master's heap; next to a task-local anchor, in the current heap.
func TestAllocInBornInAnchorMasterHeap(t *testing.T) {
	r := New(testConfig(ParMem, 2))
	defer r.Close()
	r.Run(func(task *Task) uint64 {
		arr := task.AllocMut(2, 0, mem.TagTuple)
		mark := task.PushRoot(&arr)
		defer task.PopRoots(mark)
		task.ForkJoinScalar(arr, func(tk *Task, arr mem.ObjPtr) uint64 {
			cell := tk.AllocIn(arr, 1, 1, mem.TagCons)
			if heap.Of(cell) != core.MasterHeap(arr) || heap.Of(cell) == tk.CurrentHeap() {
				t.Errorf("AllocIn put the object in %v, want the anchor's %v", heap.Of(cell), core.MasterHeap(arr))
			}
			before := tk.Ops
			tk.WritePtr(arr, 0, cell)
			if tk.Ops.WritePtrAncestor != before.WritePtrAncestor+1 || tk.Ops.Promotions != before.Promotions {
				t.Errorf("publish: %d ancestor writes, %d promotions; want 1 and 0",
					tk.Ops.WritePtrAncestor-before.WritePtrAncestor, tk.Ops.Promotions-before.Promotions)
			}

			// loc is born here and promoted by the write into arr: its raw
			// pointer is now a stale copy whose master sits in arr's heap.
			loc := tk.Alloc(1, 0, mem.TagRef)
			tk.WritePtr(arr, 1, loc)
			if !mem.HasFwd(loc) {
				t.Fatal("setup: loc was not promoted")
			}
			if got := heap.Of(tk.AllocIn(loc, 0, 1, mem.TagRef)); got != heap.Of(arr) {
				t.Errorf("AllocIn through a forwarded anchor put the object in %v, want the master's %v", got, heap.Of(arr))
			}

			local := tk.Alloc(1, 0, mem.TagRef)
			if got := heap.Of(tk.AllocIn(local, 0, 1, mem.TagRef)); got != tk.CurrentHeap() {
				t.Errorf("AllocIn next to a local anchor put the object in %v, want the current heap", got)
			}
			return 0
		}, func(tk *Task, _ mem.ObjPtr) uint64 { return 0 })
		return 0
	})
	if err := r.CheckDisentangled(); err != nil {
		t.Fatal(err)
	}
}

// TestAllocInAbortReturnsToBaseline aborts sessions whose forked arms
// built chains of born-in-place cells in the session heap, each cell also
// holding an arm-local object (a promotion), while a sibling arm churns.
// Wholesale reclamation must return chunk occupancy to baseline. Each
// session is submitted alone, to idle workers, so its fork takes the
// parallel path that gives the arm a heap of its own.
func TestAllocInAbortReturnsToBaseline(t *testing.T) {
	errConflict := errors.New("conflict")
	for _, procs := range []int{2, 8} {
		t.Run(fmt.Sprintf("procs=%d", procs), func(t *testing.T) {
			cfg := testConfig(ParMem, procs)
			cfg.CheckInvariants = true
			r := New(cfg)
			defer r.Close()
			base := mem.ChunksInUse()

			const nSessions = 8
			for i := 0; i < nSessions; i++ {
				s := submitWithIdleWorkers(r, func(task *Task) uint64 {
					arr := task.AllocMut(4, 0, mem.TagTuple)
					mark := task.PushRoot(&arr)
					defer task.PopRoots(mark)
					task.ForkJoinScalar(arr,
						func(tk *Task, _ mem.ObjPtr) uint64 {
							for j := 0; j < 64; j++ {
								cell := tk.AllocIn(arr, 2, 1, mem.TagCons)
								tk.WriteInitWord(cell, 0, uint64(j))
								tk.WriteInitPtr(cell, 0, tk.ReadMutPtr(arr, j%4))
								tk.WritePtr(arr, j%4, cell)
								leaf := tk.Alloc(0, 1, mem.TagRef)
								tk.WritePtr(tk.ReadMutPtr(arr, j%4), 1, leaf)
							}
							tk.Abort(1, errConflict)
							return 0
						},
						func(tk *Task, _ mem.ObjPtr) uint64 { return buildChurn(tk, 3000) })
					return 0
				})
				var ae *AbortError
				if _, err := s.Wait(); !errors.As(err, &ae) || ae.Reason != errConflict {
					t.Fatalf("session %d: err = %v, want AbortError{%v}", i, err, errConflict)
				}
			}
			if got := mem.ChunksInUse(); got != base {
				t.Fatalf("chunks in use after aborts = %d, want baseline %d", got, base)
			}
			if p := r.Stats().Ops.Promotions; p == 0 {
				t.Fatal("no promotions: the arm-local writes into born-in-place cells should promote")
			}
		})
	}
}

// TestAllocInInitPtrContract shows the InitPtr rule AllocIn makes easy to
// break: initializing a cell born in an ancestor with a task-local object
// is a down-pointer, and with invariant checks on it panics with an
// *core.EntanglementError, failing only its session. The check runs on a
// parallel fork's arm, so the session forks with an idle worker waiting.
func TestAllocInInitPtrContract(t *testing.T) {
	cfg := testConfig(ParMem, 2)
	cfg.CheckInvariants = true
	r := New(cfg)
	defer r.Close()
	s := submitWithIdleWorkers(r, func(task *Task) uint64 {
		arr := task.AllocMut(1, 0, mem.TagTuple)
		mark := task.PushRoot(&arr)
		defer task.PopRoots(mark)
		task.ForkJoinScalar(arr, func(tk *Task, arr mem.ObjPtr) uint64 {
			leaf := tk.Alloc(0, 1, mem.TagRef)
			mark := tk.PushRoot(&leaf)
			defer tk.PopRoots(mark)
			cell := tk.AllocIn(arr, 1, 0, mem.TagCons)
			tk.WriteInitPtr(cell, 0, leaf)
			return 0
		}, func(tk *Task, _ mem.ObjPtr) uint64 { return 0 })
		return 0
	})
	_, err := s.Wait()
	var pe *PanicError
	if !errors.As(err, &pe) {
		t.Fatalf("err = %v, want a PanicError", err)
	}
	if ee, ok := pe.Value.(*core.EntanglementError); !ok || ee.Field != 0 {
		t.Fatalf("panic value %v (%T), want *core.EntanglementError on field 0", pe.Value, pe.Value)
	}
}
