package rts

import (
	"fmt"
	"testing"

	"repro/internal/mem"
)

// buildEntangled publishes task-local cells from forked arms into a
// session-heap array: in ParMem every first publish is an
// ancestor→descendant write, so the barrier promotes the cell. Some cells
// are then re-published into the same slot and into a distinct slot, which
// after the promotion are plain ancestor writes. The result is a
// deterministic checksum read back through the published pointers, so all
// four systems must agree on it.
func buildEntangled(task *Task, n int) uint64 {
	const k = 8
	// AllocMut: the array is mutated from concurrent forked tasks, which the
	// Manticore (DLG) model only permits for global-heap objects. In ParMem
	// it is an ordinary session-heap allocation, so the publishes below are
	// ancestor→descendant writes.
	arr := task.AllocMut(k, 0, mem.TagTuple)
	mark := task.PushRoot(&arr)
	for round := 0; round < 2; round++ {
		fill := func(start int) func(*Task, mem.ObjPtr) uint64 {
			return func(t *Task, _ mem.ObjPtr) uint64 {
				for j := start; j < k; j += 2 {
					cell := t.Alloc(1, 1, mem.TagCons)
					t.WriteInitWord(cell, 0, uint64(round*k+j)*2654435761+1)
					t.WriteInitPtr(cell, 0, mem.NilPtr)
					t.WritePtr(arr, j, cell) // ancestor→descendant: promotes in ParMem
					if j%4 == start%4 {
						t.WritePtr(arr, j, cell)       // same slot again
						t.WritePtr(arr, (j+2)%k, cell) // distinct slot
					}
				}
				return buildChurn(t, n)
			}
		}
		task.ForkJoinScalar(mem.NilPtr, fill(0), fill(1))
	}
	var sum uint64
	for j := 0; j < k; j++ {
		cell := task.ReadMutPtr(arr, j)
		if !cell.IsNil() {
			sum = sum*31 + task.ReadImmWord(cell, 0)
		}
	}
	task.PopRoots(mark)
	return sum*7 + buildChurn(task, n/2)
}

// TestEntangledParityAllModes runs buildEntangled in sessions under every
// mode at P = 2 and 8 and requires one checksum per session: promoting
// writes from forked arms compute the same answers as the systems that
// never promote. Each session is submitted alone, to idle workers, so its
// first fork is a parallel one and ParMem's arms promote.
func TestEntangledParityAllModes(t *testing.T) {
	const nSessions = 8
	const n = 1200
	for _, procs := range []int{2, 8} {
		var want []uint64 // Seq-mode reference, filled on the first procs pass
		for _, mode := range []Mode{Seq, ParMem, STW, Manticore} {
			t.Run(fmt.Sprintf("%s/procs=%d", mode, procs), func(t *testing.T) {
				cfg := testConfig(mode, procs)
				cfg.CheckInvariants = true
				r := New(cfg)
				defer r.Close()

				got := make([]uint64, nSessions)
				for i := range got {
					res, err := submitWithIdleWorkers(r, func(task *Task) uint64 {
						return buildEntangled(task, n)
					}).Wait()
					if err != nil {
						t.Fatalf("session %d failed: %v", i, err)
					}
					got[i] = res
				}
				if want == nil {
					want = got
				}
				for i := range got {
					if got[i] != want[i] {
						t.Errorf("session %d checksum %x, want %x (mode disagreement)", i, got[i], want[i])
					}
				}
				if mode == ParMem {
					if p := r.Stats().Ops.WritePtrProm; p == 0 {
						t.Fatal("ParMem run recorded no promotions")
					}
				}
			})
		}
	}
}
