package rts

import (
	"testing"
	"time"

	"repro/internal/mem"
)

// submitWithIdleWorkers submits fn as an unpinned session once every
// worker of r's pool is on its idle ladder. One of them takes the root
// frame; the others stay idle until they find a frame, and the session
// publishes the only ones. So the session's first fork sees an idle worker
// and takes the parallel path — a heap level and a frame in ParMem, and a
// promotion for each arm-allocated object the arm publishes upward — by
// construction, not by timing.
func submitWithIdleWorkers(r *Runtime, fn func(*Task) uint64) *Session {
	for _, w := range r.pool.Workers() {
		for !w.Idle() {
			time.Sleep(10 * time.Microsecond)
		}
	}
	return r.Submit(SessionOpts{}, fn)
}

// publishForks is how many forks publishArms makes.
const publishForks = 8

// publishArms is the body of TestSaturatedForkRunsInline: forks whose left
// arm allocates a cell and writes it into a session-heap array — a
// promoting write whenever the arm runs in a heap level of its own — and
// a checksum read back through the array.
func publishArms(task *Task) uint64 {
	arr := task.AllocMut(publishForks, 0, mem.TagTuple)
	mark := task.PushRoot(&arr)
	defer task.PopRoots(mark)
	for j := 0; j < publishForks; j++ {
		task.ForkJoinScalar(arr, func(t *Task, arr mem.ObjPtr) uint64 {
			mark := t.PushRoot(&arr)
			defer t.PopRoots(mark)
			cell := t.Alloc(0, 1, mem.TagRef)
			t.WriteInitWord(cell, 0, uint64(j)*2654435761+1)
			t.WritePtr(arr, j, cell)
			return 0
		}, func(*Task, mem.ObjPtr) uint64 { return 0 })
	}
	var sum uint64
	for j := 0; j < publishForks; j++ {
		sum = sum*31 + task.ReadImmWord(task.ReadMutPtr(arr, j), 0)
	}
	return sum
}

// TestSaturatedForkRunsInline pins the fork protocol's two paths in
// ParMem. An unpinned session at P = 1 forks while its only worker is busy,
// so every fork runs inline: no promotion, Seq's checksum. The same body
// through Runtime.Run is pinned and keeps the paper's heap per fork, so
// its arms' writes promote. With idle workers waiting, an unpinned
// session's first fork publishes a frame.
func TestSaturatedForkRunsInline(t *testing.T) {
	ref := New(testConfig(Seq, 1))
	want := ref.Run(publishArms)
	ref.Close()

	check := func(t *testing.T, r *Runtime, got uint64) Totals {
		t.Helper()
		if got != want {
			t.Errorf("checksum %x, want Seq's %x", got, want)
		}
		st := r.Stats()
		if n := st.Forks.Inline + st.Forks.Parallel; n != publishForks {
			t.Errorf("%d forks counted, want %d", n, publishForks)
		}
		return st
	}
	t.Run("unpinned", func(t *testing.T) {
		r := New(testConfig(ParMem, 1))
		defer r.Close()
		got, err := r.Submit(SessionOpts{}, publishArms).Wait()
		if err != nil {
			t.Fatal(err)
		}
		st := check(t, r, got)
		if st.Ops.WritePtrProm != 0 || st.Forks.Parallel != 0 {
			t.Errorf("%d promotions, %d parallel forks; want 0 and 0 with no idle worker",
				st.Ops.WritePtrProm, st.Forks.Parallel)
		}
	})
	t.Run("pinned", func(t *testing.T) {
		r := New(testConfig(ParMem, 1))
		defer r.Close()
		st := check(t, r, r.Run(publishArms))
		if st.Ops.WritePtrProm == 0 || st.Forks.Inline != 0 {
			t.Errorf("%d promotions, %d inline forks; want > 0 and 0 in a pinned session",
				st.Ops.WritePtrProm, st.Forks.Inline)
		}
	})
	t.Run("idle", func(t *testing.T) {
		r := New(testConfig(ParMem, 2))
		defer r.Close()
		got, err := submitWithIdleWorkers(r, publishArms).Wait()
		if err != nil {
			t.Fatal(err)
		}
		st := check(t, r, got)
		if st.Ops.WritePtrProm == 0 || st.Forks.Parallel == 0 {
			t.Errorf("%d promotions, %d parallel forks; want > 0 with an idle worker",
				st.Ops.WritePtrProm, st.Forks.Parallel)
		}
	})
}
