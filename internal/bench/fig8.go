package bench

import (
	"math"
	"time"

	"repro/internal/core"
	"repro/internal/gc"
	"repro/internal/mem"
	"repro/internal/rts"
)

// Figure 8 cost microbenchmark: measures each memory-operation class on
// local, distant, and promoted objects from a task one level below the
// root, on the hierarchical-heaps runtime with collection disabled.

// CostRow is one measured cell of Figure 8.
type CostRow struct {
	Object  string // local / distant / promoted
	Op      string
	NsPerOp float64
}

// Fig8Costs measures the cost matrix with the given per-cell iteration
// count.
func Fig8Costs(iters int) []CostRow {
	if iters < 1 {
		iters = 1
	}
	cfg := rts.DefaultConfig(rts.ParMem, 1)
	cfg.Policy = gc.Policy{MinWords: math.MaxInt64} // collection off
	r := rts.New(cfg)
	defer r.Close()

	var rows []CostRow
	add := func(object, op string, d time.Duration) {
		rows = append(rows, CostRow{object, op, float64(d.Nanoseconds()) / float64(iters)})
	}

	r.Run(func(t *rts.Task) uint64 {
		// Distant objects: allocated at the root before forking.
		distRef := t.Alloc(0, 1, mem.TagRef)  // mutable word cell
		distCell := t.Alloc(1, 0, mem.TagRef) // mutable pointer cell
		rootVal := t.Alloc(0, 1, mem.TagRef)  // shallow value for non-promoting writes

		env := t.Alloc(3, 0, mem.TagTuple)
		t.WriteInitPtr(env, 0, distRef)
		t.WriteInitPtr(env, 1, distCell)
		t.WriteInitPtr(env, 2, rootVal)

		// Fork so the measuring arm runs one level deep.
		t.ForkJoinScalar(env,
			func(t *rts.Task, env mem.ObjPtr) uint64 {
				distRef := t.ReadImmPtr(env, 0)
				distCell := t.ReadImmPtr(env, 1)
				rootVal := t.ReadImmPtr(env, 2)

				local := t.Alloc(0, 1, mem.TagRef)
				localCell := t.Alloc(1, 0, mem.TagRef)
				localVal := t.Alloc(0, 1, mem.TagRef)

				var sink uint64

				// --- local ---
				start := time.Now()
				for i := 0; i < iters; i++ {
					sink += t.ReadImmWord(local, 0)
				}
				add("local", "read-imm", time.Since(start))
				start = time.Now()
				for i := 0; i < iters; i++ {
					sink += t.ReadMutWord(local, 0)
				}
				add("local", "read-mut", time.Since(start))
				start = time.Now()
				for i := 0; i < iters; i++ {
					t.WriteNonptr(local, 0, uint64(i))
				}
				add("local", "write-nonptr", time.Since(start))
				start = time.Now()
				for i := 0; i < iters; i++ {
					t.WritePtr(localCell, 0, localVal)
				}
				add("local", "write-ptr", time.Since(start))

				// --- distant (no forwarding pointers) ---
				start = time.Now()
				for i := 0; i < iters; i++ {
					sink += t.ReadImmWord(distRef, 0)
				}
				add("distant", "read-imm", time.Since(start))
				start = time.Now()
				for i := 0; i < iters; i++ {
					sink += t.ReadMutWord(distRef, 0)
				}
				add("distant", "read-mut", time.Since(start))
				start = time.Now()
				for i := 0; i < iters; i++ {
					t.WriteNonptr(distRef, 0, uint64(i))
				}
				add("distant", "write-nonptr", time.Since(start))
				start = time.Now()
				for i := 0; i < iters; i++ {
					t.WritePtr(distCell, 0, rootVal)
				}
				add("distant", "write-ptr-nonpromoting", time.Since(start))
				// The same write with the barrier fast paths ablated: every
				// store goes through FindMaster under the heap read lock.
				// The gap between this cell and the previous one is what the
				// ancestor-pointee fast path buys per operation.
				var slowOps core.Counters
				start = time.Now()
				for i := 0; i < iters; i++ {
					core.WritePtrSlow(nil, nil, &slowOps, distCell, 0, rootVal)
				}
				add("distant", "write-ptr-nonpromoting-nofastpath", time.Since(start))
				start = time.Now()
				for i := 0; i < iters; i++ {
					fresh := t.Alloc(0, 1, mem.TagRef)
					t.WritePtr(distCell, 0, fresh) // promotes fresh to the root
				}
				add("distant", "write-ptr-promoting", time.Since(start))

				// --- promoted (object with a forwarding chain) ---
				promoted := t.Alloc(0, 1, mem.TagRef)
				t.WritePtr(distCell, 0, promoted) // installs the chain
				start = time.Now()
				for i := 0; i < iters; i++ {
					sink += t.ReadImmWord(promoted, 0)
				}
				add("promoted", "read-imm", time.Since(start))
				start = time.Now()
				for i := 0; i < iters; i++ {
					sink += t.ReadMutWord(promoted, 0)
				}
				add("promoted", "read-mut", time.Since(start))
				start = time.Now()
				for i := 0; i < iters; i++ {
					t.WriteNonptr(promoted, 0, uint64(i))
				}
				add("promoted", "write-nonptr", time.Since(start))

				return sink
			},
			func(t *rts.Task, _ mem.ObjPtr) uint64 { return 0 })
		return 0
	})
	return rows
}
