package load

import (
	"repro/hh"
)

const streamParts = 4 // window partitions per request

// streamWindow models sliding-window stream aggregation: each partition
// owns a ring of window slots in a session-shared index. Every step
// builds the step's batch as a record chain, publishes its head into the
// ring slot — expiring (discarding) the slot's previous occupant — and
// folds an aggregate over the live window. Every record is born in the
// index's heap (AllocIn), so the chain links stay within that heap and,
// in ParMem, the publish is an ancestor-pointee write.
//
// Partitions touch disjoint slots and fold in fixed order, so the
// checksum is a pure function of (seed, size, window) in every mode.
func streamWindow(t *hh.Task, seed uint64, size, window int) uint64 {
	steps := size / (streamParts * 4)
	if steps < 2*window {
		steps = 2 * window
	}
	const recs = 3 // records per step batch
	var sum uint64
	t.Scoped(func(sc *hh.Scope) {
		index := sc.Ref(t.AllocMut(streamParts*window, 0, hh.TagArrPtr))
		aggs := sc.Ref(t.AllocMut(0, streamParts, hh.TagArrI64))
		hh.ParDo(t, hh.Bind(index, aggs), 0, streamParts, 1,
			func(t *hh.Task, e *hh.Env, lo, hi int) {
				for p := lo; p < hi; p++ {
					var acc uint64
					for step := 0; step < steps; step++ {
						slot := p*window + step%window
						t.Scoped(func(ws *hh.Scope) {
							head := ws.Ref(hh.Nil)
							for j := 0; j < recs; j++ {
								rec := t.AllocIn(e.Ptr(0), 1, 1, hh.TagCons)
								t.InitWord(rec, 0,
									hh.Hash64(seed^uint64(p)<<40^uint64(step)<<8^uint64(j)))
								t.InitPtr(rec, 0, head.Get())
								head.Set(rec)
							}
							t.WritePtr(e.Ptr(0), slot, head.Get())
						})
						for w := 0; w < window; w++ {
							for q := t.ReadMutPtr(e.Ptr(0), p*window+w); !q.IsNil(); q = t.ReadImmPtr(q, 0) {
								acc = acc*31 + t.ReadImmWord(q, 0)
							}
						}
					}
					t.WriteWord(e.Ptr(1), p, acc)
				}
			})
		for p := 0; p < streamParts; p++ {
			sum = sum*1099511628211 + t.ReadMutWord(aggs.Get(), p)
		}
	})
	return sum
}
