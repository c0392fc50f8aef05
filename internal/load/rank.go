package load

import (
	"repro/hh"
	"repro/internal/graph"
)

// rankRequest models long-running analytics sharing the runtime with
// latency-sensitive serving: generate a small RMAT-style graph host-side
// (deterministic in seed, like every graph.Generate use), load its CSR
// into the session subtree, run iters integer PageRank sweeps, and
// checksum the final rank vector. Fixed-point arithmetic keeps the result
// bit-exact across modes and partitionings; the pull-style sweep (each
// vertex reads its neighbors' current ranks, writes only its own next
// rank) makes the parallel update race-free without CAS.
//
// As a mix component this is the low-priority, long-occupancy tenant of
// the mixed-criticality story: its sessions hold chunks for much longer
// than a kv request, and the latency-sensitive traffic it is mixed with
// shares the pool with it.
func rankRequest(t *hh.Task, seed uint64, size, iters int) uint64 {
	nv := size / 8
	if nv < 16 {
		nv = 16
	}
	g := graph.Generate(graph.Spec{N: nv, AvgDeg: 4, Seed: seed})
	n, m := g.N, g.Edges()

	const scale = 1 << 16 // fixed-point unit
	var sum uint64
	t.Scoped(func(sc *hh.Scope) {
		offs := sc.Ref(t.Alloc(0, n+1, hh.TagArrI64))
		tgts := sc.Ref(t.Alloc(0, m, hh.TagArrI64))
		total := 0
		for v := 0; v < n; v++ {
			t.InitWord(offs.Get(), v, uint64(total))
			for _, w := range g.Adj[v] {
				t.InitWord(tgts.Get(), total, uint64(w))
				total++
			}
		}
		t.InitWord(offs.Get(), n, uint64(total))

		ranks := sc.Ref(t.AllocMut(0, n, hh.TagArrI64))
		next := sc.Ref(t.AllocMut(0, n, hh.TagArrI64))
		for v := 0; v < n; v++ {
			t.WriteWord(ranks.Get(), v, scale)
		}
		grain := n / 8
		if grain < 16 {
			grain = 16
		}
		for it := 0; it < iters; it++ {
			hh.ParDo(t, hh.Bind(offs, tgts, ranks, next), 0, n, grain,
				func(t *hh.Task, e *hh.Env, lo, hi int) {
					for v := lo; v < hi; v++ {
						var gather uint64
						vlo := int(t.ReadImmWord(e.Ptr(0), v))
						vhi := int(t.ReadImmWord(e.Ptr(0), v+1))
						for i := vlo; i < vhi; i++ {
							u := int(t.ReadImmWord(e.Ptr(1), i))
							ulo := t.ReadImmWord(e.Ptr(0), u)
							uhi := t.ReadImmWord(e.Ptr(0), u+1)
							// Every vertex has backbone edges, so uhi > ulo.
							gather += t.ReadMutWord(e.Ptr(2), u) / (uhi - ulo)
						}
						t.WriteWord(e.Ptr(3), v, scale*15/100+gather*85/100)
					}
				})
			r := ranks.Get()
			ranks.Set(next.Get())
			next.Set(r)
		}
		for v := 0; v < n; v++ {
			sum = sum*31 + t.ReadMutWord(ranks.Get(), v)
		}
	})
	return sum
}
