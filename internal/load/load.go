// Package load defines the request scenarios driven by the closed-loop
// load generator (cmd/hhload), the open-loop client (cmd/hhshoot) and the
// benchmark (benchmark/). Each scenario is one self-contained request:
// given a seed and a size it builds, mutates, and folds session-local data
// into a deterministic checksum, so the same request stream can be
// replayed against every runtime mode — and against every barrier
// ablation — and cross-validated. The stateful
// txn scenario shares a host-side store across requests and keeps the
// same discipline by making each committed request's checksum a pure
// function of its seed; the drive loop retries its optimistic-conflict
// aborts (each one a wholesale rollback) until the request commits.
package load

import (
	"fmt"
	"strconv"
	"strings"

	"repro/hh"
)

// Scenario is one request archetype. Stateless scenarios provide Run;
// stateful ones (txn) provide NewRun instead and are instantiated once per
// drive loop, so concurrent requests share (host-side) state and the
// instance can be oracle-checked after the loop drains.
type Scenario struct {
	Name string
	// Run executes one request on the session's root task. The checksum is
	// a pure function of (seed, size) in every runtime mode. nil for
	// stateful scenarios.
	Run func(t *hh.Task, seed uint64, size int) uint64
	// NewRun instantiates a stateful scenario's shared state for one drive
	// loop. nil for stateless scenarios.
	NewRun func(size int) ScenarioRun
}

// ScenarioRun is one instantiated stateful scenario. Its Run method keeps
// the same contract as Scenario.Run — each successful request's checksum
// is a pure function of (seed, size), so the drive loop's order-
// independent sum stays mode-invariant no matter how concurrent requests
// interleave on the shared state.
type ScenarioRun interface {
	Run(t *hh.Task, seed uint64, size int) uint64
	// Verify cross-checks the instance's final state after the drive loop
	// has drained (the serializability oracle for txn: replay the committed
	// schedule through a single-threaded model and compare). nil when
	// consistent.
	Verify() error
}

// Params tunes the parameterized scenarios; zero values select defaults.
type Params struct {
	TxnKeys      int // txn: keys in the shared store (smaller = more conflicts); default 64
	StreamWindow int // stream: ring slots per partition window; default 8
	RankIters    int // rank: PageRank sweeps per request; default 4
}

func (p Params) withDefaults() Params {
	if p.TxnKeys <= 0 {
		p.TxnKeys = 64
	}
	if p.StreamWindow <= 0 {
		p.StreamWindow = 8
	}
	if p.RankIters <= 0 {
		p.RankIters = 4
	}
	return p
}

const kvSlots = 16

// kvChurn models a key-value store's write-heavy churn: size keys hash
// into a session-shared bucket array, each bucket's chain is then
// compacted — reversed in place, the access-order rewrite of an LRU — and
// every bucket is scanned back. Each cell is born in the bucket array's
// heap (AllocIn), so in ParMem the insert that publishes it is an
// ancestor-pointee write, like every write of the compaction phase (cell
// to cell within that heap): the barrier fast path's home turf.
func kvChurn(t *hh.Task, seed uint64, size int) uint64 {
	var sum uint64
	t.Scoped(func(sc *hh.Scope) {
		buckets := sc.Ref(t.AllocMut(kvSlots, 0, hh.TagArrPtr))
		hh.ParDo(t, hh.Bind(buckets), 0, kvSlots, 1, func(t *hh.Task, e *hh.Env, lo, hi int) {
			for b := lo; b < hi; b++ {
				n := size / kvSlots
				for i := 0; i < n; i++ {
					t.Scoped(func(ws *hh.Scope) {
						key := hh.Hash64(seed + uint64(b*n+i))
						head := ws.Ref(t.ReadMutPtr(e.Ptr(0), b))
						cell := t.AllocIn(e.Ptr(0), 1, 2, hh.TagCons)
						t.InitWord(cell, 0, key)
						t.InitWord(cell, 1, key^seed)
						t.InitPtr(cell, 0, head.Get())
						t.WritePtr(e.Ptr(0), b, cell)
					})
				}
				// Compaction: reverse the chain in place. Every write is
				// cell -> cell within the bucket array's heap (the session
				// root; the global heap in Manticore), so none can promote
				// and none allocates — raw pointers stay valid throughout.
				prev := hh.Nil
				cur := t.ReadMutPtr(e.Ptr(0), b)
				for !cur.IsNil() {
					next := t.ReadMutPtr(cur, 0)
					t.WritePtr(cur, 0, prev)
					prev = cur
					cur = next
				}
				t.WritePtr(e.Ptr(0), b, prev)
			}
		})
		for b := 0; b < kvSlots; b++ {
			for p := t.ReadMutPtr(buckets.Get(), b); !p.IsNil(); p = t.ReadMutPtr(p, 0) {
				sum = sum*31 + t.ReadImmWord(p, 0) + t.ReadImmWord(p, 1)
			}
		}
	})
	return sum
}

// bfsQuery models a graph query: a parallel visit over an implicit
// frontier in which every visit allocates a record and links it into a
// shared per-bucket visit list (the paper's usp-tree pattern). The record
// is born in the lists' heap (AllocIn), so the link does not promote;
// forkjoin-paper's usp-tree keeps the task-local, promoting version.
func bfsQuery(t *hh.Task, seed uint64, size int) uint64 {
	const nb = 8
	var sum uint64
	t.Scoped(func(sc *hh.Scope) {
		lists := sc.Ref(t.AllocMut(nb, 0, hh.TagArrPtr))
		hh.ParDo(t, hh.Bind(lists), 0, nb, 1, func(t *hh.Task, e *hh.Env, lo, hi int) {
			for b := lo; b < hi; b++ {
				nv := size / nb
				for v := 0; v < nv; v++ {
					t.Scoped(func(s *hh.Scope) {
						head := s.Ref(t.ReadMutPtr(e.Ptr(0), b))
						rec := t.AllocIn(e.Ptr(0), 1, 1, hh.TagCons)
						t.InitWord(rec, 0, hh.Hash64(seed^uint64(b)<<32^uint64(v)))
						t.InitPtr(rec, 0, head.Get())
						t.WritePtr(e.Ptr(0), b, rec)
					})
				}
			}
		})
		for b := 0; b < nb; b++ {
			for p := t.ReadMutPtr(lists.Get(), b); !p.IsNil(); p = t.ReadImmPtr(p, 0) {
				sum = sum*1099511628211 + t.ReadImmWord(p, 0)
			}
		}
	})
	return sum
}

// fanPublish models an index build: the request shares a directory array
// of slots, and each partition materializes one record per slot of its
// slice and publishes it there. Each record is born in the directory's heap
// (AllocIn), so in ParMem the publish is an ancestor-pointee write.
func fanPublish(t *hh.Task, seed uint64, size int) uint64 {
	const parts = 8
	slots := size / 4
	if slots < parts {
		slots = parts
	}
	grain := slots / parts
	var sum uint64
	t.Scoped(func(sc *hh.Scope) {
		dir := sc.Ref(t.AllocMut(slots, 0, hh.TagArrPtr))
		hh.ParDo(t, hh.Bind(dir), 0, slots, grain, func(t *hh.Task, e *hh.Env, lo, hi int) {
			for j := lo; j < hi; j++ {
				rec := t.AllocIn(e.Ptr(0), 1, 1, hh.TagCons)
				t.InitWord(rec, 0, hh.Hash64(seed^uint64(j)<<24))
				t.WritePtr(e.Ptr(0), j, rec)
			}
		})
		for i := 0; i < slots; i++ {
			rec := t.ReadMutPtr(dir.Get(), i)
			sum = sum*1099511628211 + t.ReadImmWord(rec, 0)
		}
	})
	return sum
}

// histogram models an analytics request: tabulate size hashed samples in
// parallel (a rope of leaves across the session's subtree), then count
// them into a shared 64-bucket histogram with CAS increments.
func histogram(t *hh.Task, seed uint64, size int) uint64 {
	var sum uint64
	t.Scoped(func(sc *hh.Scope) {
		grain := size / 8
		if grain < 64 {
			grain = 64
		}
		samples := sc.Ref(hh.Tabulate(t, size, grain, func(i int) uint64 {
			return hh.Hash64(seed + uint64(i))
		}))
		hist := sc.Ref(t.AllocMut(0, 64, hh.TagArrI64))
		hh.ParDo(t, hh.Bind(samples, hist), 0, size, grain,
			func(t *hh.Task, e *hh.Env, lo, hi int) {
				for i := lo; i < hi; i++ {
					v := hh.At(t, e.Ptr(0), i)
					b := int(v % 64)
					for {
						old := t.ReadMutWord(e.Ptr(1), b)
						if t.CASWord(e.Ptr(1), b, old, old+v) {
							break
						}
					}
				}
			})
		for b := 0; b < 64; b++ {
			sum = sum*31 + t.ReadMutWord(hist.Get(), b)
		}
	})
	return sum
}

// All returns every scenario with default Params, in canonical order.
func All() []Scenario { return AllWith(Params{}) }

// AllWith returns every scenario, in canonical order, with the
// parameterized ones bound to p.
func AllWith(p Params) []Scenario {
	p = p.withDefaults()
	return []Scenario{
		{Name: "kv", Run: kvChurn},
		{Name: "bfs", Run: bfsQuery},
		{Name: "hist", Run: histogram},
		{Name: "fan", Run: fanPublish},
		{Name: "txn", NewRun: func(size int) ScenarioRun { return newTxnStore(p.TxnKeys) }},
		{Name: "stream", Run: func(t *hh.Task, seed uint64, size int) uint64 {
			return streamWindow(t, seed, size, p.StreamWindow)
		}},
		{Name: "rank", Run: func(t *hh.Task, seed uint64, size int) uint64 {
			return rankRequest(t, seed, size, p.RankIters)
		}},
	}
}

// ByName resolves one scenario with default Params.
func ByName(name string) (Scenario, error) { return ByNameWith(Params{}, name) }

// ByNameWith resolves one scenario with p bound.
func ByNameWith(p Params, name string) (Scenario, error) {
	for _, s := range AllWith(p) {
		if s.Name == name {
			return s, nil
		}
	}
	return Scenario{}, fmt.Errorf("load: unknown scenario %q (want kv|bfs|hist|fan|txn|stream|rank)", name)
}

// Mix is a weighted scenario mix; requests are assigned deterministically
// by request index, so every runtime mode replays the identical stream.
type Mix struct {
	entries []Scenario
}

// ParseMixWith parses "kv=4,bfs=1,hist=1" (or "kv,bfs" with weight 1
// each) into a mix, with p bound into the parameterized scenarios.
func ParseMixWith(p Params, spec string) (Mix, error) {
	var m Mix
	for _, part := range strings.Split(spec, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		name, weight := part, 1
		if i := strings.IndexByte(part, '='); i >= 0 {
			name = part[:i]
			w, err := strconv.Atoi(part[i+1:])
			if err != nil || w < 1 {
				return Mix{}, fmt.Errorf("load: bad weight in %q", part)
			}
			weight = w
		}
		s, err := ByNameWith(p, name)
		if err != nil {
			return Mix{}, err
		}
		for i := 0; i < weight; i++ {
			m.entries = append(m.entries, s)
		}
	}
	if len(m.entries) == 0 {
		return Mix{}, fmt.Errorf("load: empty mix %q", spec)
	}
	return m, nil
}

// Pick returns the scenario for request i. Striding by a hash keeps the
// scenarios interleaved rather than phased while staying deterministic.
func (m Mix) Pick(i uint64) Scenario {
	return m.entries[hh.Hash64(i)%uint64(len(m.entries))]
}

// Len reports the mix's (weight-expanded) entry count.
func (m Mix) Len() int { return len(m.entries) }
