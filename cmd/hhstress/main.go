// Command hhstress is a failure-injection stress driver: it hammers the
// promotion machinery with concurrent entangling writes under an
// aggressive collection policy, then verifies the disentanglement
// invariant and the published data structures. A clean exit means the
// hierarchy survived; any violation panics with a diagnostic. Written
// against the public hh API, it doubles as that surface's end-to-end
// acceptance test.
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"time"

	"repro/hh"
)

func main() {
	rounds := flag.Int("rounds", 20, "stress rounds")
	slots := flag.Int("slots", 64, "shared list-head slots")
	writes := flag.Int("writes", 400, "writes per slot per round")
	live := flag.Int("live", 1000, "task-local live cells kept across the writes (leaf-zone copy work)")
	procs := flag.Int("procs", runtime.NumCPU(), "workers")
	flag.Parse()
	// The pool simulates *procs processors; give the Go scheduler as many,
	// so disjoint zone collections can actually overlap in wall time.
	runtime.GOMAXPROCS(*procs)

	// Failure injection: collect constantly so promotions, collections,
	// and forwarding-chain maintenance interleave as much as possible.
	opts := []hh.Option{
		hh.WithMode(hh.ParMem),
		hh.WithProcs(*procs),
		hh.WithGCPolicy(2048, 1.25),
	}

	var peakZones int64
	for round := 0; round < *rounds; round++ {
		r := hh.New(opts...)
		ok := hh.Run(r, func(t *hh.Task) uint64 {
			var good uint64 = 1
			t.Scoped(func(sc *hh.Scope) {
				arr := sc.Ref(t.AllocMut(*slots, 0, hh.TagArrPtr))
				nw, nl := *writes, *live
				hh.ParDo(t, hh.Bind(arr), 0, *slots, 1,
					func(t *hh.Task, e *hh.Env, lo, hi int) {
						for s := lo; s < hi; s++ {
							t.Scoped(func(ls *hh.Scope) {
								// A task-local live list: it is copied by every
								// leaf-zone collection of this task's heap, so
								// collections are substantial enough to overlap
								// with sibling zones and with promotions.
								local := ls.Ref(hh.Nil)
								for i := 0; i < nl; i++ {
									cons := t.Alloc(1, 1, hh.TagCons)
									t.InitWord(cons, 0, uint64(i))
									t.InitPtr(cons, 0, local.Get())
									local.Set(cons)
								}
								for i := 0; i < nw; i++ {
									t.Scoped(func(ws *hh.Scope) {
										head := ws.Ref(t.ReadMutPtr(e.Ptr(0), s))
										cons := t.Alloc(1, 1, hh.TagCons)
										t.InitWord(cons, 0, uint64(s)<<32|uint64(i))
										t.InitPtr(cons, 0, head.Get())
										t.WritePtr(e.Ptr(0), s, cons)
									})
								}
								for i, p := nl-1, local.Get(); i >= 0; i-- {
									if p.IsNil() || t.ReadImmWord(p, 0) != uint64(i) {
										panic("hhstress: task-local live list corrupted")
									}
									p = t.ReadImmPtr(p, 0)
								}
							})
						}
					})
				// Validate every list: full length, descending insertion order.
				for s := 0; s < *slots; s++ {
					p := t.ReadMutPtr(arr.Get(), s)
					for i := nw - 1; i >= 0; i-- {
						if p.IsNil() || t.ReadImmWord(p, 0) != uint64(s)<<32|uint64(i) {
							good = 0
							return
						}
						p = t.ReadImmPtr(p, 0)
					}
					if !p.IsNil() {
						good = 0
						return
					}
				}
			})
			return good
		})
		if ok != 1 {
			fmt.Fprintf(os.Stderr, "round %d: DATA CORRUPTION DETECTED\n", round)
			os.Exit(1)
		}
		if err := r.CheckDisentangled(); err != nil {
			fmt.Fprintf(os.Stderr, "round %d: %v\n", round, err)
			os.Exit(1)
		}
		st := r.Stats()
		r.Close()
		if hh.ChunksInUse() != 0 {
			fmt.Fprintf(os.Stderr, "round %d: %d chunks leaked\n", round, hh.ChunksInUse())
			os.Exit(1)
		}
		if st.Zones.MaxConcurrent > peakZones {
			peakZones = st.Zones.MaxConcurrent
		}
		fmt.Printf("round %2d ok: %6d promotions, %4d collections (%d leaf + %d join zones, max %d concurrent, %s overlap), %3d steals, %5d master retries\n",
			round, st.Ops.WritePtrProm, st.GC.Collections,
			st.Zones.LeafZones, st.Zones.JoinZones, st.Zones.MaxConcurrent,
			time.Duration(st.Zones.OverlapNanos).Round(time.Microsecond),
			st.Steals, st.Ops.FindMasterRetries)
	}
	fmt.Printf("stress complete: disentanglement and data integrity held; peak concurrent zones %d\n", peakZones)
}
