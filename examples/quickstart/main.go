// Quickstart: the paper's Figure 1 — parallel merge sort with an
// imperative in-place quicksort below the grain — on the hierarchical
// heaps runtime, written against the public hh API. Demonstrates
// runtimes, generic fork-join, scope-registered roots (no manual
// PushRoot/PopRoots), and environment threading via Bind/Env.
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"

	"repro/hh"
)

// msort is Figure 1: split to the grain, quicksort leaves in place, merge
// sorted results at the joins. Pointers cross the fork through Bind; each
// arm re-reads its half from its Env.
func msort(t *hh.Task, s hh.Ptr, grain int) hh.Ptr {
	n := hh.Length(t, s)
	if n <= grain {
		a := hh.ToArray(t, s) // Seq.toArray
		hh.SortArray(t, a)
		return a // Seq.fromArray
	}
	var out hh.Ptr
	t.Scoped(func(sc *hh.Scope) {
		l, r := hh.SplitMid(t, s)
		lr := sc.Ref(l)
		rr := sc.Ref(r)
		ls, rs := hh.Fork2(t, hh.Bind(lr, rr),
			func(t *hh.Task, e *hh.Env) hh.Ptr { return msort(t, e.Ptr(0), grain) },
			func(t *hh.Task, e *hh.Env) hh.Ptr { return msort(t, e.Ptr(1), grain) })
		out = hh.MergeSorted(t, ls, rs)
	})
	return out
}

func main() {
	size := flag.Int("size", 1<<16, "elements to sort")
	grain := flag.Int("grain", 1<<9, "sequential cutoff")
	procs := flag.Int("procs", runtime.NumCPU(), "workers")
	modeName := flag.String("mode", "parmem", "parmem|stw|seq|manticore")
	flag.Parse()

	mode, err := hh.ParseMode(*modeName)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	r := hh.New(hh.WithMode(mode), hh.WithProcs(*procs))
	defer r.Close()

	sorted := hh.Run(r, func(t *hh.Task) bool {
		ok := true
		t.Scoped(func(sc *hh.Scope) {
			// Build the input: size hashed 64-bit values.
			in := sc.Ref(hh.Tabulate(t, *size, *grain,
				func(i int) uint64 { return hh.Hash64(uint64(i)) }))
			out := sc.Ref(msort(t, in.Get(), *grain))

			// Verify the result is sorted.
			prev := uint64(0)
			for i := 0; i < *size; i++ {
				v := t.ReadImmWord(out.Get(), i)
				if v < prev {
					ok = false
					return
				}
				prev = v
			}
		})
		return ok
	})

	st := r.Stats()
	fmt.Printf("msort of %d elements on %d workers (%v): sorted=%v\n",
		*size, r.Procs(), r.Mode(), sorted)
	fmt.Printf("  allocations: %d objects (%d KiB)\n", st.Ops.Allocs, st.Ops.AllocWords*8/1024)
	fmt.Printf("  steals: %d, promotions: %d (pure fork-join data flow promotes nothing)\n",
		st.Steals, st.Ops.WritePtrProm)
	fmt.Printf("  collections: %d, copied %d KiB, GC time %.2fms\n",
		st.GC.Collections, st.GC.WordsCopied*8/1024, float64(st.GCNanos)/1e6)
	if !sorted {
		os.Exit(1)
	}
}
