// Histogram example: parallel tasks bin hashed values into a shared
// mutable array at the root with compare-and-swap — the "distant
// non-pointer write" class of Figure 8. Contrast with the tournament
// example, where all mutation is local. Runs on any of the four runtime
// systems (-mode).
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"

	"repro/hh"
)

func main() {
	n := flag.Int("n", 1<<20, "values to bin")
	bins := flag.Int("bins", 256, "histogram bins")
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

	total := hh.Run(r, func(t *hh.Task) uint64 {
		var sum uint64
		t.Scoped(func(sc *hh.Scope) {
			hist := sc.Ref(t.AllocMut(0, *bins, hh.TagArrI64))
			nbins := uint64(*bins)
			hh.ParDo(t, hh.Bind(hist), 0, *n, 4096,
				func(t *hh.Task, e *hh.Env, lo, hi int) {
					h := e.Ptr(0)
					for i := lo; i < hi; i++ {
						bin := int(hh.Hash64(uint64(i)) % nbins)
						for {
							old := t.ReadMutWord(h, bin)
							if t.CASWord(h, bin, old, old+1) {
								break
							}
						}
					}
				})
			h := hist.Get()
			for b := 0; b < *bins; b++ {
				sum += t.ReadMutWord(h, b)
			}
		})
		return sum
	})

	st := r.Stats()
	allCounted := total == uint64(*n)
	fmt.Printf("binned %d values into %d bins on %d workers (%v, all counted: %v)\n",
		*n, *bins, r.Procs(), r.Mode(), allCounted)
	fmt.Printf("  distant CAS operations: %d, promotions: %d\n",
		st.Ops.CASFast+st.Ops.CASSlow, st.Ops.WritePtrProm)
	fmt.Printf("  representative operation: %s\n", st.Ops.Representative())
	if !allCounted {
		os.Exit(1)
	}
}
