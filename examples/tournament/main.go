// Tournament example: a parallel tournament tree where every elimination
// performs a mutable pointer write on data that is already local to the
// writing task. Shows the paper's headline economics: under hierarchical
// heaps local mutation is free — fast-path writes only, zero promotions —
// while the same program pays global-heap costs on the DLG-style
// configuration (-mode manticore).
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"

	"repro/hh"
)

// contestant allocates entrant i with its hashed strength.
func contestant(t *hh.Task, i int) hh.Ptr {
	c := t.Alloc(0, 1, hh.TagTuple)
	t.InitWord(c, 0, hh.Hash64(uint64(i)))
	return c
}

// eliminate writes the winner of l vs r into match slot m — the mutable
// pointer write that the benchmark counts — and returns the winner.
func eliminate(t *hh.Task, m, l, r hh.Ptr) hh.Ptr {
	if t.ReadImmWord(l, 0) <= t.ReadImmWord(r, 0) {
		t.WritePtr(m, 0, l)
	} else {
		t.WritePtr(m, 0, r)
	}
	return t.ReadMutPtr(m, 0)
}

// play returns the winner of the bracket over contestants [lo, hi).
func play(t *hh.Task, lo, hi, grain int) hh.Ptr {
	if hi-lo == 1 {
		return contestant(t, lo)
	}
	var out hh.Ptr
	if hi-lo <= grain {
		// Sequential bracket below the grain: one match slot, one
		// elimination write per entrant.
		t.Scoped(func(s *hh.Scope) {
			slot := s.Ref(t.Alloc(1, 0, hh.TagNode))
			champ := s.Ref(contestant(t, lo))
			for i := lo + 1; i < hi; i++ {
				t.Scoped(func(inner *hh.Scope) {
					c := inner.Ref(contestant(t, i))
					champ.Set(eliminate(t, slot.Get(), champ.Get(), c.Get()))
				})
			}
			out = champ.Get()
		})
		return out
	}
	mid := lo + (hi-lo)/2
	wl, wr := hh.Fork2(t, nil,
		func(t *hh.Task, _ *hh.Env) hh.Ptr { return play(t, lo, mid, grain) },
		func(t *hh.Task, _ *hh.Env) hh.Ptr { return play(t, mid, hi, grain) })
	t.Scoped(func(s *hh.Scope) {
		l := s.Ref(wl)
		r := s.Ref(wr)
		m := s.Ref(t.Alloc(1, 0, hh.TagNode))
		out = eliminate(t, m.Get(), l.Get(), r.Get())
	})
	return out
}

func main() {
	n := flag.Int("n", 1<<18, "contestants")
	grain := flag.Int("grain", 1<<10, "sequential bracket size")
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

	champ := hh.Run(r, func(t *hh.Task) uint64 {
		return t.ReadImmWord(play(t, 0, *n, *grain), 0)
	})

	want := hh.Hash64(0)
	for i := 1; i < *n; i++ {
		if h := hh.Hash64(uint64(i)); h < want {
			want = h
		}
	}
	ok := champ == want

	st := r.Stats()
	elims := st.Ops.WritePtrFast + st.Ops.WritePtrNonProm + st.Ops.WritePtrProm
	fmt.Printf("tournament over %d contestants on %d workers (%v): champion ok=%v\n",
		*n, r.Procs(), r.Mode(), ok)
	fmt.Printf("  eliminations (mutable pointer writes): %d\n", elims)
	fmt.Printf("  fast-path (local) share: %d, promotions: %d\n",
		st.Ops.WritePtrFast, st.Ops.WritePtrProm)
	fmt.Printf("  representative operation: %s\n", st.Ops.Representative())
	if !ok {
		os.Exit(1)
	}
}
