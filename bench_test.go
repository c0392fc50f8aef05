package repro

import (
	"fmt"
	"math"
	"runtime"
	"testing"

	"repro/internal/bench"
	"repro/internal/gc"
	"repro/internal/mem"
	"repro/internal/rts"
)

// Benchmark scales: smaller than the hhbench defaults so a full
// `go test -bench=.` sweep stays tractable, large enough that the paper's
// relative shape is visible.
func benchScale(name string) bench.Scale {
	switch name {
	case "fib":
		return bench.Scale{N: 32, Grain: 20}
	case "tabulate", "map", "reduce", "filter":
		return bench.Scale{N: 1 << 19, Grain: 1 << 10}
	case "msort-pure", "msort":
		return bench.Scale{N: 1 << 16, Grain: 1 << 10}
	case "dedup":
		return bench.Scale{N: 1 << 16, Grain: 1 << 10, Extra: 10}
	case "dmm":
		return bench.Scale{N: 96, Grain: 1}
	case "smvm":
		return bench.Scale{N: 1000, Grain: 1, Extra: 100}
	case "strassen":
		return bench.Scale{N: 128, Grain: 32}
	case "raytracer":
		return bench.Scale{N: 128, Grain: 300}
	case "tourney":
		return bench.Scale{N: 1 << 17, Grain: 1 << 10}
	case "reachability", "usp":
		return bench.Scale{N: 1 << 14, Grain: 128, Extra: 16}
	case "usp-tree":
		return bench.Scale{N: 1 << 12, Grain: 128, Extra: 16}
	case "multi-usp-tree":
		return bench.Scale{N: 1 << 11, Grain: 128, Extra: 4}
	default:
		return bench.Scale{N: 1 << 14, Grain: 256}
	}
}

// runTableBenchmarks drives one paper table: every benchmark × system ×
// processor count, reporting GC share and promoted bytes as metrics.
func runTableBenchmarks(b *testing.B, pure bool) {
	maxProcs := runtime.NumCPU()
	for _, bm := range bench.All() {
		if bm.Pure != pure {
			continue
		}
		systems := []rts.Mode{rts.Seq, rts.STW, rts.ParMem}
		if bm.Pure {
			systems = []rts.Mode{rts.Seq, rts.STW, rts.Manticore, rts.ParMem}
		}
		for _, mode := range systems {
			procsList := []int{1, maxProcs}
			if mode == rts.Seq || maxProcs == 1 {
				procsList = []int{1}
			}
			for _, procs := range procsList {
				name := fmt.Sprintf("%s/%s/p%d", bm.Name, mode, procs)
				b.Run(name, func(b *testing.B) {
					sc := benchScale(bm.Name)
					var last bench.Result
					for i := 0; i < b.N; i++ {
						last = bench.Run(bm, rts.DefaultConfig(mode, procs), sc)
					}
					b.ReportMetric(100*last.GCFraction(), "gc%")
					b.ReportMetric(float64(last.Totals.Ops.PromotedBytes()), "promoted-B")
					b.ReportMetric(float64(last.Totals.PeakMem)/(1<<20), "peak-MB")
				})
			}
		}
	}
}

// BenchmarkFig10 regenerates the pure-benchmark table (paper Figure 10).
func BenchmarkFig10(b *testing.B) { runTableBenchmarks(b, true) }

// BenchmarkFig11 regenerates the imperative-benchmark table (Figure 11).
func BenchmarkFig11(b *testing.B) { runTableBenchmarks(b, false) }

// BenchmarkFig12 regenerates the parmem speedup-versus-processors series.
func BenchmarkFig12(b *testing.B) {
	for _, name := range []string{"fib", "reduce", "msort", "tourney", "usp", "usp-tree"} {
		bm, err := bench.ByName(name)
		if err != nil {
			b.Fatal(err)
		}
		for procs := 1; procs <= runtime.NumCPU(); procs++ {
			b.Run(fmt.Sprintf("%s/p%d", name, procs), func(b *testing.B) {
				sc := benchScale(name)
				for i := 0; i < b.N; i++ {
					bench.Run(bm, rts.DefaultConfig(rts.ParMem, procs), sc)
				}
			})
		}
	}
}

// BenchmarkFig13 regenerates the memory-consumption comparison: the
// reported metric of interest is peak-MB per system.
func BenchmarkFig13(b *testing.B) {
	for _, name := range []string{"map", "msort", "tourney", "usp-tree"} {
		bm, err := bench.ByName(name)
		if err != nil {
			b.Fatal(err)
		}
		systems := []rts.Mode{rts.Seq, rts.STW, rts.ParMem}
		for _, mode := range systems {
			procs := runtime.NumCPU()
			if mode == rts.Seq {
				procs = 1
			}
			b.Run(fmt.Sprintf("%s/%s", name, mode), func(b *testing.B) {
				sc := benchScale(name)
				var last bench.Result
				for i := 0; i < b.N; i++ {
					last = bench.Run(bm, rts.DefaultConfig(mode, procs), sc)
				}
				b.ReportMetric(float64(last.Totals.PeakMem)/(1<<20), "peak-MB")
			})
		}
	}
}

// BenchmarkFig8Ops measures the individual memory operations of the cost
// matrix directly under the Go benchmark harness (complementing
// hhbench -table fig8).
func BenchmarkFig8Ops(b *testing.B) {
	cfg := rts.DefaultConfig(rts.ParMem, 1)
	cfg.Policy = gc.Policy{MinWords: math.MaxInt64} // collection off

	type opCase struct {
		name string
		run  func(t *rts.Task, env mem.ObjPtr, n int) uint64
	}
	cases := []opCase{
		{"local/read-imm", func(t *rts.Task, env mem.ObjPtr, n int) uint64 {
			local := t.Alloc(0, 1, mem.TagRef)
			var s uint64
			for i := 0; i < n; i++ {
				s += t.ReadImmWord(local, 0)
			}
			return s
		}},
		{"local/write-nonptr", func(t *rts.Task, env mem.ObjPtr, n int) uint64 {
			local := t.Alloc(0, 1, mem.TagRef)
			for i := 0; i < n; i++ {
				t.WriteNonptr(local, 0, uint64(i))
			}
			return 0
		}},
		{"distant/write-nonptr", func(t *rts.Task, env mem.ObjPtr, n int) uint64 {
			for i := 0; i < n; i++ {
				t.WriteNonptr(env, 0, uint64(i))
			}
			return 0
		}},
		{"distant/write-ptr-promoting", func(t *rts.Task, env mem.ObjPtr, n int) uint64 {
			for i := 0; i < n; i++ {
				fresh := t.Alloc(0, 1, mem.TagRef)
				t.WritePtr(env, 1, fresh)
			}
			return 0
		}},
	}

	for _, c := range cases {
		b.Run(c.name, func(b *testing.B) {
			r := rts.New(cfg)
			defer r.Close()
			r.Run(func(t *rts.Task) uint64 {
				// Distant env: word cell (field 0) and pointer cell (field 1)
				// at the root; measurement happens one fork level down.
				env := t.Alloc(2, 1, mem.TagTuple)
				res, _ := t.ForkJoinScalar(env,
					func(t *rts.Task, env mem.ObjPtr) uint64 {
						return c.run(t, env, b.N)
					},
					func(t *rts.Task, _ mem.ObjPtr) uint64 { return 0 })
				return res
			})
		})
	}
}

// BenchmarkAblationGC isolates collection overhead on an allocation-heavy
// pure workload.
func BenchmarkAblationGC(b *testing.B) {
	bm, err := bench.ByName("msort-pure")
	if err != nil {
		b.Fatal(err)
	}
	for _, off := range []bool{false, true} {
		name := "gc-on"
		if off {
			name = "gc-off"
		}
		b.Run(name, func(b *testing.B) {
			cfg := rts.DefaultConfig(rts.ParMem, runtime.NumCPU())
			if off {
				cfg.Policy = gc.Policy{MinWords: math.MaxInt64}
			}
			sc := benchScale("msort-pure")
			for i := 0; i < b.N; i++ {
				bench.Run(bm, cfg, sc)
			}
		})
	}
}
