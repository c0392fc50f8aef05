package bench

import (
	"math"
	"testing"

	"repro/internal/gc"
	"repro/internal/graph"
	"repro/internal/mem"
	"repro/internal/rts"
	"repro/internal/seq"
)

// tinyScale returns a fast test size for each benchmark.
func tinyScale(name string) Scale {
	switch name {
	case "fib":
		return Scale{N: 18, Grain: 10}
	case "tabulate", "map", "reduce", "filter":
		return Scale{N: 30_000, Grain: 256}
	case "msort-pure", "msort":
		return Scale{N: 5_000, Grain: 128}
	case "dedup":
		return Scale{N: 5_000, Grain: 128, Extra: 10}
	case "dmm":
		return Scale{N: 32, Grain: 1}
	case "smvm":
		return Scale{N: 200, Grain: 1, Extra: 20}
	case "strassen":
		return Scale{N: 64, Grain: 16}
	case "raytracer":
		return Scale{N: 32, Grain: 64}
	case "tourney":
		return Scale{N: 5_000, Grain: 64}
	case "reachability", "usp":
		return Scale{N: 1 << 10, Grain: 32, Extra: 8}
	case "usp-tree":
		return Scale{N: 1 << 9, Grain: 32, Extra: 8}
	case "multi-usp-tree":
		return Scale{N: 1 << 8, Grain: 32, Extra: 3}
	default:
		return Scale{N: 1000, Grain: 64}
	}
}

func gcHeavy(cfg rts.Config) rts.Config {
	cfg.Policy = gc.Policy{MinWords: 8 * 1024, Ratio: 1.5}
	cfg.STWFloorBytes = 1 << 19
	return cfg
}

// TestChecksumsAgreeAcrossSystems is the suite's core validation: every
// benchmark must produce an identical checksum on every runtime system it
// supports, under GC pressure and parallel execution.
func TestChecksumsAgreeAcrossSystems(t *testing.T) {
	for _, b := range All() {
		sc := tinyScale(b.Name)
		ref := Run(b, gcHeavy(rts.DefaultConfig(rts.Seq, 1)), sc)
		if ref.Checksum == 0xBAD {
			t.Fatalf("%s: sequential run failed validation", b.Name)
		}
		modes := []rts.Mode{rts.ParMem, rts.STW}
		if b.Pure {
			modes = append(modes, rts.Manticore)
		}
		for _, mode := range modes {
			for _, procs := range []int{1, 2} {
				got := Run(b, gcHeavy(rts.DefaultConfig(mode, procs)), sc)
				if got.Checksum != ref.Checksum {
					t.Errorf("%s on %v procs=%d: checksum %x, want %x",
						b.Name, mode, procs, got.Checksum, ref.Checksum)
				}
			}
		}
	}
}

func TestFibValue(t *testing.T) {
	b := Fib()
	res := Run(b, rts.DefaultConfig(rts.Seq, 1), Scale{N: 20, Grain: 5})
	if res.Checksum != 6765 {
		t.Fatalf("fib(20) = %d", res.Checksum)
	}
}

func TestUSPDistancesMatchReference(t *testing.T) {
	sc := Scale{N: 1 << 10, Grain: 32, Extra: 8}
	raw := graph.Generate(graph.Spec{N: sc.N, AvgDeg: sc.Extra, Seed: 9})
	ref := graph.RefBFS(raw, 0)

	b := USP()
	r := rts.New(gcHeavy(rts.DefaultConfig(rts.ParMem, 2)))
	defer r.Close()
	ok := r.Run(func(task *rts.Task) uint64 {
		g := b.Setup(task, sc)
		mark := task.PushRoot(&g)
		dist := b.Run(task, g, sc)
		task.PopRoots(mark)
		for v := 0; v < raw.N; v++ {
			got := task.ReadMutWord(dist, v)
			want := uint64(ref[v])
			if ref[v] < 0 {
				want = notVisited
			}
			if got != want {
				return 0
			}
		}
		return 1
	})
	if ok != 1 {
		t.Fatal("usp distances disagree with reference BFS")
	}
}

func TestUSPTreeListsAreShortestPaths(t *testing.T) {
	sc := Scale{N: 1 << 9, Grain: 32, Extra: 8}
	raw := graph.Generate(graph.Spec{N: sc.N, AvgDeg: sc.Extra, Seed: 9})
	ref := graph.RefBFS(raw, 0)

	b := USPTree()
	r := rts.New(gcHeavy(rts.DefaultConfig(rts.ParMem, 2)))
	defer r.Close()
	ok := r.Run(func(task *rts.Task) uint64 {
		g := b.Setup(task, sc)
		mark := task.PushRoot(&g)
		anc := b.Run(task, g, sc)
		task.PopRoots(mark)
		for v := 0; v < raw.N; v++ {
			depth := uint64(0)
			prev := uint64(v)
			for p := task.ReadMutPtr(anc, v); !p.IsNil(); p = task.ReadImmPtr(p, 0) {
				u := task.ReadImmWord(p, 0)
				// Each ancestor step must follow a real edge.
				found := false
				for _, w := range raw.Adj[u] {
					if uint64(w) == prev {
						found = true
						break
					}
				}
				if !found {
					return 0
				}
				prev = u
				depth++
			}
			if prev != 0 { // every chain ends at the source
				return 0
			}
			if depth != uint64(ref[v]) {
				return 0
			}
		}
		return 1
	})
	if ok != 1 {
		t.Fatal("usp-tree ancestor lists are not valid shortest paths")
	}
}

func TestStrassenMatchesNaive(t *testing.T) {
	const n, leaf = 16, 4
	r := rts.New(gcHeavy(rts.DefaultConfig(rts.Seq, 1)))
	defer r.Close()
	ok := r.Run(func(task *rts.Task) uint64 {
		fa := func(i, j int) float64 { return float64((i*7+j*3)%5) - 2 }
		fb := func(i, j int) float64 { return float64((i*5+j*11)%7) - 3 }
		a := qtBuild(task, n, leaf, 0, 0, fa)
		mark := task.PushRoot(&a)
		b := qtBuild(task, n, leaf, 0, 0, fb)
		task.PushRoot(&b)
		c := strassenMul(task, a, b)
		task.PopRoots(mark)

		// Reference: dense multiply in Go.
		var want [n][n]float64
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				for k := 0; k < n; k++ {
					want[i][j] += fa(i, k) * fb(k, j)
				}
			}
		}
		var read func(m mem.ObjPtr, size, bi, bj int) bool
		read = func(m mem.ObjPtr, size, bi, bj int) bool {
			if qtIsLeaf(m) {
				for i := 0; i < size; i++ {
					for j := 0; j < size; j++ {
						got := mem.W2F(task.ReadImmWord(m, i*size+j))
						if math.Abs(got-want[bi+i][bj+j]) > 1e-9 {
							return false
						}
					}
				}
				return true
			}
			h := size / 2
			offs := [4][2]int{{0, 0}, {0, h}, {h, 0}, {h, h}}
			for q := 0; q < 4; q++ {
				if !read(task.ReadImmPtr(m, q), h, bi+offs[q][0], bj+offs[q][1]) {
					return false
				}
			}
			return true
		}
		if !read(c, n, 0, 0) {
			return 0
		}
		return 1
	})
	if ok != 1 {
		t.Fatal("strassen result disagrees with naive multiply")
	}
}

func TestTourneyChampionIsMaxFitness(t *testing.T) {
	sc := Scale{N: 2000, Grain: 32}
	var maxFit uint64
	for i := 0; i < sc.N; i++ {
		if f := seq.Hash64(uint64(i)); f > maxFit {
			maxFit = f
		}
	}
	b := Tourney()
	r := rts.New(gcHeavy(rts.DefaultConfig(rts.ParMem, 2)))
	defer r.Close()
	got := r.Run(func(task *rts.Task) uint64 {
		out := b.Run(task, mem.NilPtr, sc)
		winner := task.ReadImmPtr(out, 0)
		return task.ReadMutWord(winner, 0)
	})
	if got != maxFit {
		t.Fatalf("champion fitness %x, want %x", got, maxFit)
	}
}

func TestParMemBenchmarkPromotionProfile(t *testing.T) {
	// The paper's Figure 9 shape: pure benchmarks promote nothing under
	// hierarchical heaps; usp-tree promotes on (almost) every visit.
	pure := Run(Map(), rts.DefaultConfig(rts.ParMem, 2), tinyScale("map"))
	if pure.Totals.Ops.WritePtrProm != 0 {
		t.Fatalf("map promoted %d times under parmem", pure.Totals.Ops.WritePtrProm)
	}
	tree := Run(USPTree(), rts.DefaultConfig(rts.ParMem, 2), tinyScale("usp-tree"))
	if tree.Totals.Ops.WritePtrProm == 0 {
		t.Fatal("usp-tree executed no promoting writes")
	}
}

func TestRepresentativeOps(t *testing.T) {
	// Figure 9's classification, regenerated from operation counters.
	cases := map[string]string{
		"map":      "immutable reads",
		"msort":    "local non-pointer writes",
		"usp":      "distant non-pointer writes",
		"usp-tree": "distant promoting writes",
	}
	for name, want := range cases {
		b, err := ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		res := Run(b, rts.DefaultConfig(rts.ParMem, 2), tinyScale(name))
		if got := res.Totals.Ops.Representative(); got != want {
			t.Errorf("%s: representative %q, want %q", name, got, want)
		}
	}
}

func TestByName(t *testing.T) {
	if _, err := ByName("nope"); err == nil {
		t.Fatal("unknown name must error")
	}
	b, err := ByName("fib")
	if err != nil || b.Name != "fib" {
		t.Fatal("fib lookup failed")
	}
	if len(All()) != 17 {
		t.Fatalf("suite has %d benchmarks, want 17", len(All()))
	}
}
