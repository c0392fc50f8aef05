package rts

import (
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/gc"
	"repro/internal/mem"
)

var allModes = []Mode{ParMem, STW, Seq, Manticore}

func testConfig(mode Mode, procs int) Config {
	cfg := DefaultConfig(mode, procs)
	// Small thresholds so tests exercise collection aggressively.
	cfg.Policy = gc.Policy{MinWords: 2048, Ratio: 1.5}
	cfg.STWFloorBytes = 1 << 18
	return cfg
}

// fib computes Fibonacci with ForkJoinScalar below no threshold.
func fibTask(t *Task, n uint64) uint64 {
	if n < 2 {
		return n
	}
	a, b := t.ForkJoinScalar(mem.NilPtr,
		func(t *Task, _ mem.ObjPtr) uint64 { return fibTask(t, n-1) },
		func(t *Task, _ mem.ObjPtr) uint64 { return fibTask(t, n-2) })
	return a + b
}

func TestFibAllModes(t *testing.T) {
	for _, mode := range allModes {
		for _, procs := range []int{1, 2} {
			r := New(testConfig(mode, procs))
			got := r.Run(func(task *Task) uint64 { return fibTask(task, 15) })
			r.Close()
			if got != 610 {
				t.Fatalf("%v procs=%d: fib(15) = %d, want 610", mode, procs, got)
			}
		}
	}
}

// buildTree builds a balanced tree of the given depth in parallel: leaves
// carry value 1, interior nodes are allocated after their children join.
func buildTree(t *Task, depth int) mem.ObjPtr {
	if depth == 0 {
		leaf := t.Alloc(0, 1, mem.TagLeaf)
		t.WriteInitWord(leaf, 0, 1)
		return leaf
	}
	l, r := t.ForkJoin(mem.NilPtr,
		func(t *Task, _ mem.ObjPtr) mem.ObjPtr { return buildTree(t, depth-1) },
		func(t *Task, _ mem.ObjPtr) mem.ObjPtr { return buildTree(t, depth-1) })
	mark := t.PushRoot(&l, &r)
	n := t.Alloc(2, 0, mem.TagNode)
	t.PopRoots(mark)
	t.WriteInitPtr(n, 0, l)
	t.WriteInitPtr(n, 1, r)
	return n
}

func sumTree(t *Task, p mem.ObjPtr) uint64 {
	if mem.TagOf(p) == mem.TagLeaf {
		return t.ReadImmWord(p, 0)
	}
	return sumTree(t, t.ReadImmPtr(p, 0)) + sumTree(t, t.ReadImmPtr(p, 1))
}

func TestParallelTreeBuildAllModes(t *testing.T) {
	const depth = 9
	for _, mode := range allModes {
		for _, procs := range []int{1, 2, 4} {
			if mode == Seq && procs > 1 {
				continue
			}
			r := New(testConfig(mode, procs))
			got := r.Run(func(task *Task) uint64 {
				root := buildTree(task, depth)
				return sumTree(task, root)
			})
			st := r.Stats()
			r.Close()
			if got != 1<<depth {
				t.Fatalf("%v procs=%d: tree sum = %d, want %d", mode, procs, got, 1<<depth)
			}
			if st.Ops.Allocs == 0 {
				t.Fatalf("%v: no allocations recorded", mode)
			}
		}
	}
}

func TestGCActuallyRuns(t *testing.T) {
	// The tiny policy must force collections during the tree build, and
	// the tree must survive them.
	for _, mode := range allModes {
		procs := 2
		if mode == Seq {
			procs = 1
		}
		r := New(testConfig(mode, procs))
		got := r.Run(func(task *Task) uint64 {
			var sum uint64
			for round := 0; round < 4; round++ {
				root := buildTree(task, 8)
				mark := task.PushRoot(&root)
				// churn: garbage to provoke collection
				for i := 0; i < 3000; i++ {
					task.Alloc(0, 4, mem.TagTuple)
				}
				sum += sumTree(task, root)
				task.PopRoots(mark)
			}
			return sum
		})
		st := r.Stats()
		r.Close()
		if got != 4*(1<<8) {
			t.Fatalf("%v: sum = %d, want %d", mode, got, 4*(1<<8))
		}
		if st.GC.Collections == 0 {
			t.Fatalf("%v: expected collections with tiny policy, got none", mode)
		}
		if st.GCNanos == 0 {
			t.Fatalf("%v: GC ran but no GC time recorded", mode)
		}
	}
}

func TestSharedCounterCAS(t *testing.T) {
	// A mutable counter at the root incremented by every leaf via CAS.
	const depth = 7
	var casAdd func(t *Task, env mem.ObjPtr, d int)
	casAdd = func(t *Task, env mem.ObjPtr, d int) {
		if d == 0 {
			for {
				old := t.ReadMutWord(env, 0)
				if t.CASWord(env, 0, old, old+1) {
					return
				}
			}
		}
		t.ForkJoinScalar(env,
			func(t *Task, env mem.ObjPtr) uint64 { casAdd(t, env, d-1); return 0 },
			func(t *Task, env mem.ObjPtr) uint64 { casAdd(t, env, d-1); return 0 })
	}
	for _, mode := range allModes {
		procs := 4
		if mode == Seq {
			procs = 1
		}
		r := New(testConfig(mode, procs))
		got := r.Run(func(task *Task) uint64 {
			counter := task.AllocMut(0, 1, mem.TagRef)
			mark := task.PushRoot(&counter)
			casAdd(task, counter, depth)
			task.PopRoots(mark)
			return task.ReadMutWord(counter, 0)
		})
		r.Close()
		if got != 1<<depth {
			t.Fatalf("%v: counter = %d, want %d", mode, got, 1<<depth)
		}
	}
}

func TestPromotionThroughRuntime(t *testing.T) {
	// usp-tree in miniature: leaves cons onto dedicated slots of a root
	// array of lists, forcing distant promoting writes in ParMem.
	const slots = 8
	const perSlot = 25
	var fill func(t *Task, env mem.ObjPtr, lo, hi int)
	fill = func(t *Task, env mem.ObjPtr, lo, hi int) {
		if hi-lo == 1 {
			slot := lo
			for i := 0; i < perSlot; i++ {
				head := t.ReadMutPtr(env, slot)
				mark := t.PushRoot(&head, &env)
				cons := t.Alloc(1, 1, mem.TagCons)
				t.PopRoots(mark)
				t.WriteInitWord(cons, 0, uint64(slot*1000+i))
				// The tail may live above the cons (promoted master): the
				// initializing store is still disentangled.
				t.WriteInitPtr(cons, 0, head)
				t.WritePtr(env, slot, cons)
			}
			return
		}
		mid := (lo + hi) / 2
		t.ForkJoinScalar(env,
			func(t *Task, env mem.ObjPtr) uint64 { fill(t, env, lo, mid); return 0 },
			func(t *Task, env mem.ObjPtr) uint64 { fill(t, env, mid, hi); return 0 })
	}

	for _, mode := range allModes {
		procs := 4
		if mode == Seq {
			procs = 1
		}
		r := New(testConfig(mode, procs))
		ok := r.Run(func(task *Task) uint64 {
			arr := task.AllocMut(slots, 0, mem.TagArrPtr)
			mark := task.PushRoot(&arr)
			fill(task, arr, 0, slots)
			task.PopRoots(mark)
			// Validate: each slot holds a list of perSlot cells in
			// descending insertion order.
			for s := 0; s < slots; s++ {
				p := task.ReadMutPtr(arr, s)
				for i := perSlot - 1; i >= 0; i-- {
					if p.IsNil() {
						return 0
					}
					if task.ReadImmWord(p, 0) != uint64(s*1000+i) {
						return 0
					}
					p = task.ReadImmPtr(p, 0)
				}
				if !p.IsNil() {
					return 0
				}
			}
			return 1
		})
		st := r.Stats()
		r.Close()
		if ok != 1 {
			t.Fatalf("%v: lists corrupted", mode)
		}
		if mode == ParMem && st.Ops.WritePtrProm == 0 {
			t.Fatal("ParMem: expected promoting writes in the usp-tree pattern")
		}
	}
}

func TestParMemDisentanglementMaintained(t *testing.T) {
	cfg := testConfig(ParMem, 4)
	r := New(cfg)
	r.Run(func(task *Task) uint64 {
		arr := task.AllocMut(4, 0, mem.TagArrPtr)
		mark := task.PushRoot(&arr)
		var fill func(t *Task, env mem.ObjPtr, lo, hi int)
		fill = func(t *Task, env mem.ObjPtr, lo, hi int) {
			if hi-lo == 1 {
				c := t.Alloc(0, 1, mem.TagRef)
				t.WriteInitWord(c, 0, uint64(lo))
				t.WritePtr(env, lo, c)
				return
			}
			mid := (lo + hi) / 2
			t.ForkJoinScalar(env,
				func(t *Task, env mem.ObjPtr) uint64 { fill(t, env, lo, mid); return 0 },
				func(t *Task, env mem.ObjPtr) uint64 { fill(t, env, mid, hi); return 0 })
		}
		fill(task, arr, 0, 4)
		task.PopRoots(mark)
		return 0
	})
	// After the run everything has merged into the root heap.
	if err := core.CheckHeap(r.rootHeap); err != nil {
		t.Fatal(err)
	}
	r.Close()
}

func TestManticorePromotesOnSteal(t *testing.T) {
	// A stolen task's result must be promoted to the global heap. The
	// steal is made certain: the left arm of the first fork waits until
	// the right arm runs, which, while the left arm holds its worker, only
	// a thief can do.
	cfg := testConfig(Manticore, 4)
	r := New(cfg)
	var rightRunning atomic.Bool
	got := r.Run(func(task *Task) uint64 {
		l, rt := task.ForkJoin(mem.NilPtr,
			func(t *Task, _ mem.ObjPtr) mem.ObjPtr {
				for deadline := time.Now().Add(10 * time.Second); !rightRunning.Load() && time.Now().Before(deadline); {
					runtime.Gosched()
				}
				return buildTree(t, 9)
			},
			func(t *Task, _ mem.ObjPtr) mem.ObjPtr {
				rightRunning.Store(true)
				return buildTree(t, 9)
			})
		return sumTree(task, l) + sumTree(task, rt)
	})
	st := r.Stats()
	r.Close()
	if got != 1<<10 {
		t.Fatalf("sum = %d", got)
	}
	if st.Steals == 0 {
		t.Fatal("no thief took the right arm within 10 s")
	}
	if st.Ops.PromotedWords == 0 {
		t.Fatal("manticore: steals without promotion")
	}
}

func TestParMemNoPromotionOnPureCode(t *testing.T) {
	// The paper's headline observation: purely functional code never
	// promotes under hierarchical heaps.
	cfg := testConfig(ParMem, 4)
	r := New(cfg)
	r.Run(func(task *Task) uint64 {
		root := buildTree(task, 10)
		return sumTree(task, root)
	})
	st := r.Stats()
	r.Close()
	if st.Ops.PromotedWords != 0 || st.Ops.Promotions != 0 {
		t.Fatalf("pure code promoted %d words", st.Ops.PromotedWords)
	}
}

func TestMemoryReleasedOnClose(t *testing.T) {
	base := mem.ChunksInUse()
	for _, mode := range allModes {
		procs := 2
		if mode == Seq {
			procs = 1
		}
		r := New(testConfig(mode, procs))
		r.Run(func(task *Task) uint64 {
			root := buildTree(task, 8)
			return sumTree(task, root)
		})
		r.Close()
		if got := mem.ChunksInUse(); got != base {
			t.Fatalf("%v: %d chunks leaked", mode, got-base)
		}
	}
}

func TestPeakMemoryTracked(t *testing.T) {
	r := New(testConfig(Seq, 1))
	r.Run(func(task *Task) uint64 {
		p := task.Alloc(0, 1<<20, mem.TagArrI64) // 8 MiB array
		return task.ReadImmWord(p, 0)
	})
	st := r.Stats()
	r.Close()
	if st.PeakMem < 8<<20 {
		t.Fatalf("peak memory %d, want >= 8MiB", st.PeakMem)
	}
}

// TestObjectPast24BitFields allocates an object with more non-pointer
// words than a 24-bit header field holds — the size a paper-scale
// usp-tree array reaches — and checks its last word and its size survive
// in every mode.
func TestObjectPast24BitFields(t *testing.T) {
	const n = 1<<24 + 1
	for _, mode := range allModes {
		r := New(testConfig(mode, 1))
		got := r.Run(func(task *Task) uint64 {
			p := task.AllocMut(0, n, mem.TagArrI64)
			task.WriteNonptr(p, n-1, 0xfeed)
			if w := mem.NumNonptrWords(p); w != n {
				t.Errorf("%v: NumNonptrWords = %d, want %d", mode, w, n)
			}
			return task.ReadMutWord(p, n-1)
		})
		r.Close()
		if got != 0xfeed {
			t.Fatalf("%v: last word = %#x, want 0xfeed", mode, got)
		}
	}
}

func TestRootsPushPop(t *testing.T) {
	r := New(testConfig(Seq, 1))
	defer r.Close()
	r.Run(func(task *Task) uint64 {
		var a, b mem.ObjPtr
		m1 := task.PushRoot(&a)
		m2 := task.PushRoot(&b)
		if len(task.roots) != 2 {
			t.Error("roots not pushed")
		}
		task.PopRoots(m2)
		if len(task.roots) != 1 {
			t.Error("inner pop wrong")
		}
		task.PopRoots(m1)
		if len(task.roots) != 0 {
			t.Error("outer pop wrong")
		}
		return 0
	})
}

func TestOneActiveRuntimeEnforced(t *testing.T) {
	r1 := New(testConfig(Seq, 1))
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("second New with an open Runtime did not panic")
			}
		}()
		New(testConfig(ParMem, 2))
	}()
	// The failed New must not have poisoned the active flag.
	if got := r1.Run(func(task *Task) uint64 { return 42 }); got != 42 {
		t.Fatalf("first runtime broken after rejected New: got %d", got)
	}
	r1.Close()
	r1.Close() // double Close is a no-op, not a flag corruption
	r2 := New(testConfig(ParMem, 2))
	if got := r2.Run(func(task *Task) uint64 { return 7 }); got != 7 {
		t.Fatalf("runtime after Close broken: got %d", got)
	}
	r2.Close()
}

// forkArms runs every arm through a binary fork tree and returns the
// arms' results as a tree: each join allocates a node over its two
// subtrees (the way seq.ParCollect does), so every result stays rooted
// across the arms that run after it.
func forkArms(t *Task, env mem.ObjPtr, arms []Thunk) mem.ObjPtr {
	if len(arms) == 1 {
		return arms[0](t, env)
	}
	mid := len(arms) / 2
	l, r := t.ForkJoin(env,
		func(t *Task, env mem.ObjPtr) mem.ObjPtr { return forkArms(t, env, arms[:mid]) },
		func(t *Task, env mem.ObjPtr) mem.ObjPtr { return forkArms(t, env, arms[mid:]) })
	mark := t.PushRoot(&l, &r)
	n := t.Alloc(2, 0, mem.TagNode)
	t.PopRoots(mark)
	t.WriteInitPtr(n, 0, l)
	t.WriteInitPtr(n, 1, r)
	return n
}

// sumArmResults sums word 0 of every arm result in a forkArms tree.
func sumArmResults(t *Task, p mem.ObjPtr) uint64 {
	if mem.TagOf(p) == mem.TagNode {
		return sumArmResults(t, t.ReadImmPtr(p, 0)) + sumArmResults(t, t.ReadImmPtr(p, 1))
	}
	return t.ReadImmWord(p, 0)
}

func TestForkArmsAllModes(t *testing.T) {
	const arms = 5
	for _, mode := range allModes {
		for _, procs := range []int{1, 4} {
			if mode == Seq && procs > 1 {
				continue
			}
			r := New(testConfig(mode, procs))
			got := r.Run(func(task *Task) uint64 {
				env := task.AllocMut(0, 1, mem.TagRef)
				mark := task.PushRoot(&env)
				task.WriteNonptr(env, 0, 100)
				fs := make([]Thunk, arms)
				for i := range fs {
					i := i
					fs[i] = func(t *Task, env mem.ObjPtr) mem.ObjPtr {
						// Each arm builds its own tree (allocation pressure,
						// stealable sub-forks) and boxes a derived value. env
						// is re-rooted because the arm allocates.
						m := t.PushRoot(&env)
						root := buildTree(t, 6)
						t.PushRoot(&root)
						box := t.Alloc(0, 1, mem.TagRef)
						t.WriteInitWord(box, 0, uint64(i)*1000+sumTree(t, root)+t.ReadMutWord(env, 0))
						t.PopRoots(m)
						return box
					}
				}
				res := forkArms(task, env, fs)
				task.PopRoots(mark)
				return sumArmResults(task, res)
			})
			st := r.Stats()
			r.Close()
			want := uint64(0)
			for i := 0; i < arms; i++ {
				want += uint64(i)*1000 + (1 << 6) + 100
			}
			if got != want {
				t.Fatalf("%v procs=%d: forked arms sum = %d, want %d", mode, procs, got, want)
			}
			if st.Ops.Allocs == 0 {
				t.Fatalf("%v: no allocations recorded", mode)
			}
		}
	}
}

func TestForkArmsCollectUnderPressure(t *testing.T) {
	// Aggressive policy + garbage churn inside every arm: results and envs
	// must survive leaf and join collections in every mode.
	for _, mode := range allModes {
		procs := 4
		if mode == Seq {
			procs = 1
		}
		r := New(testConfig(mode, procs))
		got := r.Run(func(task *Task) uint64 {
			fs := make([]Thunk, 6)
			for i := range fs {
				i := i
				fs[i] = func(t *Task, _ mem.ObjPtr) mem.ObjPtr {
					keep := t.Alloc(0, 1, mem.TagRef)
					t.WriteInitWord(keep, 0, uint64(i+1))
					m := t.PushRoot(&keep)
					for j := 0; j < 4000; j++ {
						t.Alloc(0, 4, mem.TagTuple) // garbage
					}
					t.PopRoots(m)
					return keep
				}
			}
			return sumArmResults(task, forkArms(task, mem.NilPtr, fs))
		})
		st := r.Stats()
		r.Close()
		if got != 21 {
			t.Fatalf("%v: sum = %d, want 21", mode, got)
		}
		if st.GC.Collections == 0 {
			t.Fatalf("%v: expected collections under the tiny policy", mode)
		}
	}
}

func TestModeString(t *testing.T) {
	names := map[Mode]string{
		ParMem:    "mlton-parmem",
		STW:       "mlton-spoonhower",
		Seq:       "mlton",
		Manticore: "manticore",
	}
	for m, want := range names {
		if m.String() != want {
			t.Fatalf("%d: %q", m, m.String())
		}
	}
}
