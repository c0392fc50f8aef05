package hh

import (
	"runtime"
	"sync/atomic"
	"testing"
	"time"
)

func TestFork2ScalarAllModes(t *testing.T) {
	var fib func(t *Task, n uint64) uint64
	fib = func(task *Task, n uint64) uint64 {
		if n < 2 {
			return n
		}
		a, b := Fork2(task, nil,
			func(task *Task, _ *Env) uint64 { return fib(task, n-1) },
			func(task *Task, _ *Env) uint64 { return fib(task, n-2) })
		return a + b
	}
	for _, mode := range Modes {
		for _, procs := range []int{1, 2} {
			r := New(WithMode(mode), WithProcs(procs))
			got := Run(r, func(task *Task) uint64 { return fib(task, 15) })
			r.Close()
			if got != 610 {
				t.Fatalf("%v procs=%d: fib(15) = %d, want 610", mode, procs, got)
			}
		}
	}
}

// buildRope builds a balanced word rope of the given depth through
// Fork2's pointer-result path, with allocation churn at the leaves.
func buildRope(task *Task, depth int, base uint64) Ptr {
	if depth == 0 {
		leaf := task.Alloc(0, 1, TagLeaf)
		task.InitWord(leaf, 0, base)
		return leaf
	}
	l, r := Fork2(task, nil,
		func(task *Task, _ *Env) Ptr { return buildRope(task, depth-1, base) },
		func(task *Task, _ *Env) Ptr { return buildRope(task, depth-1, base) })
	var out Ptr
	task.Scoped(func(s *Scope) {
		lr, rr := s.Ref(l), s.Ref(r)
		node := task.Alloc(2, 0, TagNode)
		task.InitPtr(node, 0, lr.Get())
		task.InitPtr(node, 1, rr.Get())
		out = node
	})
	return out
}

func sumRope(task *Task, p Ptr) uint64 {
	if task.TagOf(p) == TagLeaf {
		return task.ReadImmWord(p, 0)
	}
	return sumRope(task, task.ReadImmPtr(p, 0)) + sumRope(task, task.ReadImmPtr(p, 1))
}

func TestFork2PtrResultsAllModes(t *testing.T) {
	const depth = 8
	for _, mode := range Modes {
		procs := 4
		if mode == Seq {
			procs = 1
		}
		r := New(aggressive(mode, procs)...)
		got := Run(r, func(task *Task) uint64 {
			return sumRope(task, buildRope(task, depth, 1))
		})
		r.Close()
		if got != 1<<depth {
			t.Fatalf("%v: rope sum = %d, want %d", mode, got, 1<<depth)
		}
	}
}

func TestFork2MixedResultTypes(t *testing.T) {
	r := New(WithMode(ParMem), WithProcs(2))
	defer r.Close()
	got := Run(r, func(task *Task) uint64 {
		n, p := Fork2(task, nil,
			func(task *Task, _ *Env) uint64 { return 40 },
			func(task *Task, _ *Env) Ptr {
				box := task.Alloc(0, 1, TagRef)
				task.InitWord(box, 0, 2)
				return box
			})
		return n + task.ReadImmWord(p, 0)
	})
	if got != 42 {
		t.Fatalf("mixed fork = %d, want 42", got)
	}
}

func TestFork2EnvThreading(t *testing.T) {
	// Distant CAS increments through the env in every mode: the env ref
	// must resolve to a valid (possibly promoted) object on both arms.
	for _, mode := range Modes {
		procs := 4
		if mode == Seq {
			procs = 1
		}
		r := New(aggressive(mode, procs)...)
		got := Run(r, func(task *Task) uint64 {
			var out uint64
			task.Scoped(func(s *Scope) {
				counter := s.Ref(task.AllocMut(0, 1, TagRef))
				var bump func(task *Task, c Ref, d int)
				bump = func(task *Task, c Ref, d int) {
					if d == 0 {
						h := c.Get()
						for {
							old := task.ReadMutWord(h, 0)
							if task.CASWord(h, 0, old, old+1) {
								return
							}
						}
					}
					Fork2(task, Bind(c),
						func(task *Task, e *Env) uint64 { bump(task, e.Ref(0), d-1); return 0 },
						func(task *Task, e *Env) uint64 { bump(task, e.Ref(0), d-1); return 0 })
				}
				bump(task, counter, 7)
				out = task.ReadMutWord(counter.Get(), 0)
			})
			return out
		})
		r.Close()
		if got != 1<<7 {
			t.Fatalf("%v: counter = %d, want %d", mode, got, 1<<7)
		}
	}
}

// forkWords runs arms through a binary fork tree and returns their
// results in arm order.
func forkWords(task *Task, arms []func(*Task) uint64) []uint64 {
	if len(arms) == 1 {
		return []uint64{arms[0](task)}
	}
	mid := len(arms) / 2
	l, r := Fork2(task, nil,
		func(task *Task, _ *Env) []uint64 { return forkWords(task, arms[:mid]) },
		func(task *Task, _ *Env) []uint64 { return forkWords(task, arms[mid:]) })
	return append(l, r...)
}

// forkPtrs runs at least two arms through a binary fork tree, threading
// env to every arm, and returns their results as a tree: each join
// allocates a node over its two subtrees (the way seq.ParCollect does),
// so every result stays rooted across the arms that run after it.
func forkPtrs(task *Task, env Ref, arms []func(*Task, *Env) Ptr) Ptr {
	half := func(arms []func(*Task, *Env) Ptr) func(*Task, *Env) Ptr {
		if len(arms) == 1 {
			return arms[0]
		}
		return func(task *Task, e *Env) Ptr { return forkPtrs(task, e.Ref(0), arms) }
	}
	mid := len(arms) / 2
	l, r := Fork2(task, Bind(env), half(arms[:mid]), half(arms[mid:]))
	var out Ptr
	task.Scoped(func(s *Scope) {
		lr, rr := s.Ref(l), s.Ref(r)
		node := task.Alloc(2, 0, TagNode)
		task.InitPtr(node, 0, lr.Get())
		task.InitPtr(node, 1, rr.Get())
		out = node
	})
	return out
}

// sumArmResults sums word 0 of every arm result in a forkPtrs tree.
func sumArmResults(task *Task, p Ptr) uint64 {
	if task.TagOf(p) == TagNode {
		return sumArmResults(task, task.ReadImmPtr(p, 0)) + sumArmResults(task, task.ReadImmPtr(p, 1))
	}
	return task.ReadImmWord(p, 0)
}

func TestForkTreeUnderSteals(t *testing.T) {
	// The steal is made certain: the first arm holds its worker until a
	// second arm is running, which only a thief can make happen.
	const arms = 8
	r := New(WithMode(ParMem), WithProcs(4), WithGCPolicy(4096, 1.5))
	var started atomic.Int64
	results := Run(r, func(task *Task) []uint64 {
		fs := make([]func(*Task) uint64, arms)
		for i := range fs {
			i := i
			fs[i] = func(task *Task) uint64 {
				started.Add(1)
				for deadline := time.Now().Add(10 * time.Second); i == 0 && started.Load() < 2 && time.Now().Before(deadline); {
					runtime.Gosched()
				}
				var sum uint64
				task.Scoped(func(s *Scope) {
					rope := s.Ref(buildRope(task, 5, uint64(i)))
					sum = sumRope(task, rope.Get())
				})
				return sum
			}
		}
		return forkWords(task, fs)
	})
	st := r.Stats()
	r.Close()
	if len(results) != arms {
		t.Fatalf("got %d results, want %d", len(results), arms)
	}
	for i := range results {
		if want := uint64(i) << 5; results[i] != want {
			t.Fatalf("arm %d: got %d, want %d (results %v)", i, results[i], want, results)
		}
	}
	if st.Steals == 0 {
		t.Fatal("no thief took an arm within 10 s")
	}
}

func TestForkTreePtrResultsAllModes(t *testing.T) {
	const arms = 6
	for _, mode := range Modes {
		procs := 4
		if mode == Seq {
			procs = 1
		}
		r := New(aggressive(mode, procs)...)
		got := Run(r, func(task *Task) uint64 {
			var out uint64
			task.Scoped(func(s *Scope) {
				seed := s.Ref(task.AllocMut(0, 1, TagRef))
				task.WriteWord(seed.Get(), 0, 100)
				fs := make([]func(*Task, *Env) Ptr, arms)
				for i := range fs {
					i := i
					fs[i] = func(task *Task, e *Env) Ptr {
						var box Ptr
						task.Scoped(func(s *Scope) {
							b := s.Ref(task.Alloc(0, 1, TagRef))
							// Garbage between env read and use: the env ref
							// must keep tracking.
							for j := 0; j < 3000; j++ {
								task.Alloc(0, 4, TagTuple)
							}
							task.InitWord(b.Get(), 0,
								uint64(i)*1000+task.ReadMutWord(e.Ptr(0), 0))
							box = b.Get()
						})
						return box
					}
				}
				out = sumArmResults(task, forkPtrs(task, seed, fs))
			})
			return out
		})
		st := r.Stats()
		r.Close()
		var want uint64
		for i := 0; i < arms; i++ {
			want += uint64(i)*1000 + 100
		}
		if got != want {
			t.Fatalf("%v: forked arms sum = %d, want %d", mode, got, want)
		}
		if st.GC.Collections == 0 {
			t.Fatalf("%v: expected collections under aggressive policy", mode)
		}
	}
}

func TestBindingFromOtherTaskPanics(t *testing.T) {
	r := New(WithMode(ParMem), WithProcs(2))
	defer r.Close()
	Run(r, func(task *Task) uint64 {
		task.Scoped(func(s *Scope) {
			// A ref rooted on the root task, smuggled into an arm and used
			// in a fork binding there. On a stolen arm the tasks differ and
			// packEnv must reject it. On an inline arm the tasks coincide,
			// so no panic is expected — run many forks and require that the
			// guard fired whenever a steal made it observable.
			leaked := s.Ref(task.Alloc(0, 1, TagRef))
			var rejected atomic.Int64
			for i := 0; i < 64; i++ {
				Fork2(task, nil,
					func(at *Task, _ *Env) uint64 { return 0 },
					func(at *Task, _ *Env) uint64 {
						defer func() {
							if recover() != nil {
								rejected.Add(1)
							}
						}()
						Fork2(at, Bind(leaked),
							func(*Task, *Env) uint64 { return 0 },
							func(*Task, *Env) uint64 { return 0 })
						return 0
					})
			}
			_ = rejected.Load() // zero steals is legal; the guard is best-effort
		})
		return 0
	})
}
