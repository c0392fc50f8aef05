package hh

import (
	"sort"
	"testing"
)

func TestRunResultRoundTripping(t *testing.T) {
	r := New(WithMode(ParMem), WithProcs(2))
	defer r.Close()

	if got := Run(r, func(task *Task) uint64 { return 0xCAFEBABE }); got != 0xCAFEBABE {
		t.Fatalf("uint64 round trip: %x", got)
	}

	type summary struct {
		Name  string
		Procs int
		Sums  []uint64
	}
	s := Run(r, func(task *Task) summary {
		return summary{Name: "msort", Procs: task.Runtime().Procs(), Sums: []uint64{1, 2, 3}}
	})
	if s.Name != "msort" || s.Procs != 2 || len(s.Sums) != 3 {
		t.Fatalf("struct round trip: %+v", s)
	}

	p := Run(r, func(task *Task) Ptr {
		box := task.Alloc(0, 2, TagTuple)
		task.InitWord(box, 0, 11)
		task.InitWord(box, 1, 31)
		return box
	})
	// The Ptr result stays valid until the next Run/Close: read it back
	// from a fresh root task.
	got := Run(r, func(task *Task) uint64 {
		return task.ReadImmWord(p, 0) + task.ReadImmWord(p, 1)
	})
	if got != 42 {
		t.Fatalf("Ptr round trip across Runs: %d, want 42", got)
	}
}

func TestRunPtrResultAllModes(t *testing.T) {
	for _, mode := range Modes {
		procs := 2
		if mode == Seq {
			procs = 1
		}
		r := New(aggressive(mode, procs)...)
		p := Run(r, func(task *Task) Ptr {
			var out Ptr
			task.Scoped(func(s *Scope) {
				box := s.Ref(task.Alloc(0, 1, TagRef))
				task.InitWord(box.Get(), 0, 7)
				for i := 0; i < 10000; i++ {
					task.Alloc(0, 4, TagTuple)
				}
				out = box.Get()
			})
			return out
		})
		got := Run(r, func(task *Task) uint64 { return task.ReadImmWord(p, 0) })
		r.Close()
		if got != 7 {
			t.Fatalf("%v: Ptr result = %d, want 7", mode, got)
		}
	}
}

func TestOneRuntimeRuleSurfaces(t *testing.T) {
	r := New(WithMode(Seq))
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("second New with an open Runtime did not panic")
			}
		}()
		New(WithMode(ParMem))
	}()
	r.Close()
	r2 := New(WithMode(ParMem), WithProcs(2))
	r2.Close()
}

func TestParDoParSumTabulate(t *testing.T) {
	const n = 50000
	for _, mode := range Modes {
		procs := 4
		if mode == Seq {
			procs = 1
		}
		r := New(aggressive(mode, procs)...)
		ok := Run(r, func(task *Task) uint64 {
			var good uint64 = 1
			task.Scoped(func(s *Scope) {
				arr := s.Ref(task.AllocMut(0, n, TagArrI64))
				ParDo(task, Bind(arr), 0, n, 512,
					func(task *Task, e *Env, lo, hi int) {
						a := e.Ptr(0)
						for i := lo; i < hi; i++ {
							task.WriteWord(a, i, uint64(i))
						}
					})
				sum := ParSum(task, Bind(arr), 0, n, 512,
					func(task *Task, e *Env, lo, hi int) uint64 {
						a := e.Ptr(0)
						var s uint64
						for i := lo; i < hi; i++ {
							s += task.ReadMutWord(a, i)
						}
						return s
					})
				if sum != uint64(n)*uint64(n-1)/2 {
					good = 0
				}
			})
			return good
		})
		r.Close()
		if ok != 1 {
			t.Fatalf("%v: ParDo/ParSum mismatch", mode)
		}
	}
}

func TestSequenceHelpersAgainstSort(t *testing.T) {
	const n = 1 << 12
	r := New(aggressive(ParMem, 4)...)
	defer r.Close()
	ok := Run(r, func(task *Task) uint64 {
		var good uint64 = 1
		task.Scoped(func(sc *Scope) {
			s := sc.Ref(Tabulate(task, n, 128, func(i int) uint64 { return Hash64(uint64(i)) }))
			if Length(task, s.Get()) != n {
				good = 0
			}
			l, r := SplitMid(task, s.Get())
			lr := sc.Ref(l)
			rr := sc.Ref(r)
			la := sc.Ref(ToArray(task, lr.Get()))
			ra := sc.Ref(ToArray(task, rr.Get()))
			SortArray(task, la.Get())
			SortArray(task, ra.Get())
			merged := sc.Ref(MergeSorted(task, la.Get(), ra.Get()))
			want := make([]uint64, n)
			for i := range want {
				want[i] = Hash64(uint64(i))
			}
			sort.Slice(want, func(i, j int) bool { return want[i] < want[j] })
			m := merged.Get()
			if Length(task, m) != n {
				good = 0
			}
			for i := 0; i < n; i++ {
				if task.ReadImmWord(m, i) != want[i] {
					good = 0
					break
				}
			}
		})
		return good
	})
	if ok != 1 {
		t.Fatal("sequence pipeline does not match reference sort")
	}
}

func TestStatsAndDisentanglement(t *testing.T) {
	r := New(aggressive(ParMem, 4)...)
	Run(r, func(task *Task) uint64 {
		var out uint64
		task.Scoped(func(s *Scope) {
			arr := s.Ref(task.AllocMut(8, 0, TagArrPtr))
			ParDo(task, Bind(arr), 0, 8, 1, func(task *Task, e *Env, lo, hi int) {
				for slot := lo; slot < hi; slot++ {
					task.Scoped(func(s *Scope) {
						head := s.Ref(task.ReadMutPtr(e.Ptr(0), slot))
						cons := task.Alloc(1, 1, TagCons)
						task.InitWord(cons, 0, uint64(slot))
						task.InitPtr(cons, 0, head.Get())
						task.WritePtr(e.Ptr(0), slot, cons)
					})
				}
			})
			out = 1
		})
		return out
	})
	st := r.Stats()
	if err := r.CheckDisentangled(); err != nil {
		t.Fatalf("disentanglement violated: %v", err)
	}
	r.Close()
	if st.Ops.Allocs == 0 {
		t.Fatal("no allocations recorded")
	}
	if st.Ops.WritePtrProm == 0 {
		t.Fatal("distant writes into the shared array should promote in ParMem")
	}
}

func TestParseMode(t *testing.T) {
	for _, c := range []struct {
		in   string
		want Mode
	}{
		{"parmem", ParMem}, {"stw", STW}, {"seq", Seq}, {"manticore", Manticore},
		{"mlton-parmem", ParMem}, {"mlton-spoonhower", STW}, {"mlton", Seq},
	} {
		got, err := ParseMode(c.in)
		if err != nil || got != c.want {
			t.Fatalf("ParseMode(%q) = %v, %v", c.in, got, err)
		}
	}
	if _, err := ParseMode("bogus"); err == nil {
		t.Fatal("ParseMode accepted garbage")
	}
}

// TestWithoutGCCollectsNothing checks that WithoutGC leaves every trigger
// unreachable in every mode, and that a WithGCPolicy given after it turns
// ParMem's collection back on.
func TestWithoutGCCollectsNothing(t *testing.T) {
	for _, mode := range Modes {
		r := New(WithMode(mode), WithProcs(2), WithoutGC())
		if got := Run(r, allocHeavy); got != allocHeavyWant {
			t.Errorf("%s: checksum %d, want %d", mode, got, allocHeavyWant)
		}
		st := r.Stats()
		r.Close()
		if st.Zones.Zones != 0 || st.GC.WordsCopied != 0 || st.GCNanos != 0 {
			t.Errorf("%s under WithoutGC: %d zones, %d words copied, %d GC ns; want none",
				mode, st.Zones.Zones, st.GC.WordsCopied, st.GCNanos)
		}
	}

	r := New(WithMode(ParMem), WithProcs(2), WithoutGC(), WithGCPolicy(2048, 1.25))
	defer r.Close()
	if got := Run(r, allocHeavy); got != allocHeavyWant {
		t.Errorf("checksum %d, want %d", got, allocHeavyWant)
	}
	if st := r.Stats(); st.Zones.Zones == 0 {
		t.Error("WithGCPolicy after WithoutGC: no zone collected")
	}
}

const allocHeavyWant = 8 * 40000

// allocHeavy allocates about 13 MiB over eight forked leaves, past every
// default trigger (1 MiB per heap, 8 MiB stop-the-world), while each leaf
// keeps a list of its allocations live. It returns the lists' total length.
func allocHeavy(task *Task) uint64 {
	return ParSum(task, nil, 0, 8, 1, func(t *Task, _ *Env, lo, hi int) uint64 {
		var n uint64
		t.Scoped(func(s *Scope) {
			list := s.Ref(Ptr{})
			for i := 0; i < 40000; i++ {
				cell := t.Alloc(1, 3, TagTuple)
				t.InitPtr(cell, 0, list.Get())
				list.Set(cell)
			}
			for p := list.Get(); !p.IsNil(); p = t.ReadImmPtr(p, 0) {
				n++
			}
		})
		return n
	})
}
