package hh

import (
	"testing"

	"repro/internal/rts"
)

// aggressive returns options that force frequent collections so the tests
// exercise root slots actually being updated. The stop-the-world floor has
// no option of its own; a 256 KiB floor makes the STW leg collect too.
func aggressive(mode Mode, procs int) []Option {
	return []Option{
		WithMode(mode), WithProcs(procs),
		WithGCPolicy(2048, 1.5),
		func(c *rts.Config) { c.STWFloorBytes, c.STWRatio = 1<<18, 2.0 },
	}
}

func TestScopedBalancesRoots(t *testing.T) {
	r := New(aggressive(Seq, 1)...)
	defer r.Close()
	Run(r, func(task *Task) uint64 {
		base := task.inner.RootCount()
		task.Scoped(func(s *Scope) {
			s.Ref(task.Alloc(0, 1, TagRef))
			s.Ref(task.Alloc(0, 1, TagRef))
			task.Scoped(func(inner *Scope) {
				inner.Ref(task.Alloc(0, 1, TagRef))
				if got := task.inner.RootCount(); got != base+3 {
					t.Errorf("inner scope: %d roots, want %d", got, base+3)
				}
			})
			if got := task.inner.RootCount(); got != base+2 {
				t.Errorf("after inner exit: %d roots, want %d", got, base+2)
			}
		})
		if got := task.inner.RootCount(); got != base {
			t.Errorf("after outer exit: %d roots, want %d", got, base)
		}
		return 0
	})
}

func TestScopedBalancesRootsOnPanic(t *testing.T) {
	r := New(aggressive(Seq, 1)...)
	defer r.Close()
	Run(r, func(task *Task) uint64 {
		base := task.inner.RootCount()
		func() {
			defer func() {
				if recover() == nil {
					t.Error("expected the panic to propagate")
				}
			}()
			task.Scoped(func(s *Scope) {
				s.Ref(task.Alloc(0, 1, TagRef))
				task.Scoped(func(inner *Scope) {
					inner.Ref(task.Alloc(0, 1, TagRef))
					panic("unwind through two scopes")
				})
			})
		}()
		if got := task.inner.RootCount(); got != base {
			t.Errorf("after panic unwind: %d roots, want %d", got, base)
		}
		// The task is still usable: scopes open and balance again.
		task.Scoped(func(s *Scope) {
			s.Ref(task.Alloc(0, 1, TagRef))
		})
		if got := task.inner.RootCount(); got != base {
			t.Errorf("after recovery reuse: %d roots, want %d", got, base)
		}
		return 0
	})
}

func TestRefTracksMovingObject(t *testing.T) {
	for _, mode := range Modes {
		procs := 2
		if mode == Seq {
			procs = 1
		}
		r := New(aggressive(mode, procs)...)
		ok := Run(r, func(task *Task) uint64 {
			var good uint64 = 1
			task.Scoped(func(s *Scope) {
				cell := s.Ref(task.Alloc(0, 1, TagRef))
				task.InitWord(cell.Get(), 0, 0xDEADBEEF)
				before := cell.Get()
				// Churn enough garbage to force collections; the live cell
				// must be copied and the ref slot retargeted.
				for i := 0; i < 20000; i++ {
					task.Alloc(0, 4, TagTuple)
				}
				after := cell.Get()
				if task.ReadImmWord(after, 0) != 0xDEADBEEF {
					good = 0
				}
				_ = before // the raw handle may or may not have moved; only the value matters
			})
			return good
		})
		st := r.Stats()
		r.Close()
		if ok != 1 {
			t.Fatalf("%v: rooted cell lost its value across collections", mode)
		}
		if st.GC.Collections == 0 {
			t.Fatalf("%v: churn did not trigger any collection", mode)
		}
	}
}

func TestRefAfterScopeExitPanics(t *testing.T) {
	r := New(WithMode(Seq))
	defer r.Close()
	Run(r, func(task *Task) uint64 {
		var escaped Ref
		task.Scoped(func(s *Scope) {
			escaped = s.Ref(task.Alloc(0, 1, TagRef))
		})
		defer func() {
			if recover() == nil {
				t.Error("Get on an escaped Ref did not panic")
			}
		}()
		escaped.Get()
		return 0
	})
}

func TestRefOnOuterScopePanics(t *testing.T) {
	r := New(WithMode(Seq))
	defer r.Close()
	Run(r, func(task *Task) uint64 {
		task.Scoped(func(outer *Scope) {
			task.Scoped(func(inner *Scope) {
				defer func() {
					if recover() == nil {
						t.Error("Ref on a non-innermost scope did not panic")
					}
				}()
				outer.Ref(task.Alloc(0, 1, TagRef))
			})
		})
		return 0
	})
}

func TestZeroRefPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("zero Ref did not panic")
		}
	}()
	var r Ref
	r.Get()
}

func TestRefSetRetargets(t *testing.T) {
	r := New(aggressive(Seq, 1)...)
	defer r.Close()
	got := Run(r, func(task *Task) uint64 {
		var out uint64
		task.Scoped(func(s *Scope) {
			cur := s.Ref(Nil)
			for i := uint64(1); i <= 3; i++ {
				cons := task.Alloc(1, 1, TagCons)
				task.InitWord(cons, 0, i)
				task.InitPtr(cons, 0, cur.Get())
				cur.Set(cons)
				// Collection pressure between links.
				for j := 0; j < 5000; j++ {
					task.Alloc(0, 4, TagTuple)
				}
			}
			for p := cur.Get(); !p.IsNil(); p = task.ReadImmPtr(p, 0) {
				out = out*10 + task.ReadImmWord(p, 0)
			}
		})
		return out
	})
	if got != 321 {
		t.Fatalf("list built through Ref.Set = %d, want 321", got)
	}
}
