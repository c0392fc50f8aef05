package rts

import (
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/heap"
	"repro/internal/mem"
)

// Every mode builds one heap hierarchy: a root heap and a zone recorder in
// every runtime, worker heaps one level under the root in STW and
// Manticore, and one superheap per task that Alloc allocates through.

// forcedSteal forks left and right so that a thief runs right: the left
// arm waits until the right one starts, which, while the left arm holds
// its worker, only another worker can do. It reports whether right ran
// within 10 s.
func forcedSteal(task *Task, env mem.ObjPtr, left func(*Task, mem.ObjPtr), right func(*Task, mem.ObjPtr)) bool {
	var rightRunning atomic.Bool
	task.ForkJoinScalar(env,
		func(t *Task, env mem.ObjPtr) uint64 {
			for deadline := time.Now().Add(10 * time.Second); !rightRunning.Load() && time.Now().Before(deadline); {
				left(t, env)
				runtime.Gosched()
			}
			return 0
		},
		func(t *Task, env mem.ObjPtr) uint64 {
			rightRunning.Store(true)
			right(t, env)
			return 0
		})
	return rightRunning.Load()
}

func TestHierarchyBuiltInEveryMode(t *testing.T) {
	for _, mode := range allModes {
		r := New(testConfig(mode, 2))
		if r.rootHeap == nil || r.zones == nil {
			t.Errorf("%v: root heap %v, zone recorder %v; want both set", mode, r.rootHeap, r.zones)
		}
		if mode == STW || mode == Manticore {
			for i, ws := range r.states {
				if ws.heap.Parent() != r.rootHeap || ws.heap.Depth() != 1 {
					t.Errorf("%v: worker %d heap %v has parent %v, want the root %v at depth 1",
						mode, i, ws.heap, ws.heap.Parent(), r.rootHeap)
				}
			}
		}
		r.Close()
	}
}

func TestAllocLandsInCurrentHeapAllModes(t *testing.T) {
	for _, mode := range allModes {
		r := New(testConfig(mode, 2))
		var rootOK, stolenOK, stolen bool
		r.Run(func(task *Task) uint64 {
			rootOK = heap.Of(task.Alloc(0, 1, mem.TagRef)) == task.CurrentHeap()
			if mode == Seq {
				return 0 // Seq forks inline: no arm is ever stolen
			}
			stolen = forcedSteal(task, mem.NilPtr, func(*Task, mem.ObjPtr) {}, func(st *Task, _ mem.ObjPtr) {
				stolenOK = st != task && heap.Of(st.Alloc(0, 1, mem.TagRef)) == st.CurrentHeap()
			})
			return 0
		})
		r.Close()
		if !rootOK {
			t.Errorf("%v: the session's root task allocated outside its current heap", mode)
		}
		if mode != Seq && (!stolen || !stolenOK) {
			t.Errorf("%v: stolen arm ran %v, allocated in its current heap %v; want both", mode, stolen, stolenOK)
		}
	}
}

// TestManticoreStealDuringVictimCollection steals an arm whose environment
// sits in the victim's local heap while the victim keeps collecting that
// heap. The thief copies the environment to the global heap under the
// victim heap's write lock, the lock the victim's collection holds while
// it moves the environment and updates the frame's root slot; under -race
// an unguarded read of the slot fails the run. A rooted list of about
// 800 KB keeps each collection long, and the victim allocates until the
// thief has run and it has collected a few times, so the steal lands
// inside a collection in most rounds (logged as contended lock waits).
func TestManticoreStealDuringVictimCollection(t *testing.T) {
	contended := 0
	for round := 0; round < 10; round++ {
		r := New(testConfig(Manticore, 2))
		var thiefSum uint64
		var rightRunning atomic.Bool
		got := r.Run(func(task *Task) uint64 {
			var env, live mem.ObjPtr
			mark := task.PushRoot(&env, &live)
			defer task.PopRoots(mark)
			for i := 0; i < 20000; i++ {
				cell := task.Alloc(1, 2, mem.TagCons)
				task.WriteInitPtr(cell, 0, live)
				live = cell
			}
			env = buildTree(task, 6)
			task.ForkJoinScalar(env,
				func(t *Task, _ mem.ObjPtr) uint64 {
					deadline := time.Now().Add(10 * time.Second)
					for (!rightRunning.Load() || t.gcStats.Collections < 3) && time.Now().Before(deadline) {
						t.Alloc(0, 6, mem.TagTuple)
					}
					return 0
				},
				func(st *Task, env mem.ObjPtr) uint64 {
					rightRunning.Store(true)
					thiefSum = sumTree(st, env)
					return 0
				})
			return sumTree(task, env)
		})
		for _, ws := range r.states {
			if ws.heap.LockStats().WriteContended > 0 {
				contended++
			}
		}
		r.Close()
		if !rightRunning.Load() {
			t.Fatal("no thief took the right arm within 10 s")
		}
		if got != 64 || thiefSum != 64 {
			t.Fatalf("round %d: victim sum %d, thief sum %d, want 64", round, got, thiefSum)
		}
	}
	t.Logf("%d of 10 steals waited on the victim heap's lock", contended)
}
