package rts

import (
	"fmt"
	"testing"

	"repro/internal/mem"
)

// ptrForkTree forks a complete binary tree of depth d with pointer arms
// that thread env through and return it, so the tree allocates nothing
// managed: what it measures is the fork protocol itself.
func ptrForkTree(t *Task, env mem.ObjPtr, d int) mem.ObjPtr {
	if d == 0 {
		return env
	}
	arm := func(t *Task, env mem.ObjPtr) mem.ObjPtr { return ptrForkTree(t, env, d-1) }
	l, _ := t.ForkJoin(env, arm, arm)
	return l
}

// wordForkTree is ptrForkTree with word arms: it counts its leaves.
func wordForkTree(t *Task, d int) uint64 {
	if d == 0 {
		return 1
	}
	arm := func(t *Task, _ mem.ObjPtr) uint64 { return wordForkTree(t, d-1) }
	a, b := t.ForkJoinScalar(mem.NilPtr, arm, arm)
	return a + b
}

// forkBenchSystems are the runtime configurations BenchmarkFork covers.
var forkBenchSystems = []struct {
	name  string
	mode  Mode
	procs int
}{
	{"parmem-p1", ParMem, 1},
	{"parmem-p2", ParMem, 2},
	{"stw-p2", STW, 2},
	{"seq", Seq, 1},
	{"manticore-p2", Manticore, 2},
}

// BenchmarkFork measures one fork-join tree of depth forkBenchDepth per
// op (2^depth - 1 forks) for every system and both arm kinds. Run with
// -benchmem: allocs/op and B/op are the fork protocol's Go-heap cost
// (plus the tree's two arm closures per fork, identical across systems).
// ns/fork divides by the fork count.
func BenchmarkFork(b *testing.B) {
	const depth = 8
	const forks = 1<<depth - 1
	for _, sys := range forkBenchSystems {
		for _, kind := range []string{"ptr", "word"} {
			b.Run(fmt.Sprintf("%s/%s", sys.name, kind), func(b *testing.B) {
				r := New(DefaultConfig(sys.mode, sys.procs))
				defer r.Close()
				r.Run(func(task *Task) uint64 {
					env := task.Alloc(0, 1, mem.TagRef)
					mark := task.PushRoot(&env)
					defer task.PopRoots(mark)
					b.ReportAllocs()
					b.ResetTimer()
					var sink uint64
					for i := 0; i < b.N; i++ {
						if kind == "ptr" {
							sink += uint64(ptrForkTree(task, env, depth))
						} else {
							sink += wordForkTree(task, depth)
						}
					}
					b.StopTimer()
					b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*forks), "ns/fork")
					return sink
				})
			})
		}
	}
}

// forkAllocCeiling is the Go-heap allocations one un-stolen fork may cost,
// per system and arm kind: frame, stealable frame and its closure, plus
// the fork's heap in ParMem; Seq boxes only its root slots.
var forkAllocCeiling = map[Mode]map[string]float64{
	ParMem:    {"ptr": 4, "word": 4},
	STW:       {"ptr": 3, "word": 3},
	Seq:       {"ptr": 2, "word": 1},
	Manticore: {"ptr": 3, "word": 3},
}

// TestForkAllocs pins the Go allocations of one fork whose arms run
// inline (P=1, no thief), for every mode and arm kind, in a pinned session
// (Runtime.Run), which keeps the paper's fork protocol. A regression here
// is a fork-path allocation every parallel program pays per fork. The
// unpinned ParMem row forks with its only worker busy, so it takes Seq's
// inline path and must cost what Seq's fork costs.
func TestForkAllocs(t *testing.T) {
	type row struct {
		mode  Mode
		pin   bool
		limit map[string]float64
	}
	var rows []row
	for _, mode := range allModes {
		rows = append(rows, row{mode, true, forkAllocCeiling[mode]})
	}
	rows = append(rows, row{ParMem, false, forkAllocCeiling[Seq]})
	for _, c := range rows {
		for _, kind := range []string{"ptr", "word"} {
			r := New(DefaultConfig(c.mode, 1))
			var got float64
			_, err := r.Submit(SessionOpts{Pin: c.pin}, func(task *Task) uint64 {
				env := task.Alloc(0, 1, mem.TagRef)
				mark := task.PushRoot(&env)
				defer task.PopRoots(mark)
				f := func(_ *Task, env mem.ObjPtr) mem.ObjPtr { return env }
				fw := func(*Task, mem.ObjPtr) uint64 { return 1 }
				got = testing.AllocsPerRun(200, func() {
					if kind == "ptr" {
						task.ForkJoin(env, f, f)
					} else {
						task.ForkJoinScalar(env, fw, fw)
					}
				})
				return 0
			}).Wait()
			r.Close()
			if err != nil {
				t.Fatal(err)
			}
			if want := c.limit[kind]; got > want {
				t.Errorf("%v (pinned %v) %s fork: %.1f allocs, want <= %.0f", c.mode, c.pin, kind, got, want)
			}
		}
	}
}
