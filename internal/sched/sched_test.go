package sched

import (
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

func TestDequeLIFOForOwner(t *testing.T) {
	var d Deque
	frames := make([]*Frame, 10)
	for i := range frames {
		frames[i] = NewFrame(func(*Worker) {})
		d.Push(frames[i])
	}
	if d.Size() != 10 {
		t.Fatalf("size = %d", d.Size())
	}
	for i := 9; i >= 0; i-- {
		if got := d.PopBottom(); got != frames[i] {
			t.Fatalf("pop %d: got %p want %p", i, got, frames[i])
		}
	}
	if d.PopBottom() != nil {
		t.Fatal("empty deque must pop nil")
	}
}

func TestDequeFIFOForThief(t *testing.T) {
	var d Deque
	frames := make([]*Frame, 5)
	for i := range frames {
		frames[i] = NewFrame(func(*Worker) {})
		d.Push(frames[i])
	}
	for i := 0; i < 5; i++ {
		f, retry := d.Steal()
		if retry || f != frames[i] {
			t.Fatalf("steal %d: got %p retry=%v", i, f, retry)
		}
	}
	if f, retry := d.Steal(); f != nil || retry {
		t.Fatal("empty deque must steal nil")
	}
}

func TestDequeGrowth(t *testing.T) {
	var d Deque
	n := initialDequeSize*4 + 3
	frames := make([]*Frame, n)
	for i := range frames {
		frames[i] = NewFrame(func(*Worker) {})
		d.Push(frames[i])
	}
	for i := n - 1; i >= 0; i-- {
		if got := d.PopBottom(); got != frames[i] {
			t.Fatalf("pop %d lost after growth", i)
		}
	}
}

func TestDequeConcurrentStealers(t *testing.T) {
	// Owner pushes/pops while thieves steal; every frame must be executed
	// exactly once across all parties.
	var d Deque
	const total = 20000
	var executed atomic.Int64
	var claimed [total]atomic.Int32

	mk := func(i int) *Frame {
		return NewFrame(func(*Worker) {
			if claimed[i].Add(1) != 1 {
				t.Errorf("frame %d claimed twice", i)
			}
			executed.Add(1)
		})
	}

	var wg sync.WaitGroup
	stop := make(chan struct{})
	for th := 0; th < 3; th++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				f, retry := d.Steal()
				if f != nil {
					f.exec(nil)
					continue
				}
				if !retry {
					select {
					case <-stop:
						return
					default:
					}
				}
			}
		}()
	}

	// Owner: push bursts, pop some.
	pushed := 0
	for pushed < total {
		burst := 37
		if total-pushed < burst {
			burst = total - pushed
		}
		for i := 0; i < burst; i++ {
			d.Push(mk(pushed))
			pushed++
		}
		for i := 0; i < burst/2; i++ {
			if f := d.PopBottom(); f != nil {
				f.exec(nil)
			}
		}
	}
	for {
		f := d.PopBottom()
		if f == nil {
			break
		}
		f.exec(nil)
	}
	// Drain stragglers via steal until all executed.
	for executed.Load() < total {
		if f, _ := d.Steal(); f != nil {
			f.exec(nil)
		}
	}
	close(stop)
	wg.Wait()
	if executed.Load() != total {
		t.Fatalf("executed %d of %d", executed.Load(), total)
	}
}

func TestPoolRunRoot(t *testing.T) {
	p := NewPool(2)
	defer p.Close()
	var ran atomic.Bool
	var onWorker atomic.Bool
	p.RunRoot(func(w *Worker) {
		onWorker.Store(w != nil && w.pool == p)
		ran.Store(true)
	})
	if !ran.Load() || !onWorker.Load() {
		t.Fatal("root frame did not run on a pool worker")
	}
}

// testForkJoin implements a bare fork-join over the scheduler (no heaps) to
// exercise push/pop/steal/WaitHelp end to end.
func testForkJoin(w *Worker, depth int, counter *atomic.Int64) {
	if depth == 0 {
		counter.Add(1)
		return
	}
	fr := NewFrame(func(thief *Worker) {
		testForkJoin(thief, depth-1, counter)
	})
	w.Push(fr)
	testForkJoin(w, depth-1, counter)
	if got := w.PopBottom(); got == fr {
		fr.exec(w) // inline; not "stolen", run directly
	} else {
		w.WaitHelp(fr)
	}
}

func TestPoolForkJoinTree(t *testing.T) {
	for _, procs := range []int{1, 2, 4} {
		p := NewPool(procs)
		var leaves atomic.Int64
		const depth = 12
		p.RunRoot(func(w *Worker) {
			testForkJoin(w, depth, &leaves)
		})
		p.Close()
		if leaves.Load() != 1<<depth {
			t.Fatalf("procs=%d: %d leaves, want %d", procs, leaves.Load(), 1<<depth)
		}
	}
}

// testForkJoinSpin is testForkJoin with leaves that burn a few
// microseconds of CPU, so the tree outlives the thieves' idle backoff
// (up to 100µs of sleep) and published frames are actually observable.
func testForkJoinSpin(w *Worker, depth int, counter *atomic.Int64) {
	if depth == 0 {
		spin := uint64(1)
		for i := 0; i < 2000; i++ {
			spin = spin*6364136223846793005 + 1442695040888963407
		}
		counter.Add(int64(spin>>63) + 1) // data-dependent: the spin cannot be elided
		return
	}
	fr := NewFrame(func(thief *Worker) {
		testForkJoinSpin(thief, depth-1, counter)
	})
	w.Push(fr)
	testForkJoinSpin(w, depth-1, counter)
	if got := w.PopBottom(); got == fr {
		fr.exec(w)
	} else {
		w.WaitHelp(fr)
	}
}

func TestPoolStealsHappen(t *testing.T) {
	// A tree of trivial leaves can finish before any thief wakes from its
	// idle sleep, so steals are not guaranteed by one run. Seed the pool
	// with a long-enough imbalanced tree and retry under a deadline: each
	// round publishes thousands of frames over several milliseconds, so a
	// 4-worker pool observes a steal deterministically in practice.
	p := NewPool(4)
	defer p.Close()
	deadline := time.Now().Add(30 * time.Second)
	for round := 0; p.TotalSteals() == 0; round++ {
		if time.Now().After(deadline) {
			t.Fatalf("no steal on a 4-worker pool after %d rounds", round)
		}
		var leaves atomic.Int64
		p.RunRoot(func(w *Worker) {
			testForkJoinSpin(w, 12, &leaves)
		})
		if leaves.Load() < 1<<12 {
			t.Fatalf("round %d: %d leaves, want >= %d", round, leaves.Load(), 1<<12)
		}
	}
}

func TestSafePointHookRuns(t *testing.T) {
	p := NewPool(2)
	var hits atomic.Int64
	p.SetSafePoint(func(w *Worker) { hits.Add(1) })
	var leaves atomic.Int64
	p.RunRoot(func(w *Worker) { testForkJoin(w, 8, &leaves) })
	p.Close()
	if hits.Load() == 0 {
		t.Fatal("safe point hook never invoked")
	}
}

// The first rung of the idle ladder is a span of wall-clock time, however
// many rounds fit in it: no sleep may be taken before pollWindow has passed
// since the first empty look, and finding a frame (the zero value) starts
// the window afresh.
func TestIdleLadderPollsForAWindowThenSleeps(t *testing.T) {
	w := &Worker{}
	for pass := 0; pass < 2; pass++ {
		var l idleLadder // what loop and WaitHelp reset to after a frame
		start := time.Now()
		rounds := 0
		for l.sleeps == 0 {
			l.wait(w)
			rounds++
		}
		if polled := time.Since(start); polled < pollWindow {
			t.Fatalf("pass %d: slept after %v of polling (%d rounds), window is %v", pass, polled, rounds, pollWindow)
		}
		if rounds < 2 {
			t.Fatalf("pass %d: ladder slept on round %d without polling", pass, rounds)
		}
		for l.sleeps < shortSleeps+2 { // through the short rung into the long one
			l.wait(w)
		}
	}
}

// TestIdleFlags checks the signal an unpinned fork reads: a fresh pool
// reaches all idle; while P frames block, no worker is idle; and a worker
// waiting in WaitHelp on a frame nobody can run is idle, with its flag
// cleared once WaitHelp returns.
func TestIdleFlags(t *testing.T) {
	const procs = 2
	p := NewPool(procs)
	defer p.Close()
	awaitAllIdle := func() {
		for _, w := range p.Workers() {
			for !w.Idle() {
				time.Sleep(10 * time.Microsecond)
			}
		}
	}
	awaitAllIdle()
	if !p.HasIdle() {
		t.Fatal("HasIdle false with every worker idle")
	}

	release := make(chan struct{})
	var started sync.WaitGroup
	started.Add(procs)
	for i := 0; i < procs; i++ {
		p.Submit(NewFrame(func(*Worker) {
			started.Done()
			<-release
		}))
	}
	started.Wait()
	if p.HasIdle() {
		t.Error("HasIdle true while every worker runs a blocked frame")
	}
	close(release)
	awaitAllIdle()

	// stuck is never published, so no worker can run it: the waiter stays
	// on WaitHelp's ladder until the test marks it done.
	stuck := NewFrame(func(*Worker) {})
	waiter := make(chan *Worker)
	idleAfter := make(chan bool)
	p.Submit(NewFrame(func(w *Worker) {
		waiter <- w
		w.WaitHelp(stuck)
		idleAfter <- w.Idle()
	}))
	w := <-waiter
	for !w.Idle() { // only WaitHelp's ladder can set it while w runs a frame
		time.Sleep(10 * time.Microsecond)
	}
	stuck.done.Store(true)
	if <-idleAfter {
		t.Error("idle flag still set after WaitHelp returned")
	}
}
