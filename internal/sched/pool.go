package sched

import (
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/mem"
)

// Frame is one stealable unit of work: the right-hand side of a forkjoin
// (or a root task). The runtime layer stores the thunk, its context, and
// its result in the closure; the scheduler only needs to run it once and
// publish completion.
type Frame struct {
	exec func(w *Worker)
	done atomic.Bool
}

// NewFrame wraps a closure as a stealable frame.
func NewFrame(exec func(w *Worker)) *Frame { return &Frame{exec: exec} }

// Done reports whether the frame has finished executing.
func (f *Frame) Done() bool { return f.done.Load() }

// runOn executes the frame on the given worker and publishes completion.
func (f *Frame) runOn(w *Worker) {
	f.exec(w)
	f.done.Store(true)
}

// Worker is one scheduler participant, usually pinned 1:1 to a processor.
type Worker struct {
	ID    int
	pool  *Pool
	deque Deque
	rng   uint64

	// Steals counts successful steals by this worker.
	Steals int64
	// Local is runtime-layer per-worker state (allocation heap, etc.).
	Local any

	// Chunks is this worker's private chunk cache, bounded at
	// mem.DefaultCacheChunksPerClass chunks per size class. Only this
	// worker's goroutine may touch it —
	// the runtime threads it through allocation, promotion, collection,
	// and wholesale-release paths executing ON this worker, which is what
	// makes leaf-heap chunk acquisition free of shared-state operations.
	// A worker that stays idle long enough flushes it back to the global
	// pool so cold workers do not sit on warm chunks.
	Chunks *mem.ChunkCache

	// idle is set while the worker is on its idle ladder: from its first
	// look that found no frame until it finds one or leaves the ladder
	// (WaitHelp returns, loop exits). Every unpinned fork reads all P
	// flags (Pool.HasIdle), so the flag has a cache line to itself, apart
	// from rng and Steals, which the worker writes on every look.
	_    [64]byte
	idle atomic.Bool
	_    [60]byte
}

// Idle reports whether the worker is on its idle ladder.
func (w *Worker) Idle() bool { return w.idle.Load() }

// Pool runs a fixed set of workers.
type Pool struct {
	workers []*Worker
	inbox   chan *Frame
	closed  atomic.Bool
	wg      sync.WaitGroup

	safePoint atomic.Pointer[func(w *Worker)]
}

// SetSafePoint installs a hook invoked by idle and waiting workers so the
// runtime can run stop-the-world rendezvous or bookkeeping. Only
// whole-world collectors need it (the STW baseline); hierarchical zone
// collections never park workers, so the hierarchical modes install no
// hook and leaf/join collections proceed while every worker keeps
// running.
func (p *Pool) SetSafePoint(fn func(w *Worker)) { p.safePoint.Store(&fn) }

func (p *Pool) callSafePoint(w *Worker) {
	if fn := p.safePoint.Load(); fn != nil {
		(*fn)(w)
	}
}

// NewPool creates and starts p workers, each with its own chunk cache.
func NewPool(p int) *Pool {
	if p < 1 {
		p = 1
	}
	pool := &Pool{inbox: make(chan *Frame, 1024)}
	pool.workers = make([]*Worker, p)
	for i := range pool.workers {
		w := &Worker{ID: i, pool: pool, rng: uint64(i)*0x9E3779B97F4A7C15 + 0x2545F4914F6CDD1D}
		w.Chunks = mem.NewChunkCache(mem.DefaultCacheChunksPerClass)
		w.Chunks.SetOwner(i)
		pool.workers[i] = w
	}
	for _, w := range pool.workers {
		pool.wg.Add(1)
		go func(w *Worker) {
			defer pool.wg.Done()
			w.loop()
		}(w)
	}
	return pool
}

// Workers returns the pool's workers.
func (p *Pool) Workers() []*Worker { return p.workers }

// NumWorkers returns the pool size.
func (p *Pool) NumWorkers() int { return len(p.workers) }

// Submit queues a root frame for any worker.
func (p *Pool) Submit(f *Frame) { p.inbox <- f }

// RunRoot submits a root frame and blocks the calling (non-worker)
// goroutine until it completes.
func (p *Pool) RunRoot(exec func(w *Worker)) {
	f := NewFrame(exec)
	p.Submit(f)
	for spin := 0; !f.Done(); spin++ {
		if spin < 64 {
			runtime.Gosched()
		} else {
			time.Sleep(50 * time.Microsecond)
		}
	}
}

// Close stops all workers and waits for them to exit. Outstanding frames
// are abandoned; callers should only close an idle pool.
func (p *Pool) Close() {
	p.closed.Store(true)
	p.wg.Wait()
}

// HasIdle reports whether any worker is on its idle ladder, that is,
// whether a frame published now has a thief waiting for it. It reads the
// workers' own flags; a pool-wide count would be a shared write on every
// worker's way onto and off the ladder.
func (p *Pool) HasIdle() bool {
	for _, w := range p.workers {
		if w.Idle() {
			return true
		}
	}
	return false
}

// TotalSteals sums the workers' steal counters.
func (p *Pool) TotalSteals() int64 {
	var n int64
	for _, w := range p.workers {
		n += w.Steals
	}
	return n
}

func (w *Worker) loop() {
	var idle idleLadder
	for !w.pool.closed.Load() {
		w.pool.callSafePoint(w)
		if f := w.findWork(); f != nil {
			idle.reset(w)
			f.runOn(w)
			continue
		}
		idle.wait(w)
	}
	idle.reset(w)
}

// SafePoint invokes the pool's safe-point hook on this worker, if one is
// installed. Runtime code that parks a worker outside the scheduler loops
// (e.g. a session waiting out its orphaned frames) must call it so a
// stop-the-world rendezvous can count the worker as stopped.
func (w *Worker) SafePoint() { w.pool.callSafePoint(w) }

// Push makes a frame stealable on this worker's deque.
func (w *Worker) Push(f *Frame) { w.deque.Push(f) }

// PopBottom tries to take back the most recently pushed frame.
func (w *Worker) PopBottom() *Frame { return w.deque.PopBottom() }

// WaitHelp blocks until fr completes, executing other stealable work in the
// meantime (join with helping / leapfrogging).
func (w *Worker) WaitHelp(fr *Frame) {
	var idle idleLadder
	for !fr.Done() {
		w.pool.callSafePoint(w)
		if f := w.findWork(); f != nil {
			idle.reset(w)
			f.runOn(w)
			continue
		}
		idle.wait(w)
	}
	idle.reset(w)
}

// findWork looks for a frame: the shared inbox first, then steal attempts
// against random victims (including this worker's own deque top, which
// enables leapfrogging during joins).
func (w *Worker) findWork() *Frame {
	select {
	case f := <-w.pool.inbox:
		return f
	default:
	}
	n := len(w.pool.workers)
	for attempt := 0; attempt < 2*n; attempt++ {
		victim := w.pool.workers[w.nextRand()%uint64(n)]
		f, retry := victim.deque.Steal()
		for retry {
			f, retry = victim.deque.Steal()
		}
		if f != nil {
			if victim != w {
				w.Steals++
			}
			return f
		}
	}
	return nil
}

func (w *Worker) nextRand() uint64 {
	x := w.rng
	x ^= x << 13
	x ^= x >> 7
	x ^= x << 17
	w.rng = x
	return x
}

// An idle worker descends a ladder: it polls (yielding the processor between
// looks) for pollWindow of wall-clock time since it last had a frame, then
// takes shortSleeps sleeps of the shortest length the timer gives (tens of
// microseconds in practice), then sleeps longSleep at a time.
//
// The first rung is a span of time and not a count of rounds because a round
// costs whatever findWork and the Go scheduler make it cost: when request
// bodies got cheaper, a fixed 32 rounds ended sooner, and requests arriving
// at a steady rate began to land in the short-sleep rung instead of the poll
// rung, adding a timer wake-up to the median latency of small requests.
// The short-sleep rung stays — going straight to longSleep trebled that
// latency — and so does sleeping instead of parking on a channel: a halted
// virtual processor wakes slowly.
//
// The window is measured from the end of the last frame, so a cheaper frame
// leaves a longer gap before the next arrival, and less of it is covered.
// A longer window is not free: the same ladder runs in WaitHelp, and at
// 75 µs churn-mix's p99 latency spread across runs grew by 60 % (IQR 0.44 →
// 0.72 ms over 24 runs) while workers polled through join waits on two
// vCPUs; at 50 µs net-small's median with the cheaper AllocIn kv body stays
// within 6 % of what it was before.
//
// A worker on any rung, WaitHelp's included, is idle (Worker.Idle) until it
// finds a frame or leaves the ladder. That flag is what an unpinned
// session's fork asks about (Pool.HasIdle): with no worker on the ladder,
// nobody would steal the right arm before its owner pops it back, so the
// fork runs both arms inline and pays for no heap level, frame or
// promotion. A worker deep in its sleeps still counts; a frame published
// for it waits at most longSleep.
const (
	pollWindow  = 50 * time.Microsecond
	shortSleeps = 32
	longSleep   = 100 * time.Microsecond

	// coldTrimSleeps is how many sleeps in a row a worker takes before
	// flushing its chunk cache back to the global pool: long enough that a
	// worker briefly between frames keeps its chunks, short enough (~100 ms
	// of deep idling) that a drained server's chunks become available to
	// whichever workers take the next burst.
	coldTrimSleeps = 1024
)

// idleLadder is a worker's position on the ladder; the zero value is the
// top, which is where finding a frame puts it back. Stepping onto the
// ladder sets the worker's idle flag and reset clears it, so the flag is
// written twice per idle spell, not once per look.
type idleLadder struct {
	since  time.Time // first look that found nothing; zero off the ladder
	sleeps int
}

func (l *idleLadder) wait(w *Worker) {
	if l.sleeps == 0 {
		if l.since.IsZero() {
			l.since = time.Now()
			w.idle.Store(true)
		}
		if time.Since(l.since) < pollWindow {
			runtime.Gosched()
			return
		}
	}
	l.sleeps++
	if l.sleeps <= shortSleeps {
		time.Sleep(time.Microsecond)
		return
	}
	if l.sleeps == coldTrimSleeps {
		w.Chunks.Flush() // cold: return cached chunks to the shared pool
	}
	time.Sleep(longSleep)
}

// reset takes the worker off the ladder, when it found a frame or stops
// looking for one, and clears its idle flag.
func (l *idleLadder) reset(w *Worker) {
	if !l.since.IsZero() {
		*l = idleLadder{}
		w.idle.Store(false)
	}
}
