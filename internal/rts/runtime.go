package rts

import (
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/gc"
	"repro/internal/heap"
	"repro/internal/mem"
	"repro/internal/sched"
	"repro/internal/trace"
)

// Runtime is one configured runtime system. Create with New, execute with
// Run, inspect with Stats, and release with Close. Exactly one Runtime may
// be active at a time (memory accounting is process-global); New panics if
// the previous Runtime has not been Closed.
type Runtime struct {
	cfg    Config
	pool   *sched.Pool
	closed atomic.Bool

	// rootHeap is the hierarchy root (ParMem, Seq) or the shared global
	// heap (Manticore). Unused in STW mode.
	rootHeap *heap.Heap
	states   []*workerState

	// zones runs and counts zone collections in the hierarchical modes
	// (ParMem, Seq, Manticore). Nil in STW mode, whose collections are a
	// whole-world rendezvous instead (gcdrive.go).
	zones *gc.ZoneRecorder

	// totals are the merged per-task counters. A task finishes once per
	// session and once per stolen frame — under a thousand times a second
	// in the batch benchmarks even at P = 8 — so one mutex serves.
	totalsMu sync.Mutex
	ops      core.Counters
	gcStats  gc.Stats
	forks    ForkCounts

	gcNanos       atomic.Int64
	baselineBytes int64
	baselineAlloc mem.AllocStats
	traceOwner    bool // this runtime started the flight recorder; Close stops it

	// Session accounting (session.go): every unit of work — including a
	// plain Run — executes as a root-level session.
	sessionIDs   atomic.Uint64
	liveSessions atomic.Int64
	peakSessions atomic.Int64
	sessTotals   sessionCounters

	// stop-the-world rendezvous state (STW mode)
	gcFlag       atomic.Bool // mirrors gcInProgress for cheap checks
	gcMu         sync.Mutex
	gcCond       *sync.Cond
	gcInProgress bool
	gcStopped    int
	stwLastLive  atomic.Int64
}

// workerState is the per-worker runtime state used by the STW and
// Manticore modes.
type workerState struct {
	heap *heap.Heap
	// localMu orders local-heap collection against cross-worker promotion
	// out of this heap (Manticore's steal-time environment copy).
	localMu sync.Mutex
	// tasks hosted on this worker; touched only by the worker's goroutine.
	tasks map[*Task]struct{}
}

// activeRuntime enforces the one-active-Runtime rule. The peak-memory and
// live-byte accounting in package mem is process-global: two overlapping
// runtimes would silently attribute each other's allocations to their own
// baselines and high-water marks.
var activeRuntime atomic.Bool

// New builds and starts a runtime for the given configuration. It panics
// if another Runtime is still open: memory accounting is process-global,
// so overlapping runtimes would corrupt each other's statistics.
func New(cfg Config) *Runtime {
	if !activeRuntime.CompareAndSwap(false, true) {
		panic("rts: another Runtime is active; Close it before calling New (memory accounting is process-global)")
	}
	if cfg.Procs < 1 {
		cfg.Procs = 1
	}
	if cfg.Policy == (gc.Policy{}) {
		cfg.Policy = gc.DefaultPolicy()
	}
	if cfg.STWRatio == 0 {
		cfg.STWRatio = 2.0
	}
	if cfg.STWFloorBytes == 0 {
		cfg.STWFloorBytes = 8 << 20
	}
	r := &Runtime{cfg: cfg}
	r.gcCond = sync.NewCond(&r.gcMu)
	r.baselineBytes = mem.LiveBytes()
	mem.ResetHighWater()

	// Flight recorder: one event ring per worker plus the shared off-worker
	// ring. If a driving command already owns a recorder, keep emitting into
	// that one (Start refuses) and leave its lifetime to the owner.
	if cfg.TraceBufEvents > 0 {
		r.traceOwner = trace.Start(cfg.Procs, cfg.TraceBufEvents)
	}

	// Recycling allocator: remember the counter baseline so Stats reports
	// this runtime's allocator traffic, not the process's.
	r.baselineAlloc = mem.AllocSnapshot()

	if cfg.Mode != STW {
		r.rootHeap = heap.NewRoot()
		r.zones = gc.NewZoneRecorder()
	}

	r.pool = sched.NewPool(cfg.Procs, sched.WithChunkCaches(mem.DefaultCacheChunksPerClass))
	r.states = make([]*workerState, cfg.Procs)
	for i, w := range r.pool.Workers() {
		ws := &workerState{tasks: make(map[*Task]struct{})}
		switch cfg.Mode {
		case STW:
			ws.heap = heap.NewRoot()
		case Manticore:
			ws.heap = heap.NewChild(r.rootHeap)
		}
		r.states[i] = ws
		w.Local = ws
	}
	if cfg.Mode == STW {
		r.stwLastLive.Store(mem.LiveBytes() - r.baselineBytes)
		r.pool.SetSafePoint(func(w *sched.Worker) {
			if r.gcFlag.Load() {
				r.stopForGC()
			}
		})
	}
	return r
}

// Config returns the runtime's configuration.
func (r *Runtime) Config() Config { return r.cfg }

// Procs returns the worker count: in Seq, the number of sessions that run
// at once, each one sequential.
func (r *Runtime) Procs() int { return r.cfg.Procs }

// Run executes fn as a single pinned session and blocks for its result:
// Submit + Wait, with the subtree merged into the super-root so pointer
// results stay valid until Close. A panic inside fn is re-raised on the
// calling goroutine instead of crashing a worker.
func (r *Runtime) Run(fn func(*Task) uint64) uint64 {
	res, err := r.Submit(SessionOpts{Pin: true}, fn).Wait()
	if err != nil {
		if pe, ok := err.(*PanicError); ok {
			panic(pe.Value)
		}
		panic(err)
	}
	return res
}

// newTask creates a task of session s on worker w: a session's root task,
// or the context of a stolen frame. In the hierarchical modes its
// superheap is based at base — the session's subtree heap, or a stolen
// ParMem arm's fresh child of the fork heap; the flat modes pass nil and
// allocate into the worker's heap.
func (r *Runtime) newTask(w *sched.Worker, s *Session, base *heap.Heap) *Task {
	t := &Task{rt: r, w: w, ses: s}
	t.pbuf.SetTrack(w.ID)
	if base != nil {
		t.sh = heap.NewSuperheap(base)
	} else {
		t.ws = w.Local.(*workerState)
		t.ws.tasks[t] = struct{}{}
	}
	return t
}

// Totals is a snapshot of a runtime's aggregate statistics.
type Totals struct {
	Ops     core.Counters
	GC      gc.Stats
	GCNanos int64
	Steals  int64
	PeakMem int64 // peak chunk occupancy in bytes since New
	Procs   int

	// Forks counts forks by path: inline (Seq, or an unpinned session's
	// fork with no idle worker) or parallel (a published frame).
	Forks ForkCounts

	// Zones describes the concurrent zone collections of the hierarchical
	// modes: counts by kind, peak concurrency, and overlap time. Zero in
	// STW mode.
	Zones gc.ZoneStats

	// Sessions describes the runtime's root-level session activity: counts,
	// peak concurrency, and bytes reclaimed wholesale versus merged into
	// the super-root by pinned sessions.
	Sessions SessionTotals

	// Alloc describes the recycling allocator's traffic during this
	// runtime's lifetime: chunk acquisitions by tier (worker cache, global
	// pool, fresh), releases by destination, and the idMu-serialized
	// directory ID operations the pool avoided. The pool gauges
	// (PooledChunks/PooledBytes) are point-in-time.
	Alloc mem.AllocStats

	// Deferred exists only because the benchmark harness names
	// Deferred.Live; the runtime has no deferred barrier, so it is always
	// zero.
	Deferred struct{ Live int64 }
}

// Stats returns aggregate statistics. Call after Run completes.
func (r *Runtime) Stats() Totals {
	t := Totals{
		GCNanos: r.gcNanos.Load(),
		PeakMem: mem.HighWaterBytes() - r.baselineBytes,
		Procs:   r.Procs(),
	}
	r.totalsMu.Lock()
	t.Ops, t.GC, t.Forks = r.ops, r.gcStats, r.forks
	r.totalsMu.Unlock()
	t.Steals = r.pool.TotalSteals()
	if r.zones != nil {
		t.Zones = r.zones.Snapshot()
	}
	t.Alloc = mem.AllocSnapshot().Sub(r.baselineAlloc)
	t.Sessions = SessionTotals{
		Submitted:      r.sessTotals.Submitted.Load(),
		Completed:      r.sessTotals.Completed.Load(),
		Failed:         r.sessTotals.Failed.Load(),
		PeakLive:       r.peakSessions.Load(),
		WholesaleBytes: r.sessTotals.WholesaleBytes.Load(),
		MergedBytes:    r.sessTotals.MergedBytes.Load(),
	}
	return t
}

// CheckDisentangled verifies the disentanglement invariant over the root
// heap. After a completed Run every task heap has been joined into the
// root, so this checks the entire surviving object graph. Debugging aid.
func (r *Runtime) CheckDisentangled() error {
	if r.rootHeap == nil {
		return nil
	}
	return core.CheckHeap(r.rootHeap)
}

// Close stops the workers, releases every heap owned by the runtime, and
// allows a new Runtime to be created. Closing twice is a no-op; only the
// first caller releases (concurrent Closes must not double-free the
// chunk lists or re-arm the exclusivity flag under a newer Runtime).
//
// Close first waits for every submitted session to complete: releasing a
// subtree under a live mutator would corrupt it, and a session still
// queued in the pool's inbox must get to run (and its Wait to return)
// before the workers stop. A session frees its own subtree before it stops
// counting as live, so once the wait is over the super-root is the only
// session heap left. Callers wanting a prompt Close drain their sessions
// first; Close must not be called from inside a session.
func (r *Runtime) Close() {
	if !r.closed.CompareAndSwap(false, true) {
		return
	}
	for r.liveSessions.Load() > 0 {
		time.Sleep(50 * time.Microsecond)
	}
	r.pool.Close()
	// The workers have exited (Close waited on them), so their chunk caches
	// are safe to flush from here: a closed runtime must not sit on warm
	// chunks the next runtime's workers cannot reach.
	for _, w := range r.pool.Workers() {
		w.Chunks.Flush()
	}
	for _, ws := range r.states {
		if ws.heap != nil && ws.heap.IsAlive() {
			heap.FreeChunkList(ws.heap.TakeChunks())
		}
	}
	if r.rootHeap != nil && r.rootHeap.IsAlive() {
		heap.FreeChunkList(r.rootHeap.TakeChunks())
	}
	if r.traceOwner {
		trace.Stop()
	}
	activeRuntime.Store(false)
}
