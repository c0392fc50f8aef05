package mem

import (
	"fmt"
	"sync"
	"sync/atomic"

	"repro/internal/trace"
)

// Recycling allocator: instead of handing every dead chunk back to the Go
// garbage collector and paying a fresh make (allocation + zeroing + an
// idMu-serialized directory ID operation) for every new one, the runtime
// recycles chunk slabs through two tiers:
//
//	alloc  →  per-worker ChunkCache  →  global pool  →  OS
//
// AcquireChunk serves a request from the calling worker's cache with zero
// shared-state operations, falls back to the global pool (one short hold
// of its mutex), and only allocates fresh memory when the pool is empty.
// RecycleChunk is the reverse path: the released slab is offered to the
// worker cache, overflowed to the pool, and released to the OS only when
// the pool is above its high-water limit. Slabs park dirty and are
// re-zeroed (used prefix only) on reuse, so a slab that is destroyed
// instead of reused never pays for clearing.
//
// The pool is one free list per size class under one mutex. The worker
// caches absorb nearly all traffic (over 95% of acquisitions in the serve
// workloads), so the pool sees a few thousand operations a second at
// most, far too few for one short critical section to contend.
//
// A recycled slab keeps its directory ID, parked with the slab while it
// sits in a cache or the pool, so neither direction touches the idMu free
// list — the only remaining directory work is one atomic entry store on
// acquire and one atomic entry CAS on release. The entry CAS doubles as
// the safety net: releasing invalidates the entry (stale ObjPtrs panic in
// GetChunk exactly as for a hard free), re-registering asserts the entry
// is still invalid, and a double release fails its CAS and panics — all of
// which hold regardless of which cache a slab passed through.

// Size classes. Heap growth (heap.grow) is geometric from MinChunkWords
// with factor 4, so these are the sizes the runtime actually produces;
// requests between classes round up to the next class so the slab is
// reusable. Requests beyond the largest class are allocated exactly and
// never pooled.
var classWords = [...]int{
	MinChunkWords,     // 64 w = 512 B: first chunk of a leaf heap
	4 * MinChunkWords, // 256 w
	16 * MinChunkWords,
	64 * MinChunkWords,
	DefaultChunkWords,     // 8192 w = 64 KiB
	2 * DefaultChunkWords, // 16384 w: top of the geometric growth
}

const numClasses = len(classWords)

// DefaultPoolLimitBytes is the high-water mark of the global chunk pool:
// recycled slabs beyond it go back to the OS.
const DefaultPoolLimitBytes = 64 << 20

// DefaultCacheChunksPerClass is the default per-worker cache bound, in
// chunks per size class (≈ 1.9 MiB per worker when every class is full).
const DefaultCacheChunksPerClass = 8

// NumSizeClasses reports how many size classes the pool manages.
func NumSizeClasses() int { return numClasses }

// classFor returns the smallest size class holding words, or -1 when words
// exceeds the largest class (oversize chunks are never pooled).
func classFor(words int) int {
	for i, w := range classWords {
		if words <= w {
			return i
		}
	}
	return -1
}

// classOfExact returns the class whose size is exactly words, or -1. Used
// on the release path: only slabs with exact class capacities re-enter the
// pool (anything else was allocated outside AcquireChunk).
func classOfExact(words int) int {
	for i, w := range classWords {
		if words == w {
			return i
		}
	}
	return -1
}

// slab is a chunk's raw storage parked in a cache or the pool: the backing
// array plus the directory ID that stays assigned to it, and the dirty
// watermark (the released chunk's used prefix) that must be re-zeroed
// before the slab is handed out again. The Chunk object itself is NOT
// reused — every acquisition wraps the slab in a fresh Chunk, so a stale
// *Chunk held past its release can never CAS the directory entry of the
// slab's next life.
type slab struct {
	id    uint32
	dirty uint32
	data  []uint64
}

// allocCounters are the process-global allocator statistics. Single atomic
// counters are deliberate: they are touched once per CHUNK (64–16384
// words), not once per object, so contention is negligible, and
// process-global counters survive runtime restarts the way the chunk
// directory does.
var allocCounters struct {
	acquires    atomic.Int64
	cacheHits   atomic.Int64
	poolHits    atomic.Int64
	fresh       atomic.Int64
	oversize    atomic.Int64
	recycles    atomic.Int64
	toCache     atomic.Int64
	toPool      atomic.Int64
	toOS        atomic.Int64
	dirIDOps    atomic.Int64
	zeroedWords atomic.Int64
}

// countDirIDOp is called by chunk.go for every idMu-serialized chunk-ID
// allocation or free — the global serialization point the pool exists to
// bypass.
func countDirIDOp() { allocCounters.dirIDOps.Add(1) }

// AllocStats is a snapshot of the recycling allocator's behaviour.
// Counters are cumulative for the process; subtract two snapshots for a
// per-run delta (Sub). Gauges (PooledChunks, PooledBytes) are point-in-time.
type AllocStats struct {
	Acquires    int64 // chunk acquisitions through AcquireChunk (pooled classes)
	CacheHits   int64 // served by the calling worker's cache (no shared state)
	PoolHits    int64 // served by the global pool (one mutex hold)
	FreshChunks int64 // served by a fresh OS allocation
	Oversize    int64 // beyond the largest class; always fresh, never pooled

	Recycles int64 // chunks released through RecycleChunk
	ToCache  int64 // recycled into a worker cache
	ToPool   int64 // recycled into the global pool
	ToOS     int64 // released to the OS: pool at high-water, oversize
	// hard-frees, and pool-trim evictions (evicted slabs were counted
	// ToPool when first parked, so destination sums can exceed Recycles)

	DirIDOps    int64 // idMu-serialized chunk-ID directory operations
	ZeroedWords int64 // dirty words cleared when reusing parked slabs

	PooledChunks int64 // gauge: chunks currently parked in the global pool
	PooledBytes  int64 // gauge: bytes currently parked in the global pool
}

// Sub returns the counter deltas a−b; the gauges keep a's values.
func (a AllocStats) Sub(b AllocStats) AllocStats {
	a.Acquires -= b.Acquires
	a.CacheHits -= b.CacheHits
	a.PoolHits -= b.PoolHits
	a.FreshChunks -= b.FreshChunks
	a.Oversize -= b.Oversize
	a.Recycles -= b.Recycles
	a.ToCache -= b.ToCache
	a.ToPool -= b.ToPool
	a.ToOS -= b.ToOS
	a.DirIDOps -= b.DirIDOps
	a.ZeroedWords -= b.ZeroedWords
	return a
}

// CacheHitRate returns the fraction of class-sized acquisitions served by a
// worker cache.
func (a AllocStats) CacheHitRate() float64 {
	if a.Acquires == 0 {
		return 0
	}
	return float64(a.CacheHits) / float64(a.Acquires)
}

// PoolHitRate returns the fraction of class-sized acquisitions served by
// the global pool.
func (a AllocStats) PoolHitRate() float64 {
	if a.Acquires == 0 {
		return 0
	}
	return float64(a.PoolHits) / float64(a.Acquires)
}

// RecycleRate returns the fraction of class-sized acquisitions that did NOT
// need a fresh OS allocation.
func (a AllocStats) RecycleRate() float64 {
	if a.Acquires == 0 {
		return 0
	}
	return float64(a.CacheHits+a.PoolHits) / float64(a.Acquires)
}

// AllocSnapshot returns the allocator statistics so far.
func AllocSnapshot() AllocStats {
	pool.mu.Lock()
	var chunks int64
	for _, st := range pool.free {
		chunks += int64(len(st))
	}
	bytes := pool.bytes
	pool.mu.Unlock()
	return AllocStats{
		Acquires:     allocCounters.acquires.Load(),
		CacheHits:    allocCounters.cacheHits.Load(),
		PoolHits:     allocCounters.poolHits.Load(),
		FreshChunks:  allocCounters.fresh.Load(),
		Oversize:     allocCounters.oversize.Load(),
		Recycles:     allocCounters.recycles.Load(),
		ToCache:      allocCounters.toCache.Load(),
		ToPool:       allocCounters.toPool.Load(),
		ToOS:         allocCounters.toOS.Load(),
		DirIDOps:     allocCounters.dirIDOps.Load(),
		ZeroedWords:  allocCounters.zeroedWords.Load(),
		PooledChunks: chunks,
		PooledBytes:  bytes,
	}
}

// pool is the global tier: one stack of parked slabs per size class and
// the bytes they hold, under one mutex. It is a leaf lock: nothing else is
// acquired while holding it.
var pool struct {
	mu    sync.Mutex
	free  [numClasses][]slab
	bytes int64 // bytes parked, at most DefaultPoolLimitBytes
}

// DrainChunkPool releases every pooled slab to the OS, destroying them
// outside the pool lock, and reports how many chunks it freed. Leak tests
// and memory-pressure hooks use it.
func DrainChunkPool() int {
	var out []slab
	pool.mu.Lock()
	for cls := range pool.free {
		out = append(out, pool.free[cls]...)
		pool.free[cls] = pool.free[cls][:0]
	}
	pool.bytes = 0
	pool.mu.Unlock()
	for _, s := range out {
		destroySlab(s)
	}
	return len(out)
}

// destroySlab returns a parked slab's ID to the directory free list and
// drops its storage. The slab's directory entry is already nil (it was
// invalidated when the chunk was recycled).
func destroySlab(s slab) {
	releaseChunkID(s.id)
	allocCounters.toOS.Add(1)
}

// PooledBytes reports the bytes currently parked in the global pool.
func PooledBytes() int64 {
	pool.mu.Lock()
	defer pool.mu.Unlock()
	return pool.bytes
}

// ChunkCache is one worker's private chunk cache: a small per-size-class
// stack of recycled slabs owned by exactly one worker goroutine, so
// acquiring from it and releasing into it take no shared-state operations
// at all. Capacity is bounded (perClass chunks per size class); overflow
// goes to the global pool. The zero value is unusable — use NewChunkCache.
//
// Ownership rule: a ChunkCache may only ever be touched by the goroutine
// of the worker that owns it. The runtime threads the CALLING task's cache
// through allocation and release paths (never the cache of whatever worker
// a heap "belongs" to), which is what makes the no-synchronization access
// safe even when promoting into a shared ancestor or collecting a zone.
type ChunkCache struct {
	perClass int
	owner    int // owning worker ID + 1 for trace attribution; 0 = unowned
	classes  [numClasses][]slab
	held     int
	heldB    int64
}

// NewChunkCache creates a cache bounded at perClass chunks per size class
// (≤ 0 selects DefaultCacheChunksPerClass).
func NewChunkCache(perClass int) *ChunkCache {
	if perClass <= 0 {
		perClass = DefaultCacheChunksPerClass
	}
	return &ChunkCache{perClass: perClass}
}

// HeldChunks reports how many chunks the cache is holding.
func (cc *ChunkCache) HeldChunks() int { return cc.held }

// HeldBytes reports the bytes the cache is holding.
func (cc *ChunkCache) HeldBytes() int64 { return cc.heldB }

// SetOwner records the worker ID that owns this cache, used only to place
// trace events on the owner's timeline track. Callers that never trace can
// skip it; the zero value attributes to the off-worker track.
func (cc *ChunkCache) SetOwner(id int) { cc.owner = id + 1 }

// Owner returns the owning worker ID, or -1 when unowned.
func (cc *ChunkCache) Owner() int { return cc.owner - 1 }

func (cc *ChunkCache) take(cls int) (slab, bool) {
	st := cc.classes[cls]
	n := len(st)
	if n == 0 {
		return slab{}, false
	}
	s := st[n-1]
	cc.classes[cls] = st[:n-1]
	cc.held--
	cc.heldB -= int64(len(s.data)) * 8
	return s, true
}

func (cc *ChunkCache) put(cls int, s slab) bool {
	if len(cc.classes[cls]) >= cc.perClass {
		return false
	}
	cc.classes[cls] = append(cc.classes[cls], s)
	cc.held++
	cc.heldB += int64(len(s.data)) * 8
	return true
}

// Flush returns every cached slab to the global pool (or the OS, when the
// pool is at its high-water mark). Workers call it when they go cold
// (sched's idle trim) and the runtime calls it at Close; only the owning
// worker goroutine (or the runtime after the workers have exited) may
// call it.
func (cc *ChunkCache) Flush() {
	for cls := range cc.classes {
		for _, s := range cc.classes[cls] {
			poolPut(cls, s)
		}
		cc.classes[cls] = cc.classes[cls][:0]
	}
	cc.held = 0
	cc.heldB = 0
}

// poolPut parks a slab in the global pool, or destroys it when the pool
// is at its high-water mark.
func poolPut(cls int, s slab) {
	bytes := int64(len(s.data)) * 8
	pool.mu.Lock()
	if pool.bytes+bytes > DefaultPoolLimitBytes {
		pool.mu.Unlock()
		destroySlab(s)
		return
	}
	pool.free[cls] = append(pool.free[cls], s)
	pool.bytes += bytes
	pool.mu.Unlock()
	allocCounters.toPool.Add(1)
}

// poolGet serves a parked slab of class cls, if the pool has one.
func poolGet(cls int) (slab, bool) {
	pool.mu.Lock()
	defer pool.mu.Unlock()
	n := len(pool.free[cls])
	if n == 0 {
		return slab{}, false
	}
	s := pool.free[cls][n-1]
	pool.free[cls] = pool.free[cls][:n-1]
	pool.bytes -= int64(len(s.data)) * 8
	return s, true
}

// AcquireChunk allocates and registers a chunk able to hold words payload
// words, recycling through cc (the calling worker's cache, nil when the
// caller has none) and the global pool before falling back to a
// fresh OS allocation. Class-sized requests round up to their class so the
// slab is reusable; oversize requests (beyond the largest class) are
// allocated exactly and bypass recycling.
func AcquireChunk(cc *ChunkCache, words int) *Chunk {
	if words < MinChunkWords {
		words = MinChunkWords
	}
	cls := classFor(words)
	if cls < 0 {
		allocCounters.oversize.Add(1)
		return NewChunk(words)
	}
	allocCounters.acquires.Add(1)
	if cc != nil {
		if s, ok := cc.take(cls); ok {
			allocCounters.cacheHits.Add(1)
			return registerRecycled(s)
		}
	}
	if s, ok := poolGet(cls); ok {
		allocCounters.poolHits.Add(1)
		if trace.Enabled() {
			track := -1
			if cc != nil {
				track = cc.Owner()
			}
			trace.Emit(track, trace.EvPoolRefill, uint32(cls), 0)
		}
		return registerRecycled(s)
	}
	allocCounters.fresh.Add(1)
	return NewChunk(classWords[cls])
}

// registerRecycled re-zeroes a parked slab's dirty prefix (objects rely
// on fresh chunks being zero; slabs park dirty so destroyed ones never
// pay for clearing), wraps it in a fresh Chunk, and re-registers its
// retained ID in the chunk directory, asserting the entry was invalidated
// when the slab was released. The fresh Chunk object means a *Chunk held
// across the slab's previous life cannot alias this one.
func registerRecycled(s slab) *Chunk {
	if s.dirty > 0 {
		clear(s.data[:s.dirty])
		allocCounters.zeroedWords.Add(int64(s.dirty))
	}
	c := &Chunk{id: s.id, Data: s.data}
	seg := chunkDir[s.id>>dirSegBits].Load()
	if seg == nil {
		panic(fmt.Sprintf("mem: recycled chunk %d maps to an unmapped directory segment", s.id))
	}
	if !seg[s.id&(dirSegSize-1)].CompareAndSwap(nil, c) {
		panic(fmt.Sprintf(
			"mem: reusing chunk %d whose directory entry was never invalidated", s.id))
	}
	idInUse.Add(1)
	accountAlloc(int64(len(s.data)) * 8)
	return c
}

// RecycleChunk releases a chunk back to the allocator: its directory entry
// is invalidated first (so any surviving ObjPtr into it panics in GetChunk,
// exactly as after FreeChunk, and a double release panics here), and the
// slab is parked dirty — worker cache first, then the global pool, then
// released to the OS when the pool is at its
// high-water mark — carrying its used watermark so reuse re-zeroes exactly
// the dirtied prefix. cc may be nil (no cache tier). Oversize and
// non-class chunks are hard-freed.
func RecycleChunk(cc *ChunkCache, c *Chunk) {
	cls := classOfExact(len(c.Data))
	if cls < 0 {
		allocCounters.recycles.Add(1)
		allocCounters.toOS.Add(1)
		FreeChunk(c)
		return
	}
	unregisterChunk(c) // panics on a double release
	allocCounters.recycles.Add(1)
	s := slab{id: c.id, dirty: c.used, data: c.Data}
	c.Data = nil
	c.Next = nil
	c.used = 0
	if cc != nil && cc.put(cls, s) {
		allocCounters.toCache.Add(1)
		return
	}
	poolPut(cls, s)
}
