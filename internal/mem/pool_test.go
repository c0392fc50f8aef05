package mem

import (
	"sync"
	"testing"
)

// resetPool drains the global pool, so tests that count pool contents do
// not see other tests' slabs.
func resetPool(t *testing.T) {
	t.Helper()
	DrainChunkPool()
	t.Cleanup(func() { DrainChunkPool() })
}

func TestAcquireRoundsUpToClass(t *testing.T) {
	resetPool(t)
	c := AcquireChunk(nil, 100) // between 64 and 256
	defer RecycleChunk(nil, c)
	if got := int(c.Cap()); got != 4*MinChunkWords {
		t.Fatalf("Cap = %d, want the 256-word class", got)
	}
	if GetChunk(c.ID()) != c {
		t.Fatal("acquired chunk must be registered")
	}
}

func TestRecycleReusesSlabAndID(t *testing.T) {
	resetPool(t)
	c := AcquireChunk(nil, MinChunkWords)
	id := c.ID()
	inUse := ChunksInUse()
	live := LiveBytes()
	RecycleChunk(nil, c)
	if got := ChunksInUse(); got != inUse-1 {
		t.Fatalf("ChunksInUse after recycle = %d, want %d (pooled slabs are unregistered)", got, inUse-1)
	}
	if got := LiveBytes(); got != live-int64(MinChunkWords*8) {
		t.Fatalf("LiveBytes after recycle = %d, want %d", got, live-int64(MinChunkWords*8))
	}
	d := AcquireChunk(nil, MinChunkWords)
	defer RecycleChunk(nil, d)
	if d.ID() != id {
		t.Fatalf("recycled slab should keep its ID: got %d, want %d", d.ID(), id)
	}
	if d == c {
		t.Fatal("a recycled slab must be wrapped in a fresh Chunk object")
	}
}

func TestRecycledSlabIsZeroed(t *testing.T) {
	resetPool(t)
	c := AcquireChunk(nil, MinChunkWords)
	off, _ := c.Bump(8)
	for i := uint32(0); i < 8; i++ {
		c.Data[off+i] = ^uint64(0)
	}
	RecycleChunk(nil, c)
	d := AcquireChunk(nil, MinChunkWords)
	defer RecycleChunk(nil, d)
	if d.Used() != 0 {
		t.Fatalf("recycled chunk Used = %d, want 0", d.Used())
	}
	for i, w := range d.Data {
		if w != 0 {
			t.Fatalf("recycled chunk word %d = %#x, want 0 (objects rely on zeroed chunks)", i, w)
		}
	}
}

func TestDoubleRecyclePanics(t *testing.T) {
	resetPool(t)
	c := AcquireChunk(nil, MinChunkWords)
	RecycleChunk(nil, c)
	defer func() {
		if recover() == nil {
			t.Fatal("double recycle must panic")
		}
	}()
	RecycleChunk(nil, c)
}

// A chunk released and then reacquired gets a fresh Chunk object, so a
// double release by the OLD owner must panic even though the slab (and its
// directory entry) are live again under the new owner.
func TestDoubleRecycleAfterReusePanics(t *testing.T) {
	resetPool(t)
	c := AcquireChunk(nil, MinChunkWords)
	RecycleChunk(nil, c)
	d := AcquireChunk(nil, MinChunkWords) // reuses c's slab and ID
	defer RecycleChunk(nil, d)
	if d.ID() != c.ID() {
		t.Skip("slab was not reused; nothing to test")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("stale double recycle must panic, not steal the new owner's entry")
		}
	}()
	RecycleChunk(nil, c)
}

func TestStaleObjPtrPanicsAfterRecycle(t *testing.T) {
	resetPool(t)
	c := AcquireChunk(nil, MinChunkWords)
	off, _ := c.Bump(uint32(ObjectWords(1, 1)))
	p := InitObject(c, off, 1, 1, TagTuple)
	RecycleChunk(nil, c)
	defer func() {
		if recover() == nil {
			t.Fatal("access through a stale ObjPtr into a recycled chunk must panic")
		}
	}()
	_ = NumPtrFields(p)
}

func TestWorkerCacheBounds(t *testing.T) {
	resetPool(t)
	cc := NewChunkCache(2)
	var chunks []*Chunk
	for i := 0; i < 5; i++ {
		chunks = append(chunks, AcquireChunk(nil, MinChunkWords))
	}
	for _, c := range chunks {
		RecycleChunk(cc, c)
	}
	if got := cc.HeldChunks(); got != 2 {
		t.Fatalf("cache held %d chunks of one class, want its bound 2", got)
	}
	// The overflow went to the pool, not nowhere.
	if PooledBytes() < int64(3*MinChunkWords*8) {
		t.Fatalf("pool holds %d bytes, want at least the 3 overflow chunks", PooledBytes())
	}
	// Cache hits come back without touching the pool.
	before := AllocSnapshot()
	c := AcquireChunk(cc, MinChunkWords)
	delta := AllocSnapshot().Sub(before)
	if delta.CacheHits != 1 || delta.PoolHits != 0 || delta.FreshChunks != 0 {
		t.Fatalf("acquire from warm cache: %+v, want exactly one cache hit", delta)
	}
	RecycleChunk(cc, c)
	cc.Flush()
	if cc.HeldChunks() != 0 || cc.HeldBytes() != 0 {
		t.Fatalf("flushed cache still holds %d chunks / %d bytes", cc.HeldChunks(), cc.HeldBytes())
	}
}

func TestPoolHighWaterReleasesToOS(t *testing.T) {
	resetPool(t)
	// Two largest-class slabs more than the pool may hold.
	words := classWords[numClasses-1]
	fit := DefaultPoolLimitBytes / (int64(words) * 8)
	var chunks []*Chunk
	for i := int64(0); i < fit+2; i++ {
		chunks = append(chunks, AcquireChunk(nil, words))
	}
	before := AllocSnapshot()
	for _, c := range chunks {
		RecycleChunk(nil, c)
	}
	delta := AllocSnapshot().Sub(before)
	if delta.ToPool != fit || delta.ToOS != 2 {
		t.Fatalf("recycle over high-water: ToPool=%d ToOS=%d, want %d and 2", delta.ToPool, delta.ToOS, fit)
	}
	if got := PooledBytes(); got > DefaultPoolLimitBytes {
		t.Fatalf("PooledBytes = %d, want <= high-water %d", got, int64(DefaultPoolLimitBytes))
	}
}

func TestDrainChunkPool(t *testing.T) {
	resetPool(t)
	var chunks []*Chunk
	for i := 0; i < 3; i++ {
		chunks = append(chunks, AcquireChunk(nil, MinChunkWords))
	}
	for _, c := range chunks {
		RecycleChunk(nil, c)
	}
	if PooledBytes() == 0 {
		t.Fatal("expected slabs in the pool before draining")
	}
	if n := DrainChunkPool(); n != 3 {
		t.Fatalf("drained %d chunks, want 3", n)
	}
	if got := PooledBytes(); got != 0 {
		t.Fatalf("PooledBytes after drain = %d, want 0", got)
	}
}

func TestOversizeBypassesPool(t *testing.T) {
	resetPool(t)
	before := AllocSnapshot()
	c := AcquireChunk(nil, 3*DefaultChunkWords) // beyond the largest class
	if int(c.Cap()) != 3*DefaultChunkWords {
		t.Fatalf("oversize request must be exact: got %d words", c.Cap())
	}
	RecycleChunk(nil, c)
	delta := AllocSnapshot().Sub(before)
	if delta.Oversize != 1 || delta.ToPool != 0 || delta.ToCache != 0 {
		t.Fatalf("oversize chunk must bypass the recycling tiers: %+v", delta)
	}
}

func TestSizeClassesCoverGeometricGrowth(t *testing.T) {
	// heap.grow produces 64, 256, 1024, 4096, 16384 (and DefaultChunkWords
	// for direct requests); every one must be an exact class so the runtime's
	// own chunks always recycle.
	for _, w := range []int{64, 256, 1024, 4096, 8192, 16384} {
		if classOfExact(w) < 0 {
			t.Fatalf("chunk size %d words is not an exact size class", w)
		}
	}
	if classFor(2*DefaultChunkWords+1) != -1 {
		t.Fatal("requests beyond the largest class must be oversize")
	}
}

// The tests below hand a slab from one worker cache to another through the
// pool: cache A recycles it and flushes, cache B acquires it. Every
// recycling guarantee must hold across that handoff.

func TestDoubleRecyclePanicsAfterCacheHandoff(t *testing.T) {
	resetPool(t)
	ccA := NewChunkCache(1)
	stale := AcquireChunk(ccA, MinChunkWords)
	id := stale.ID()
	RecycleChunk(ccA, stale) // parked in A, entry invalidated
	ccA.Flush()

	reborn := AcquireChunk(NewChunkCache(1), MinChunkWords)
	if reborn.ID() != id {
		t.Fatalf("cache B got slab %d, want the parked slab %d", reborn.ID(), id)
	}
	// The stale *Chunk from the slab's previous life must not be able to
	// release the slab's next life: its directory CAS sees a different
	// Chunk object and panics.
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("double recycle after a cache handoff did not panic")
			}
		}()
		RecycleChunk(nil, stale)
	}()
	RecycleChunk(nil, reborn)
}

func TestStaleObjPtrPanicsWhileParkedInPool(t *testing.T) {
	resetPool(t)
	ccA := NewChunkCache(3)
	var ids []uint32
	for _, c := range []*Chunk{
		AcquireChunk(ccA, MinChunkWords),
		AcquireChunk(ccA, MinChunkWords),
		AcquireChunk(ccA, MinChunkWords),
	} {
		ids = append(ids, c.ID())
		RecycleChunk(ccA, c)
	}
	ccA.Flush()

	// Cache B takes the newest slab; the older ones stay parked and
	// unregistered, so a surviving pointer into one must panic.
	c := AcquireChunk(NewChunkCache(1), MinChunkWords)
	if c.ID() != ids[2] {
		t.Fatalf("cache B got %d, want newest parked slab %d", c.ID(), ids[2])
	}
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("stale ID into a parked slab did not panic")
			}
		}()
		GetChunk(ids[0])
	}()
	RecycleChunk(nil, c)
}

func TestRecycledSlabZeroedAfterCacheHandoff(t *testing.T) {
	resetPool(t)
	ccA := NewChunkCache(1)
	c := AcquireChunk(ccA, MinChunkWords)
	if off, ok := c.Bump(8); !ok || off != 0 {
		t.Fatalf("bump failed: %d %v", off, ok)
	}
	for i := 0; i < 8; i++ {
		c.Data[i] = ^uint64(0)
	}
	RecycleChunk(ccA, c)
	ccA.Flush()

	reborn := AcquireChunk(NewChunkCache(1), MinChunkWords)
	for i := 0; i < 8; i++ {
		if reborn.Data[i] != 0 {
			t.Fatalf("word %d not re-zeroed after a cache handoff: %#x", i, reborn.Data[i])
		}
	}
	if reborn.Used() != 0 {
		t.Fatalf("reborn slab Used = %d, want 0", reborn.Used())
	}
	RecycleChunk(nil, reborn)
}

func TestPoolAccountingExactUnderContention(t *testing.T) {
	resetPool(t)
	const (
		workers = 8
		rounds  = 200
	)
	var wg sync.WaitGroup
	liveBefore, pooledBefore := LiveBytes(), PooledBytes()
	inUseBefore := ChunksInUse()
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			cc := NewChunkCache(2)
			for i := 0; i < rounds; i++ {
				a := AcquireChunk(cc, MinChunkWords)
				b := AcquireChunk(cc, 4*MinChunkWords)
				a.Bump(4)
				a.Data[0] = uint64(w)
				RecycleChunk(cc, a)
				RecycleChunk(cc, b)
			}
			cc.Flush()
		}(w)
	}
	wg.Wait()
	if got := LiveBytes(); got != liveBefore {
		t.Fatalf("LiveBytes = %d after balanced churn, want %d", got, liveBefore)
	}
	if got := ChunksInUse(); got != inUseBefore {
		t.Fatalf("ChunksInUse = %d after balanced churn, want %d", got, inUseBefore)
	}
	if got := PooledBytes(); got < pooledBefore {
		t.Fatalf("PooledBytes = %d, want >= %d", got, pooledBefore)
	}
	if hw, live := HighWaterBytes(), LiveBytes(); hw < live {
		t.Fatalf("high water %d below live %d", hw, live)
	}
	drained := DrainChunkPool()
	if got := PooledBytes(); got != 0 {
		t.Fatalf("PooledBytes = %d after drain (%d slabs), want 0", got, drained)
	}
}
