package mem

import (
	"fmt"
	"sync"
	"sync/atomic"
	"unsafe"
)

// DefaultChunkWords is the largest regular chunk payload: 8192 words =
// 64 KiB. Heaps grow geometrically from MinChunkWords up to this size.
const DefaultChunkWords = 8192

// MinChunkWords is the smallest chunk payload: 64 words = 512 B. Small
// first chunks keep leaf heaps cheap — most tasks allocate very little.
const MinChunkWords = 64

// Chunk is a contiguous slab of words in which objects are bump-allocated.
// A chunk is owned by exactly one heap; Next links chunks into the owning
// heap's list and is managed by the heap package.
type Chunk struct {
	id    uint32
	used  uint32 // words handed out so far; mutated only by the owner
	Data  []uint64
	Next  *Chunk
	owner unsafe.Pointer // owning heap, opaque here; see SetOwner
}

// ID returns the chunk's directory ID.
func (c *Chunk) ID() uint32 { return c.id }

// SetOwner records the chunk's owning heap. mem cannot name the heap
// type, so the slot is an opaque pointer; the heap package stores and
// loads its own *Heap through it (paper's heapOf). The slot is atomic
// because barriers read it while a collector repoints it.
func (c *Chunk) SetOwner(h unsafe.Pointer) { atomic.StorePointer(&c.owner, h) }

// Owner returns the pointer last passed to SetOwner, or nil.
func (c *Chunk) Owner() unsafe.Pointer { return atomic.LoadPointer(&c.owner) }

// Used returns the number of words allocated so far.
func (c *Chunk) Used() uint32 { return c.used }

// Cap returns the chunk capacity in words.
func (c *Chunk) Cap() uint32 { return uint32(len(c.Data)) }

// Bump reserves n words and returns the offset of the reservation. ok is
// false if the chunk lacks space. Only the owning heap may call Bump.
func (c *Chunk) Bump(n uint32) (off uint32, ok bool) {
	if c.used+n > uint32(len(c.Data)) || c.used+n < c.used {
		return 0, false
	}
	off = c.used
	c.used += n
	return off, true
}

// chunk directory: a two-level table mapping chunk IDs to chunks. Reads are
// two atomic loads; growth installs segments with CAS and never moves
// existing entries, so lookups are lock-free.
const (
	dirSegBits = 12
	dirSegSize = 1 << dirSegBits // 4096 chunks per segment
	dirSegs    = 1 << 16         // up to ~268M chunks
)

type dirSegment [dirSegSize]atomic.Pointer[Chunk]

var (
	chunkDir [dirSegs]atomic.Pointer[dirSegment]

	idMu   sync.Mutex
	idNext uint32 = 1 // chunk ID 0 is reserved for nil
	idFree []uint32

	// idInUse counts registered chunks. Atomic rather than idMu-guarded:
	// the recycling paths (pool.go) register and unregister chunks without
	// touching idMu — the slab keeps its ID — so the gauge must not depend
	// on the lock.
	idInUse atomic.Int64
)

// GetChunk resolves a chunk ID. It returns nil for ID 0 and panics on a
// dangling ID (an ID whose chunk has been freed), which indicates a runtime
// bug — a surviving pointer into reclaimed space.
func GetChunk(id uint32) *Chunk {
	if id == 0 {
		return nil
	}
	seg := chunkDir[id>>dirSegBits].Load()
	if seg == nil {
		panic(fmt.Sprintf("mem: dangling chunk ID %d (unmapped segment)", id))
	}
	c := seg[id&(dirSegSize-1)].Load()
	if c == nil {
		panic(fmt.Sprintf("mem: dangling chunk ID %d (freed chunk)", id))
	}
	return c
}

// NewChunk allocates and registers a chunk with the given payload capacity
// in words, rounded up to MinChunkWords. This is the fresh-allocation path:
// it takes a new directory ID under idMu. Hot callers go through
// AcquireChunk (pool.go), which recycles slabs — ID included — and reaches
// here only when both the worker cache and the global pool come up empty.
func NewChunk(words int) *Chunk {
	if words < MinChunkWords {
		words = MinChunkWords
	}
	idMu.Lock()
	var id uint32
	if n := len(idFree); n > 0 {
		id = idFree[n-1]
		idFree = idFree[:n-1]
	} else {
		id = idNext
		idNext++
		if idNext == 0 {
			idMu.Unlock()
			panic("mem: chunk ID space exhausted")
		}
	}
	idMu.Unlock()
	countDirIDOp()
	idInUse.Add(1)

	c := &Chunk{id: id, Data: make([]uint64, words)}
	segIdx := id >> dirSegBits
	seg := chunkDir[segIdx].Load()
	if seg == nil {
		fresh := new(dirSegment)
		if chunkDir[segIdx].CompareAndSwap(nil, fresh) {
			seg = fresh
		} else {
			seg = chunkDir[segIdx].Load()
		}
	}
	seg[id&(dirSegSize-1)].Store(c)
	accountAlloc(int64(words) * 8)
	return c
}

// unregisterChunk invalidates the chunk's directory entry, so any later
// access through a stale ObjPtr panics in GetChunk, and a second release of
// the same chunk panics here (its CAS finds the entry already invalid — or
// pointing at the slab's NEXT life, which is a different Chunk object).
func unregisterChunk(c *Chunk) {
	seg := chunkDir[c.id>>dirSegBits].Load()
	if seg == nil {
		panic("mem: freeing chunk from unmapped segment")
	}
	if !seg[c.id&(dirSegSize-1)].CompareAndSwap(c, nil) {
		panic(fmt.Sprintf("mem: double free of chunk %d", c.id))
	}
	accountFree(int64(len(c.Data)) * 8)
	idInUse.Add(-1)
}

// releaseChunkID returns a chunk ID to the directory free list (hard frees
// and pool high-water evictions; recycled slabs keep their IDs parked).
func releaseChunkID(id uint32) {
	idMu.Lock()
	idFree = append(idFree, id)
	idMu.Unlock()
	countDirIDOp()
}

// FreeChunk unregisters a chunk and returns its ID to the free list — the
// hard-free path, bypassing the recycling tiers. Any later access through
// a stale ObjPtr into this chunk panics in GetChunk.
func FreeChunk(c *Chunk) {
	unregisterChunk(c)
	releaseChunkID(c.id)
	c.Data = nil
	c.Next = nil
}

// ChunksInUse reports the number of registered chunks (for leak tests).
// Slabs parked in worker caches or the global pool are unregistered and do
// not count.
func ChunksInUse() int64 { return idInUse.Load() }

// Memory accounting tracks bytes in registered chunks; the high-water mark
// is the maximum observed, used for the paper's memory-consumption and
// inflation statistics (Figure 13). The live total is one atomic counter,
// and every allocation raises the mark to its result with a CAS-max, so
// the mark is exact.
var liveBytes, highWater atomic.Int64

func accountAlloc(n int64) {
	live := liveBytes.Add(n)
	for {
		hw := highWater.Load()
		if live <= hw || highWater.CompareAndSwap(hw, live) {
			return
		}
	}
}

func accountFree(n int64) { liveBytes.Add(-n) }

// LiveBytes returns the bytes currently held in registered chunks.
func LiveBytes() int64 { return liveBytes.Load() }

// HighWaterBytes returns the maximum chunk occupancy observed since the
// last ResetHighWater.
func HighWaterBytes() int64 { return highWater.Load() }

// ResetHighWater restarts the occupancy high-water mark from the current
// live total. Call between benchmark runs.
func ResetHighWater() { highWater.Store(liveBytes.Load()) }
