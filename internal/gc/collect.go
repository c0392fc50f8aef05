package gc

import (
	"fmt"

	"repro/internal/heap"
	"repro/internal/mem"
)

// Stats describes one collection.
type Stats struct {
	Collections      int64
	ObjectsCopied    int64
	WordsCopied      int64
	DuplicatesMerged int64 // promotion duplicates eliminated (Appendix A case 2)
	WordsReclaimed   int64 // from-space words released
}

// Add accumulates o into s.
func (s *Stats) Add(o Stats) {
	s.Collections += o.Collections
	s.ObjectsCopied += o.ObjectsCopied
	s.WordsCopied += o.WordsCopied
	s.DuplicatesMerged += o.DuplicatesMerged
	s.WordsReclaimed += o.WordsReclaimed
}

// Collector performs one collection over a zone of heaps.
type Collector struct {
	topDepth int32
	toSpace  map[*heap.Heap]*heap.Heap
	zone     []*heap.Heap
	scan     []mem.ObjPtr
	stats    Stats

	// cache is the COLLECTING worker's chunk cache (nil when the collector
	// runs off-worker): to-space chunks are acquired from it and from-space
	// chunks are recycled into it, so a collection normally trades chunks
	// with its own worker instead of the global directory.
	cache *mem.ChunkCache
}

// NewCollector prepares a collection of the given zone. The zone must
// consist of live, distinct heaps: a top heap and optionally its live
// descendants (pass just one heap for a leaf collection). Each zone heap
// receives a to-space twin.
func NewCollector(zone []*heap.Heap) *Collector {
	if len(zone) == 0 {
		panic("gc: empty collection zone")
	}
	c := &Collector{
		toSpace:  make(map[*heap.Heap]*heap.Heap, len(zone)),
		zone:     zone,
		topDepth: zone[0].Depth(),
	}
	for _, h := range zone {
		if !h.IsAlive() {
			panic("gc: zone heap has been merged away")
		}
		if _, dup := c.toSpace[h]; dup {
			panic("gc: duplicate heap in zone")
		}
		c.toSpace[h] = heap.NewTwin(h)
		if d := h.Depth(); d < c.topDepth {
			c.topDepth = d
		}
	}
	return c
}

// CopyRoot relocates one root slot into to-space. The slot is only written
// when the pointer actually moves: slots holding pointers outside the zone
// may be concurrently read by other tasks (e.g. a thief reading a frame's
// environment), and such pointers never move.
func (c *Collector) CopyRoot(slot *mem.ObjPtr) {
	if slot == nil || slot.IsNil() {
		return
	}
	if moved := c.copyObj(*slot); moved != *slot {
		*slot = moved
	}
	c.drain()
}

// copyObj implements cheneyCopy's chase (Appendix A): follow the forwarding
// chain applying the three-case rule, copying at most one object.
func (c *Collector) copyObj(q mem.ObjPtr) mem.ObjPtr {
	chased := false
	for {
		h := heap.Of(q)
		if h.Depth() < c.topDepth {
			// Case 2 when reached via a chain: a promotion's copy above the
			// zone supersedes the in-zone duplicates.
			if chased {
				c.stats.DuplicatesMerged++
			}
			return q
		}
		if h.IsTo() {
			return q // case 1: copied earlier in this collection
		}
		if f := mem.LoadFwd(q); !f.IsNil() {
			chased = true
			q = f
			continue
		}
		// Case 3: live and local — copy into this heap's twin.
		to, ok := c.toSpace[h]
		if !ok {
			panic(fmt.Sprintf("gc: reachable object %v in heap %v outside the zone (depth %d >= top %d)",
				q, h, h.Depth(), c.topDepth))
		}
		numPtr, numNonptr, tag := mem.NumPtrFields(q), mem.NumNonptrWords(q), mem.TagOf(q)
		fresh := to.FreshObjVia(c.cache, numPtr, numNonptr, tag)
		mem.StoreFwd(q, fresh)
		mem.CopyBody(fresh, q)
		c.stats.ObjectsCopied++
		c.stats.WordsCopied += int64(mem.ObjectWords(numPtr, numNonptr))
		c.scan = append(c.scan, fresh)
		return fresh
	}
}

// drain scans copied objects, relocating their pointer fields.
func (c *Collector) drain() {
	for len(c.scan) > 0 {
		o := c.scan[len(c.scan)-1]
		c.scan = c.scan[:len(c.scan)-1]
		for i, n := 0, mem.NumPtrFields(o); i < n; i++ {
			q := mem.LoadPtrField(o, i)
			if q.IsNil() {
				continue
			}
			mem.StorePtrField(o, i, c.copyObj(q))
		}
	}
}

// Finish swaps semispaces (each zone heap adopts its twin's chunks) and
// frees the from-spaces. It returns the collection's statistics.
func (c *Collector) Finish() Stats {
	for _, h := range c.zone {
		old := h.TakeChunks()
		reclaimed := int64(0)
		for ch := old; ch != nil; ch = ch.Next {
			reclaimed += int64(ch.Cap())
		}
		h.AdoptFrom(c.toSpace[h])
		heap.RecycleChunkList(c.cache, old)
		c.stats.WordsReclaimed += reclaimed
	}
	c.stats.WordsReclaimed -= c.stats.WordsCopied
	c.stats.Collections = 1
	return c.stats
}

// Collect runs a full collection of the zone with the given root slots.
// Each slot is updated in place to the relocated pointer.
func Collect(zone []*heap.Heap, roots []*mem.ObjPtr) Stats {
	return CollectWith(nil, zone, roots)
}

// CollectWith is Collect with the collection's chunk traffic routed
// through cc, the collecting worker's chunk cache: to-space chunks are
// acquired from it and the reclaimed from-space is recycled into it.
func CollectWith(cc *mem.ChunkCache, zone []*heap.Heap, roots []*mem.ObjPtr) Stats {
	return CollectUnder(cc, nil, zone, roots)
}

// CollectUnder is CollectWith for a zone below above, a heap that stays in
// place but whose objects may point into the zone with no barrier having
// moved the pointees up: every pointer field in above is a root as well.
// STW collects its worker heaps this way under the root heap, since its
// pointer writes are plain stores. A nil above is CollectWith.
func CollectUnder(cc *mem.ChunkCache, above *heap.Heap, zone []*heap.Heap, roots []*mem.ObjPtr) Stats {
	c := NewCollector(zone)
	c.cache = cc
	for _, r := range roots {
		c.CopyRoot(r)
	}
	if above != nil {
		for ch := above.Chunks(); ch != nil; ch = ch.Next {
			for off := uint32(0); off < ch.Used(); {
				o := mem.MakeObjPtr(ch.ID(), off)
				for i, n := 0, mem.NumPtrFields(o); i < n; i++ {
					if q := mem.LoadPtrField(o, i); !q.IsNil() {
						mem.StorePtrField(o, i, c.copyObj(q))
					}
				}
				c.drain()
				off += uint32(mem.SizeWords(o))
			}
		}
	}
	return c.Finish()
}
