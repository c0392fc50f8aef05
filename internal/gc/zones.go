package gc

import (
	"sync"
	"time"

	"repro/internal/heap"
	"repro/internal/mem"
	"repro/internal/trace"
)

// Concurrent zone collection (paper §3.4): a zone is a heap with no live
// descendants, and zones of different tasks may be collected at the same
// time as each other and as mutator work. Nothing coordinates them.
// Disentanglement keeps every other task out of a zone, and each zone is
// exactly one heap that only its owner collects: a task's current leaf, the
// merged ancestor after a join, or a Manticore worker's local heap. The
// collector (collect.go) keeps no package-level state, so each collection
// needs only its heap's own write lock. The ZoneRecorder measures how much
// concurrency that buys.

// ZoneKind classifies a zone collection for the statistics.
type ZoneKind int

const (
	// LeafZone is a collection of a task's current leaf heap, triggered at
	// an allocation safe point.
	LeafZone ZoneKind = iota
	// JoinZone is an internal-node collection: at a join, the child heap
	// has been merged into its parent and the merged ancestor — now free
	// of live descendants — is collected as a zone.
	JoinZone
)

func (k ZoneKind) String() string {
	if k == JoinZone {
		return "join"
	}
	return "leaf"
}

// ZoneStats aggregates a recorder's lifetime zone-collection behaviour.
type ZoneStats struct {
	Zones         int64 // zone collections completed
	LeafZones     int64 // collections of leaf heaps at allocation safe points
	JoinZones     int64 // internal-node collections of merged ancestors at joins
	WordsCopied   int64 // words copied by zone collections
	ZoneNanos     int64 // summed wall time spent inside zone collections
	OverlapNanos  int64 // wall time during which >= 2 zones were in flight
	MaxConcurrent int64 // peak number of zones in flight at once

	// Session-family counters (serving layer): zones tagged with a nonzero
	// family belong to one root-level session subtree. Disjoint sessions
	// collecting at the same time is the cross-request GC concurrency the
	// hierarchy buys, so the recorder measures it directly.
	SessionZones          int64 // completed zone collections tagged with a session
	MaxConcurrentSessions int64 // peak number of DISTINCT sessions collecting at once
}

// ZoneRecorder runs zone collections and accounts for their overlap. One
// recorder serves one runtime. Its mutex guards only the statistics and
// does constant work per collection; it is never held while copying.
type ZoneRecorder struct {
	statsMu  sync.Mutex
	active   int            // zones in flight
	families map[uint64]int // in-flight zone count per session family
	overlap  time.Time      // start of the current >=2-zone span
	stats    ZoneStats
}

// NewZoneRecorder returns an empty recorder.
func NewZoneRecorder() *ZoneRecorder {
	return &ZoneRecorder{families: make(map[uint64]int)}
}

// Collect runs one zone collection of h under h's write lock: the
// promotion-aware copy over the given roots. cc is the collecting worker's
// chunk cache (nil when the caller runs off-worker): to-space chunks come
// from it and the swept from-space recycles into it, keeping the
// collection's chunk traffic off the global directory. family tags the
// zone with the root-level session subtree it belongs to (0 for none), so
// the recorder can count how many distinct sessions collect at once.
//
// The write lock excludes findMaster readers and promotions targeting h.
// Those only ever climb the *caller's* own root path, and disentanglement
// keeps other tasks' root paths out of the zone, so in a correct execution
// the lock is uncontended; should an entangled pointer ever reach into the
// zone, the lock serializes instead of corrupting.
func (z *ZoneRecorder) Collect(cc *mem.ChunkCache, family uint64, h *heap.Heap, roots []*mem.ObjPtr, kind ZoneKind) Stats {
	track := -1
	if cc != nil {
		track = cc.Owner()
	}
	var span uint64
	if trace.Enabled() {
		span = trace.Begin(track, trace.EvZone, uint32(kind), h.ID())
	}
	z.begin(family)
	start := time.Now()
	h.Lock(heap.WRITE)
	st := CollectWith(cc, []*heap.Heap{h}, roots)
	h.Unlock()
	dur := time.Since(start).Nanoseconds()
	z.end(family, kind, st.WordsCopied, dur)
	if span != 0 {
		trace.End(track, trace.EvZone, span, 0, uint64(st.WordsCopied))
	}
	return st
}

// begin marks a zone in flight, opening an overlap span when it is the
// second, and raising the concurrency peaks.
func (z *ZoneRecorder) begin(family uint64) {
	z.statsMu.Lock()
	z.active++
	if int64(z.active) > z.stats.MaxConcurrent {
		z.stats.MaxConcurrent = int64(z.active)
	}
	if family != 0 {
		z.families[family]++
		if n := int64(len(z.families)); n > z.stats.MaxConcurrentSessions {
			z.stats.MaxConcurrentSessions = n
		}
	}
	if z.active == 2 {
		z.overlap = time.Now()
	}
	z.statsMu.Unlock()
}

// end takes a zone out of flight and counts the completed collection.
func (z *ZoneRecorder) end(family uint64, kind ZoneKind, words, nanos int64) {
	z.statsMu.Lock()
	if family != 0 {
		if z.families[family]--; z.families[family] <= 0 {
			delete(z.families, family)
		}
		z.stats.SessionZones++
	}
	if z.active == 2 {
		z.stats.OverlapNanos += time.Since(z.overlap).Nanoseconds()
	}
	z.active--
	z.stats.Zones++
	if kind == JoinZone {
		z.stats.JoinZones++
	} else {
		z.stats.LeafZones++
	}
	z.stats.WordsCopied += words
	z.stats.ZoneNanos += nanos
	z.statsMu.Unlock()
}

// Snapshot returns the recorder's aggregate statistics so far.
func (z *ZoneRecorder) Snapshot() ZoneStats {
	z.statsMu.Lock()
	defer z.statsMu.Unlock()
	st := z.stats
	if z.active >= 2 {
		st.OverlapNanos += time.Since(z.overlap).Nanoseconds()
	}
	return st
}
