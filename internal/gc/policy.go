package gc

import "repro/internal/heap"

// Policy decides when a heap is worth collecting, following the
// size-ratio discipline inherited from the prior hierarchical-heaps work:
// collect once the heap has grown beyond a factor of its last live size,
// with a floor that leaves small heaps alone.
//
// The runtime adds one rule of its own on top: a heap of an unpinned
// session is never collected below DefaultPolicy's MinWords, since the
// session's release frees it wholesale. A Policy with a lower MinWords
// therefore acts on such a heap only once it holds 1 MiB.
type Policy struct {
	// MinWords is the smallest heap occupancy worth collecting.
	MinWords int64
	// Ratio is the growth factor over the last live size that triggers
	// collection.
	Ratio float64
}

// DefaultPolicy matches a 1 MiB floor with a 2x growth trigger.
func DefaultPolicy() Policy {
	return Policy{MinWords: 128 * 1024, Ratio: 2.0}
}

// ShouldCollect reports whether h has grown enough to collect.
func (p Policy) ShouldCollect(h *heap.Heap) bool {
	used := h.UsedWords()
	if used < p.MinWords {
		return false
	}
	threshold := int64(p.Ratio * float64(h.LiveWords))
	if threshold < p.MinWords {
		threshold = p.MinWords
	}
	return used >= threshold
}
