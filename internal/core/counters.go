package core

// Counters tallies memory operations by the cost classes of Figure 8.
// Each task owns a Counters and merges it into the runtime total when it
// completes, so hot paths never touch shared cache lines.
type Counters struct {
	Allocs     int64
	AllocWords int64

	ReadImm int64 // immutable reads: single instruction, no barrier

	ReadMutFast int64 // mutable reads that hit the no-forwarding fast path
	ReadMutSlow int64 // mutable reads redirected to a master copy

	WriteNonptrLocal   int64 // optimistic non-pointer writes to the task's own heap
	WriteNonptrDistant int64 // optimistic non-pointer writes to ancestor heaps
	WriteNonptrSlow    int64 // non-pointer writes redirected to a master copy

	WriteInit int64 // initializing writes into fresh objects

	WritePtrFast     int64 // pointer writes to local, unforwarded objects
	WritePtrAncestor int64 // optimistic ancestor-pointee writes (no FindMaster lock)
	WritePtrNonProm  int64 // non-promoting writes that went through FindMaster
	WritePtrProm     int64 // pointer writes that triggered promotion
	WritePtrPinned   int64 // deferred-mode down-pointer writes that pinned instead of promoting

	CASFast int64 // compare-and-swap on unforwarded objects
	CASSlow int64 // compare-and-swap redirected to a master copy

	Promotions        int64 // promoting pointer writes committed
	PromotedObjects   int64 // objects copied upward
	PromotedWords     int64 // words copied upward
	PromoteClimbs     int64 // promotion lock climbs
	ClimbLockedHeaps  int64 // heaps write-locked across all climbs
	PromoteNanos      int64 // wall time inside promotion climbs (lock + copy + store); a 1-in-climbSample estimate unless tracing
	FindMasterRetries int64 // double-checked locking retries

	// Deferred-promotion outcomes (WritePtrDeferred and the drains). A pin
	// (WritePtrPinned) is resolved exactly once: by a drain here, by a join
	// elision / wholesale drop / collector resolution counted in package
	// heap's globals — or not yet (live). Zone collections re-pin surviving
	// entries, so these drain counters move only at release sweeps, second
	// touches, and explicit DrainRemembered calls.
	DeferredSecondTouch   int64 // pinned pointees promoted eagerly by a second, distinct-slot touch
	DeferredRefresh       int64 // same-slot re-writes of a pinned pointee: no new entry, no copy
	DeferredDrainPromoted int64 // entries promoted (or slot-repaired) by a drain
	DeferredDrainDied     int64 // entries dead at drain: slot overwritten, or subtree dying
}

// Add accumulates o into c.
func (c *Counters) Add(o *Counters) {
	c.Allocs += o.Allocs
	c.AllocWords += o.AllocWords
	c.ReadImm += o.ReadImm
	c.ReadMutFast += o.ReadMutFast
	c.ReadMutSlow += o.ReadMutSlow
	c.WriteNonptrLocal += o.WriteNonptrLocal
	c.WriteNonptrDistant += o.WriteNonptrDistant
	c.WriteNonptrSlow += o.WriteNonptrSlow
	c.WriteInit += o.WriteInit
	c.WritePtrFast += o.WritePtrFast
	c.WritePtrAncestor += o.WritePtrAncestor
	c.WritePtrNonProm += o.WritePtrNonProm
	c.WritePtrProm += o.WritePtrProm
	c.WritePtrPinned += o.WritePtrPinned
	c.CASFast += o.CASFast
	c.CASSlow += o.CASSlow
	c.Promotions += o.Promotions
	c.PromotedObjects += o.PromotedObjects
	c.PromotedWords += o.PromotedWords
	c.PromoteClimbs += o.PromoteClimbs
	c.ClimbLockedHeaps += o.ClimbLockedHeaps
	c.PromoteNanos += o.PromoteNanos
	c.FindMasterRetries += o.FindMasterRetries
	c.DeferredSecondTouch += o.DeferredSecondTouch
	c.DeferredRefresh += o.DeferredRefresh
	c.DeferredDrainPromoted += o.DeferredDrainPromoted
	c.DeferredDrainDied += o.DeferredDrainDied
}

// PromotedBytes reports the bytes copied by promotions.
func (c *Counters) PromotedBytes() int64 { return c.PromotedWords * 8 }

// PtrWrites reports the total number of mutable pointer writes, across
// every barrier class.
func (c *Counters) PtrWrites() int64 {
	return c.WritePtrFast + c.WritePtrAncestor + c.WritePtrNonProm + c.WritePtrProm + c.WritePtrPinned
}

// BarrierFastRate reports the fraction of mutable pointer writes that
// completed without touching any heap lock (the local and ancestor fast
// paths). Zero when no pointer writes happened.
func (c *Counters) BarrierFastRate() float64 {
	total := c.PtrWrites()
	if total == 0 {
		return 0
	}
	return float64(c.WritePtrFast+c.WritePtrAncestor) / float64(total)
}

// MeanClimbDepth reports the mean number of heaps write-locked per
// promotion lock climb — the paper's lock-path length. Zero when nothing
// promoted.
func (c *Counters) MeanClimbDepth() float64 {
	if c.PromoteClimbs == 0 {
		return 0
	}
	return float64(c.ClimbLockedHeaps) / float64(c.PromoteClimbs)
}

// Representative returns the name of the dominant mutable-operation class,
// used to regenerate the paper's Figure 9. Immutable reads are pervasive in
// every benchmark (footnote 1 in the paper), so they are reported only when
// no mutation happened at all. Promoting writes are orders of magnitude
// more expensive than the optimistic classes (Figure 8) and serialize
// through heap locks, so they dominate behaviour well before they dominate
// counts: one percent of the mutable operations suffices.
func (c *Counters) Representative() string {
	type cls struct {
		name string
		n    int64
	}
	classes := []cls{
		{"local non-pointer writes", c.WriteNonptrLocal},
		{"local non-promoting writes", c.WritePtrFast},
		{"distant non-pointer writes", c.WriteNonptrDistant + c.WriteNonptrSlow + c.CASFast + c.CASSlow},
		{"distant non-promoting writes", c.WritePtrAncestor + c.WritePtrNonProm + c.WritePtrPinned},
		{"distant promoting writes", c.WritePtrProm},
	}
	var total int64
	best := cls{"immutable reads", 0}
	for _, cl := range classes {
		total += cl.n
		if cl.n > best.n {
			best = cl
		}
	}
	if total == 0 {
		return "immutable reads"
	}
	if c.WritePtrProm > 0 && c.WritePtrProm*100 >= total {
		return "distant promoting writes"
	}
	return best.name
}
