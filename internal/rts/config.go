package rts

import "repro/internal/gc"

// Mode selects which of the paper's runtime systems to run.
type Mode int

// The four systems of the evaluation (§4).
const (
	ParMem    Mode = iota // hierarchical heaps + promotion (mlton-parmem)
	STW                   // parallel alloc, stop-the-world sequential GC (mlton-spoonhower)
	Seq                   // sequential baseline (mlton)
	Manticore             // DLG-style local heaps + promote-on-communication (manticore)
)

func (m Mode) String() string {
	switch m {
	case ParMem:
		return "mlton-parmem"
	case STW:
		return "mlton-spoonhower"
	case Seq:
		return "mlton"
	case Manticore:
		return "manticore"
	default:
		return "unknown-mode"
	}
}

// Config parameterizes a Runtime.
type Config struct {
	Mode  Mode
	Procs int // worker count; ignored in Seq mode

	// Policy triggers collection of a task-local (ParMem), single (Seq), or
	// worker-local (Manticore) heap. In ParMem and Seq a heap of an
	// unpinned session is left alone below gc.DefaultPolicy().MinWords
	// whatever Policy says: release frees it wholesale (Task.shouldCollect).
	Policy gc.Policy

	// MaxConcurrentZones caps how many hierarchical zone collections may be
	// in flight at once (ParMem leaf/join zones, Manticore local heaps).
	// 0 means one per processor. Setting 1 serializes all collections — the
	// ablation that measures what concurrent collection buys.
	MaxConcurrentZones int

	// STWFloorBytes and STWRatio drive the stop-the-world trigger: collect
	// when global occupancy exceeds max(floor, ratio * live-after-last-GC).
	STWFloorBytes int64
	STWRatio      float64

	// DisableGC turns collection off entirely (for GC-overhead ablations).
	DisableGC bool

	// NoBarrierFastPath forces every pointer write through the master-copy
	// lookup under the heap read lock — the paper-faithful baseline, with
	// neither the local-update fast path (§3.3) nor the optimistic
	// ancestor-pointee path. The ablation that measures what the
	// write-barrier fast paths buy (hhload -nofastpath,
	// BenchmarkAblationWritePtrFastPath).
	NoBarrierFastPath bool

	// DeferredPromotion switches the ParMem write barrier from the paper's
	// eager transitive promotion to lazy pin-and-remember
	// (core.WritePtrDeferred): an ancestor→descendant pointer write records
	// a remembered-set entry on the pointee's heap instead of copying its
	// subtree; the pointee is promoted on a second cross-heap touch or at
	// the next zone collection of its heap, and dies uncopied if its
	// subtree is reclaimed wholesale first. Ignored outside ParMem mode
	// (Seq never promotes; Manticore's promote-on-communication and STW's
	// barrier-free writes are different designs).
	DeferredPromotion bool

	// CheckInvariants runs the remembered-set invariant walker
	// (heap.CheckInvariants) after every zone collection and at session
	// reclaim, panicking on the first violation, and in ParMem checks that
	// every WriteInitPtr stores a value from the object's heap or an
	// ancestor. Debug knob for tests; the walk is O(remembered entries)
	// per collection.
	CheckInvariants bool

	// TraceBufEvents enables the flight recorder (internal/trace) with one
	// ring of this many events per worker. 0 leaves tracing off: every emit
	// site then costs a single predicted-false branch. The recorder is
	// process-global like the memory accounting; if another owner (a -trace
	// flag in a driving command) already started it, the runtime leaves it
	// in place and emits into it.
	TraceBufEvents int
}

// DefaultConfig returns a workable configuration for the given mode.
func DefaultConfig(mode Mode, procs int) Config {
	return Config{
		Mode:          mode,
		Procs:         procs,
		Policy:        gc.DefaultPolicy(),
		STWFloorBytes: 8 << 20,
		STWRatio:      2.0,
	}
}
