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
	Procs int // worker count; in Seq, the number of sessions that run at once

	// Policy triggers collection of a task-local (ParMem), single (Seq), or
	// worker-local (Manticore) heap. In ParMem and Seq a heap of an
	// unpinned session is left alone below gc.DefaultPolicy().MinWords
	// whatever Policy says: release frees it wholesale (Task.shouldCollect).
	Policy gc.Policy

	// STWFloorBytes and STWRatio drive the stop-the-world trigger: collect
	// when global occupancy exceeds max(floor, ratio * live-after-last-GC).
	STWFloorBytes int64
	STWRatio      float64

	// CheckInvariants makes every ParMem WriteInitPtr check that the stored
	// value lives in the object's heap or an ancestor, panicking on a store
	// that would entangle the hierarchy. It has no effect in other modes.
	// Debug knob for tests: the check is one heap lookup and a depth compare
	// per initializing pointer write.
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
