package hh

import (
	"fmt"
	"runtime"

	"repro/internal/gc"
	"repro/internal/rts"
	"repro/internal/trace"
)

// Mode selects which of the paper's four runtime systems to run.
type Mode = rts.Mode

// The four systems of the paper's evaluation (§4).
const (
	// ParMem is the paper's contribution: a heap per fork-join task,
	// promotion on entangling writes, concurrent zone collection.
	ParMem = rts.ParMem
	// STW is the Spoonhower-style baseline: parallel allocation into flat
	// worker heaps, sequential stop-the-world collection.
	STW = rts.STW
	// Seq is the sequential baseline.
	Seq = rts.Seq
	// Manticore models DLG-style local heaps under a shared global heap
	// with promotion on cross-worker communication.
	Manticore = rts.Manticore
)

// Modes lists every mode, in the evaluation's order. Examples and tests
// range over it to cross-validate the systems.
var Modes = []Mode{ParMem, STW, Seq, Manticore}

// ParseMode resolves a mode name as printed by Mode.String
// ("mlton-parmem", "mlton-spoonhower", "mlton", "manticore"), or the
// short aliases "parmem", "stw", "seq", "manticore".
func ParseMode(s string) (Mode, error) {
	switch s {
	case "parmem", ParMem.String():
		return ParMem, nil
	case "stw", STW.String():
		return STW, nil
	case "seq", Seq.String():
		return Seq, nil
	case "manticore", Manticore.String():
		return Manticore, nil
	}
	return ParMem, fmt.Errorf("hh: unknown mode %q (want parmem|stw|seq|manticore)", s)
}

// Option configures a Runtime under construction.
type Option func(*rts.Config)

// WithMode selects the runtime system. Default: ParMem.
func WithMode(m Mode) Option {
	return func(c *rts.Config) { c.Mode = m }
}

// WithProcs sets the worker count (ignored in Seq mode). Default: the
// machine's CPU count.
func WithProcs(n int) Option {
	return func(c *rts.Config) { c.Procs = n }
}

// WithGCPolicy sets the per-heap collection trigger: collect once a heap
// holds at least minWords and has grown by ratio over its last live size.
// In ParMem and Seq a heap of an unpinned session is not collected below
// the default policy's 1 MiB floor (128 Ki words) whatever minWords says,
// because the session's release frees it wholesale; above that floor, and
// in pinned sessions (Run among them), this policy applies as given.
func WithGCPolicy(minWords int64, ratio float64) Option {
	return func(c *rts.Config) { c.Policy = gc.Policy{MinWords: minWords, Ratio: ratio} }
}

// WithMaxConcurrentZones caps how many zone collections may run at once
// in the hierarchical modes. 0 means one per processor; 1 serializes all
// collections (the ablation that measures what concurrency buys).
func WithMaxConcurrentZones(n int) Option {
	return func(c *rts.Config) { c.MaxConcurrentZones = n }
}

// WithSTWTrigger sets the stop-the-world trigger (STW mode): collect when
// global occupancy exceeds max(floorBytes, ratio × live-after-last-GC).
func WithSTWTrigger(floorBytes int64, ratio float64) Option {
	return func(c *rts.Config) {
		c.STWFloorBytes = floorBytes
		c.STWRatio = ratio
	}
}

// WithoutGC disables collection entirely (GC-overhead ablations).
func WithoutGC() Option {
	return func(c *rts.Config) { c.DisableGC = true }
}

// WithoutBarrierFastPath forces every mutable pointer write through the
// master-copy lookup under the heap read lock — the paper-faithful
// baseline with neither the local-update fast path (§3.3) nor the
// optimistic ancestor-pointee path. The ablation that measures what the
// write-barrier fast paths buy (hhload -nofastpath,
// BenchmarkAblationWritePtrFastPath).
func WithoutBarrierFastPath() Option {
	return func(c *rts.Config) { c.NoBarrierFastPath = true }
}

// WithDeferredPromotion switches the ParMem write barrier from the
// paper's eager transitive promotion to lazy pin-and-remember: an
// ancestor→descendant pointer write stores the down-pointer as-is and
// records a remembered-set entry on the pointee's heap instead of copying
// its subtree. The pointee is promoted only on a second cross-heap touch,
// or when its subtree's release finds the down-pointer slot surviving;
// zone collections evacuate pinned objects within their own heap and
// re-pin, so objects that die in their leaf heap are reclaimed wholesale
// without ever being copied. Stats().Ops
// gains WritePtrPinned and the Deferred* outcome counters, and
// Stats().Deferred summarizes the pin lifecycle (see TUNING.md for when
// it wins). Ignored outside ParMem mode.
func WithDeferredPromotion() Option {
	return func(c *rts.Config) { c.DeferredPromotion = true }
}

// WithInvariantChecks runs the remembered-set invariant walker
// (heap.CheckInvariants) after every zone collection and at session
// reclaim, panicking on the first violation: every remembered entry's
// pinned chunk must still be registered and owned by the remembering
// heap, every slot must live in a strict-ancestor heap, and the pin index
// must balance the entry list. In ParMem it also checks every
// Task.InitPtr: the stored value must sit in the object's heap or an
// ancestor of it, or the store panics with a *core.EntanglementError. A
// debug knob for tests — the walk is O(remembered entries) per collection.
func WithInvariantChecks() Option {
	return func(c *rts.Config) { c.CheckInvariants = true }
}

// WithTrace enables the runtime's flight recorder: per-worker lock-free
// rings of bufEvents fixed-size events each (0 selects the default, 65536 ≈
// 2.6 MB per worker) recording zone collections, promotion climbs, session
// lifecycles, STW pauses, pool traffic, and sheds. The rings are bounded
// and overwrite oldest-first, so tracing is safe to leave on in production;
// snapshot them with hhserved's /debug/trace endpoint or the -trace flag of
// hhload/hhbench/hhshoot, and load the JSON in Perfetto. Disabled (the
// default), every emit site costs one predicted-false branch.
func WithTrace(bufEvents int) Option {
	return func(c *rts.Config) {
		if bufEvents <= 0 {
			bufEvents = trace.DefaultBufEvents
		}
		c.TraceBufEvents = bufEvents
	}
}

// newConfig applies opts over the defaults.
func newConfig(opts []Option) rts.Config {
	cfg := rts.DefaultConfig(ParMem, runtime.NumCPU())
	for _, opt := range opts {
		opt(&cfg)
	}
	return cfg
}
