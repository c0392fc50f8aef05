package hh

import (
	"fmt"
	"math"
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

// WithoutGC sets both collection triggers to a floor no heap reaches, the
// per-heap policy's and the stop-the-world one's (math.MaxInt64), so
// nothing is ever collected (GC-overhead ablations). Options apply in
// order: a WithGCPolicy given after WithoutGC turns the per-heap trigger
// of ParMem, Seq and Manticore back on; STW's stays off.
func WithoutGC() Option {
	return func(c *rts.Config) {
		c.Policy = gc.Policy{MinWords: math.MaxInt64}
		c.STWFloorBytes = math.MaxInt64
	}
}

// WithInvariantChecks makes every ParMem Task.InitPtr check that the
// stored value sits in the object's heap or an ancestor of it; a store
// that would entangle the hierarchy panics with a *core.EntanglementError.
// An object born in an ancestor by Task.AllocIn is the easy way to get
// this wrong. No effect in other modes. A debug knob for tests: the check
// is one heap lookup and a depth compare per initializing pointer write.
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
