// Package trace is the runtime's flight recorder: always-on, bounded,
// lock-free event rings that can be snapshotted at any moment and exported
// as Chrome trace-event JSON for Perfetto.
//
// The design goals, in order:
//
//  1. Disabled cost is one predicted-false branch per emit site
//     (Enabled() is a single atomic.Bool load).
//  2. Enabled cost is a handful of atomic stores into a per-worker ring —
//     no locks, no allocation, no channel sends on any emit path.
//  3. A snapshot is a consistent cut: it captures the cut time first, then
//     drains every ring and discards events published after the cut, so a
//     span can never end before it begins within one snapshot.
//
// Events are fixed-size (five 64-bit words, see ring.go). Spans are paired
// by an explicit span ID drawn from a global counter — Begin returns the ID,
// End carries it back — so overlapping spans on one track (work stealing,
// client goroutines sharing the off-worker track) pair correctly no matter
// how they interleave. The exporter turns matched pairs into Chrome "X"
// complete events and unmatched Begins into spans closed at the cut.
package trace

import (
	"sync/atomic"
	"time"
)

// Type identifies what an event describes. Exported traces (and
// scripts/checktrace) carry the names in evInfo, not these values.
type Type uint8

const (
	EvNone       Type = iota
	EvZone            // zone collection (span): aux = kind, beg arg = base heap ID, end arg = words copied
	EvClimb           // promotion lock climb. Complete span (climbs >= 1us): arg = locked depth, span word = duration. Instant (coalesced sub-us climbs): aux = count<<8 | max depth, arg = total nanos
	EvSession         // session lifetime (span): arg = session ID, end aux = outcome (0 ok, 1 failed)
	EvSubmit          // session submitted (instant): arg = session ID
	EvSTW             // stop-the-world collection (span): end arg = words copied
	EvPoolRefill      // worker cache miss served by the global pool (instant): aux = size class
	EvShed            // request shed (instant): aux = shed reason, arg = queue depth
	EvDrain           // drain phase (span): aux = drain scope
	EvQueue           // request queued behind admission (span): end arg = session ID
	EvRequest         // client-side request (span): arg = request seq, end aux = outcome
	EvTxn             // transaction commit window (span): beg arg = txn seed, end aux = outcome (0 commit, 1 abort), end arg = staged words
	evCount
)

// Shed reasons carried in EvShed aux. Order matches netserve's shed replies.
const (
	ShedSaturated uint32 = iota
	ShedTenant
	ShedPressure
	ShedDraining
)

// Drain scopes carried in EvDrain aux.
const (
	DrainServer   uint32 = iota // serve.Server.Drain: quiesce in-flight + queued work
	DrainFrontend               // netserve.Frontend.Drain: listener + server + connection flush
)

// DefaultBufEvents is the per-ring capacity used when a caller enables
// tracing without choosing a size (hh.WithTrace(0), hhserved default).
// At 40 B/event this is ~2.6 MB per ring.
const DefaultBufEvents = 1 << 16

// Phase distinguishes instants from span boundaries, packed next to the
// Type in the meta word.
type Phase uint8

const (
	PhaseInstant Phase = iota
	PhaseBegin
	PhaseEnd
	// PhaseComplete is a self-contained span published once, at its end,
	// with the duration in the span word. Used by emit sites too hot for a
	// Begin/End pair (promotion climbs): one ring publish, and the caller
	// supplies timestamps it already took for its own accounting, so the
	// trace adds no clock reads. A snapshot cannot see such a span while it
	// is open — acceptable for climbs, which run a few microseconds at most.
	PhaseComplete
)

// Recorder owns one ring per worker track plus a shared ring for off-worker
// emitters (track -1: client goroutines, the serve admission path). At most
// one Recorder is installed process-wide, mirroring the one-active-Runtime
// rule.
type Recorder struct {
	start  time.Time // wall-clock epoch; event timestamps are nanos since this
	tracks int
	rings  []*ring // len tracks+1; rings[tracks] is the shared off-worker ring
}

var (
	enabled atomic.Bool
	active  atomic.Pointer[Recorder]
	spanSeq atomic.Uint64
)

// Enabled reports whether a recorder is installed. This is THE fast path:
// every emit site is `if trace.Enabled() { ... }` and the disabled cost is
// this one atomic load and a predicted-false branch.
func Enabled() bool {
	return enabled.Load()
}

// Start installs a recorder with one ring of perRing events per track
// (worker) plus a shared off-worker ring. It returns false if a recorder is
// already installed — the first owner wins and keeps it; callers that get
// false must not Stop.
func Start(tracks, perRing int) bool {
	if tracks < 1 {
		tracks = 1
	}
	if perRing <= 0 {
		perRing = DefaultBufEvents
	}
	r := &Recorder{start: time.Now(), tracks: tracks}
	r.rings = make([]*ring, tracks+1)
	for i := range r.rings {
		r.rings[i] = newRing(perRing)
	}
	if !active.CompareAndSwap(nil, r) {
		return false
	}
	enabled.Store(true)
	return true
}

// Stop uninstalls the recorder. Emits racing with Stop are dropped (they see
// a nil recorder); none block or crash.
func Stop() {
	enabled.Store(false)
	active.Store(nil)
}

// Emit records an instant event on track (worker ID, or <0 for the shared
// off-worker ring). No-op when disabled; callers still guard with Enabled()
// so the disabled path never loads the recorder pointer.
func Emit(track int, t Type, aux uint32, arg uint64) {
	emit(track, t, PhaseInstant, aux, 0, arg)
}

// Begin opens a span and returns its ID, or 0 when tracing is disabled.
// Pass the ID to End; a zero ID makes End a no-op, so call sites can do
//
//	span := trace.Begin(track, trace.EvZone, aux, arg) // 0 when disabled
//	...
//	trace.End(track, trace.EvZone, span, aux2, arg2)
//
// without re-checking Enabled (though checking avoids the argument setup).
func Begin(track int, t Type, aux uint32, arg uint64) uint64 {
	if !enabled.Load() {
		return 0
	}
	id := spanSeq.Add(1)
	emit(track, t, PhaseBegin, aux, id, arg)
	return id
}

// End closes the span opened by Begin. span==0 (disabled at Begin) is a
// no-op; if tracing stopped in between, the event is silently dropped.
func End(track int, t Type, span uint64, aux uint32, arg uint64) {
	if span == 0 {
		return
	}
	emit(track, t, PhaseEnd, aux, span, arg)
}

// Complete records a whole span in one event: it started at begin, ran for
// dur, and is published now (at its end). begin and dur come from the
// caller's own timing, so an emit site that already measures itself (the
// promotion climb, for PromoteNanos) pays only the ring publish. No-op when
// disabled.
func Complete(track int, t Type, begin time.Time, dur time.Duration, aux uint32, arg uint64) {
	r := active.Load()
	if r == nil {
		return
	}
	ts := begin.Sub(r.start)
	if ts < 0 {
		return // began before the recorder started: outside its epoch
	}
	rg := r.rings[r.tracks]
	if track >= 0 {
		rg = r.rings[track%r.tracks]
	}
	meta := uint64(t)<<56 | uint64(PhaseComplete)<<48 | uint64(uint16(track+1))<<32 | uint64(aux)
	rg.publish(uint64(ts), meta, uint64(dur), arg)
}

// emit packs and publishes one event:
//
//	w0 = nanos since recorder start
//	w1 = Type<<56 | phase<<48 | uint16(track+1)<<32 | aux
//	w2 = span ID (0 for instants)
//	w3 = arg
func emit(track int, t Type, ph Phase, aux uint32, span, arg uint64) {
	r := active.Load()
	if r == nil {
		return
	}
	ts := uint64(time.Since(r.start))
	rg := r.rings[r.tracks] // shared off-worker ring
	if track >= 0 {
		rg = r.rings[track%r.tracks]
	}
	meta := uint64(t)<<56 | uint64(ph)<<48 | uint64(uint16(track+1))<<32 | uint64(aux)
	rg.publish(ts, meta, span, arg)
}

func (e rawEvent) nanos() int64 { return int64(e.w[0]) }
func (e rawEvent) typ() Type    { return Type(e.w[1] >> 56) }
func (e rawEvent) phase() Phase { return Phase(uint8(e.w[1] >> 48)) }
func (e rawEvent) track() int   { return int(uint16(e.w[1]>>32)) - 1 }
func (e rawEvent) aux() uint32  { return uint32(e.w[1]) }
func (e rawEvent) span() uint64 { return e.w[2] }
func (e rawEvent) arg() uint64  { return e.w[3] }
