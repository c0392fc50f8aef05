package serve

import "time"

// ServeStats is a snapshot of a Server's lifetime serving statistics.
type ServeStats struct {
	Submitted int64 // requests accepted (running or queued)
	Rejected  int64 // requests refused with ErrSaturated
	Completed int64 // sessions finished without failure
	Failed    int64 // sessions aborted (budget, panic)

	PeakInFlight int // peak simultaneously running sessions
	PeakQueued   int // peak backpressure-queue occupancy

	// Elapsed spans the first accepted Submit to the latest completion;
	// Throughput is completions (successful or failed) per second of it.
	Elapsed    time.Duration
	Throughput float64

	// Latency is measured Submit-to-completion (queue wait included).
	// LatencyCount/LatencySum are the summary's sample count and total —
	// the _count/_sum pair Prometheus needs for rate()-based averages.
	LatencyMean  time.Duration
	LatencyP50   time.Duration
	LatencyP90   time.Duration
	LatencyP99   time.Duration
	LatencyP999  time.Duration
	LatencyMax   time.Duration
	LatencyCount int64
	LatencySum   time.Duration

	// Latency attribution: where completed requests' wall time went, summed
	// across requests. QueueWaitTotal is admission-to-launch; GCTotal and
	// BarrierTotal are the time the request's tasks spent inside collections
	// and promotion lock climbs; MutatorTotal is the residual. For a
	// parallel session the GC/barrier components of different tasks can
	// overlap the same wall-clock interval, so the four totals are an
	// attribution of work, not a disjoint partition of LatencySum (the
	// mutator residual is clamped at zero per request).
	QueueWaitTotal time.Duration
	GCTotal        time.Duration
	BarrierTotal   time.Duration
	MutatorTotal   time.Duration

	// WholesaleBytes counts chunk bytes released in bulk when sessions
	// completed; MergedBytes counts what pinned sessions spliced into the
	// super-root instead.
	WholesaleBytes int64
	MergedBytes    int64
}

// Finished returns the number of requests that ran to an outcome,
// successful or failed — the denominator for per-request rates.
func (s ServeStats) Finished() int64 { return s.Completed + s.Failed }

// Breakdown returns the queue/GC/barrier/mutator attribution as fractions
// of the total attributed time (each in [0,1], summing to 1). All zeros
// when nothing completed.
func (s ServeStats) Breakdown() (queue, gc, barrier, mutator float64) {
	total := s.QueueWaitTotal + s.GCTotal + s.BarrierTotal + s.MutatorTotal
	if total <= 0 {
		return 0, 0, 0, 0
	}
	d := float64(total)
	return float64(s.QueueWaitTotal) / d, float64(s.GCTotal) / d,
		float64(s.BarrierTotal) / d, float64(s.MutatorTotal) / d
}
