package main

import (
	"fmt"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"time"

	"repro/hh"
)

// An untraced pass sets the system up setups times (setup_s is their median)
// and then runs reps short back-to-back repetitions of one fixed request
// stream. Each leg of a traced pass runs tracedReps of them.
const (
	setups     = 3
	reps       = 15
	tracedReps = 5
)

// calibratedRate is each workload's request rate on the seed commit, in
// requests (cycles for forkjoin-paper) per second, rounded. It only turns
// -seconds into a FIXED request count per repetition, so counters and
// checksums repeat exactly; it is frozen here and never measured at run
// time (README.md, "Calibration").
var calibratedRate = map[string]float64{
	"serve-mix":      2200,
	"net-small":      netSmallRate,
	"forkjoin-paper": 3.2,
	"churn-mix":      4400,
}

// warmSeconds sizes the warm-up that is part of every set-up.
const warmSeconds = 1.0

// sizing turns a run length into the fixed counts of one pass.
func sizing(workload string, seconds float64) (warm, perRep int) {
	rate := calibratedRate[workload]
	perRep = max(1, int(math.Round(seconds*rate/reps)))
	warm = max(1, int(math.Round(min(seconds/setups, warmSeconds)*rate)))
	return warm, perRep
}

func newLoop(o loopOpts) (loop, error) {
	switch o.workload {
	case "serve-mix", "churn-mix":
		return newClosedLoop(o)
	case "net-small":
		return newOpenLoop(o, netSmallRate), nil
	case "forkjoin-paper":
		return newBatchLoop(o)
	}
	return nil, fmt.Errorf("benchmark: unknown workload %q", o.workload)
}

// passResult is one pass over one workload.
type passResult struct {
	Workload  string               `json:"workload"`
	Attempted int                  `json:"attempted"`
	Failed    int                  `json:"failed"`
	Refused   int                  `json:"refused"` // the part of failed the server refused under load
	Gate      []string             `json:"gate_violations,omitempty"`
	checksum  uint64               // order-independent sum of every correct reply: equal between runs of one seed and length
	WallS     float64              `json:"wall_s"`
	Paced     bool                 `json:"paced"` // an open loop at a fixed rate, not one that keeps every worker busy
	Samples   map[string][]float64 `json:"-"`     // end-to-end metric -> one value per repetition
	Layer     map[string]float64   `json:"-"`     // per-layer metric -> value
}

// value is the pass's figure for one end-to-end metric, from its
// per-repetition samples. setup_s is the median set-up.
//
// A loop that keeps every worker busy (closed, batch) reports the boundary
// of the better quartile: the 75th percentile when higher is better, the
// 25th when lower is. What disturbs such a repetition on a shared host — a
// neighbour taking the core, the cache or the memory bus for a few seconds
// — only ever slows it, so the undisturbed repetitions are the ones that
// measure the program, and they agree with each other far better than the
// median does: over ten runs on the seed commit the median's quartiles
// were 13 % (serve-mix) and 18 % (churn-mix) of it apart, this boundary's
// 4 % (README.md, "Steadiness"). A quartile boundary rather than the best
// repetition, so that one lucky second decides nothing.
//
// A paced loop reports the interquartile mean. At a fixed offered rate a
// slower host does not mean a slower reply: workers that idle less sleep
// less deeply and wake sooner, so net-small's repetitions fall into two
// clusters (p50 ≈ 0.27 and ≈ 0.37 ms) in a proportion that drifts, and a
// quartile boundary or a median jumps from one cluster to the other.
func (p passResult) value(spec metricSpec) float64 {
	return p.aggregate(spec, p.Samples[spec.Name])
}

func (p passResult) aggregate(spec metricSpec, samples []float64) float64 {
	s := sortedCopy(samples)
	switch {
	case spec.Name == "setup_s":
		return median(s)
	case p.Paced:
		return interquartileMean(s)
	case spec.Better == higher:
		return quantile(s, 0.75)
	}
	return quantile(s, 0.25)
}

// unsettled says how far a value can be trusted: the same aggregate taken
// over three interleaved thirds of the repetitions (every third one,
// starting at the first, second and third), as (max − min) ÷ median of the
// three. For setup_s, whose samples are three already, it is their spread.
func (p passResult) unsettled(spec metricSpec) float64 {
	samples := p.Samples[spec.Name]
	if len(samples) < 2*setups {
		return spread(samples)
	}
	var thirds []float64
	for g := 0; g < 3; g++ {
		var part []float64
		for i := g; i < len(samples); i += 3 {
			part = append(part, samples[i])
		}
		thirds = append(thirds, p.aggregate(spec, part))
	}
	return spread(thirds)
}

// correct is the run's verdict: every reply matched the oracle and every
// gate held.
func (p passResult) correct() bool { return p.Failed == 0 && len(p.Gate) == 0 }

// failedInAll is the failure count the verdict rests on: a leak or balance
// violation fails the whole workload, not one request.
func (p passResult) failedInAll() int {
	if len(p.Gate) > 0 {
		return p.Attempted
	}
	return p.Failed
}

func (p passResult) failShare() float64 { return ratio(float64(p.failedInAll()), float64(p.Attempted)) }

// windowSize is how many consecutive requests one latency window holds:
// the fewest that still leave the 99th percentile ten samples beyond it.
const windowSize = 1000

// windowCount is how many whole windows n requests make (at least one).
func windowCount(n int) int { return max(1, n/windowSize) }

// windowedQuantile cuts the stream-ordered latencies into windows of
// consecutive requests, takes the q-quantile of the correct requests in
// each, and returns the interquartile mean of the windows: the mean of
// what is left after the lowest and the highest quarter are dropped. Both
// halves of that choice were forced by a workload. A tail percentile can
// sit in a gap of the latency distribution (churn-mix's 99th lies between
// the requests a collection delayed and the ones it did not), so a
// whole-repetition quantile, or a median of windows, flips between the two
// sides of the gap from run to run, while a mean moves smoothly with the
// share of slow windows. And a stall of tens of milliseconds (a neighbour
// on the host) backs up net-small's open loop for a few windows, which a
// plain mean would carry into the result and the trimming drops.
func windowedQuantile(latMs []float64, q float64) float64 {
	k := windowCount(len(latMs))
	per := make([]float64, 0, k)
	for w := 0; w < k; w++ {
		var ok []float64
		for _, l := range latMs[w*len(latMs)/k : (w+1)*len(latMs)/k] {
			if l >= 0 {
				ok = append(ok, l)
			}
		}
		per = append(per, quantile(sortedCopy(ok), q))
	}
	return interquartileMean(per)
}

// windowTail is the tail quantile n requests support, window by window.
func windowTail(n int) float64 { return tailQuantile(n / windowCount(n)) }

// endToEndOf folds one repetition into the end-to-end metrics.
func endToEndOf(out repOut) map[string]float64 {
	correct, inLimit := 0, 0
	for _, l := range out.latMs {
		if l < 0 {
			continue
		}
		correct++
		if out.limitMs == 0 || l <= out.limitMs {
			inLimit++
		}
	}
	var kindMedians []float64
	for _, ls := range out.byKind {
		kindMedians = append(kindMedians, median(ls))
	}
	n := len(out.latMs)
	secs := out.wall.Seconds()
	return map[string]float64{
		"throughput_rps":      ratio(float64(correct), secs),
		"latency_p50_ms":      windowedQuantile(out.latMs, 0.5),
		"latency_p99_ms":      windowedQuantile(out.latMs, windowTail(n)),
		"goodput_rps":         ratio(float64(inLimit), secs),
		"cpu_ms_per_req":      ratio(ms(out.cpu), float64(n)),
		"run_time_geomean_ms": geomean(kindMedians),
	}
}

// runReps runs k repetitions on a set-up loop, adds their counts to res and
// their end-to-end values to res.Samples, and returns what each measured.
func runReps(l loop, k int, res *passResult) []repOut {
	outs := make([]repOut, k)
	for i := range outs {
		out := l.rep()
		res.Attempted += len(out.latMs)
		res.Failed += out.failed
		res.Refused += out.refused
		res.Paced = out.paced
		res.checksum += out.checksum
		for name, v := range endToEndOf(out) {
			res.Samples[name] = append(res.Samples[name], v)
		}
		outs[i] = out
	}
	return outs
}

// runUntraced is the end-to-end pass: setups set-ups from a cold chunk pool
// (the last one is kept), then reps repetitions of the same fixed request
// stream on that warmed system, tracing off.
func runUntraced(workload string, seed uint64, seconds float64) (passResult, error) {
	start := time.Now()
	warm, perRep := sizing(workload, seconds)
	o := loopOpts{workload: workload, mode: hh.ParMem, procs: benchProcs(), seed: seed, warm: warm, perRep: perRep}
	res := passResult{Workload: workload, Samples: map[string][]float64{}}

	var l loop
	for i := 0; i < setups; i++ {
		var err error
		if l, err = newLoop(o); err != nil {
			return res, err
		}
		t0 := time.Now()
		if err := l.setup(); err != nil {
			return res, err
		}
		res.Samples["setup_s"] = append(res.Samples["setup_s"], time.Since(t0).Seconds())
		if i < setups-1 {
			res.Gate = append(res.Gate, l.teardown()...)
		}
	}
	runReps(l, reps, &res)
	res.Gate = append(res.Gate, l.teardown()...)
	res.WallS = time.Since(start).Seconds()
	return res, nil
}

// sideReps sets a loop up once, runs tracedReps repetitions and tears it
// down: the traced pass's unit, for its baseline, its traced leg and each
// reference leg.
func sideReps(o loopOpts) (passResult, []repOut, error) {
	res := passResult{Workload: o.workload, Samples: map[string][]float64{}}
	l, err := newLoop(o)
	if err != nil {
		return res, nil, err
	}
	if err := l.setup(); err != nil {
		return res, nil, err
	}
	outs := runReps(l, tracedReps, &res)
	res.Gate = l.teardown()
	return res, outs, nil
}

// mergeReps folds the repetitions of one traced leg into one: samples
// concatenate, counters add, maxima keep the larger side.
func mergeReps(outs []repOut) repOut {
	m := outs[0]
	for _, o := range outs[1:] {
		m.wall += o.wall
		m.cpu += o.cpu
		m.bodyWall += o.bodyWall
		m.latMs = append(m.latMs, o.latMs...)
		m.aborts += o.aborts
		m.rollback += o.rollback
		m.lateSend += o.lateSend
		for _, kv := range []struct{ dst, src map[string][]float64 }{
			{m.byKind, o.byKind}, {m.gcShare, o.gcShare}, {m.spans, o.spans},
		} {
			for name, v := range kv.src {
				kv.dst[name] = append(kv.dst[name], v...)
			}
		}
		sumStats(&m.stats.tot, o.stats.tot)
		peakIn, peakQ := max(m.stats.srv.PeakInFlight, o.stats.srv.PeakInFlight), max(m.stats.srv.PeakQueued, o.stats.srv.PeakQueued)
		accumulate(reflect.ValueOf(&m.stats.srv).Elem(), reflect.ValueOf(&o.stats.srv).Elem(), +1)
		m.stats.srv.PeakInFlight, m.stats.srv.PeakQueued = peakIn, peakQ
		m.stats.sheds += o.stats.sheds
		m.stats.protoErrs += o.stats.protoErrs
	}
	return m
}

// runTraced is the per-layer pass: tracedReps untraced repetitions as the
// baseline of trace.overhead_share, as many with the recorder armed and the
// harness's spans stamped, and the reference legs. probes are the isolated
// per-call costs the budget charges counts at (runProbes).
func runTraced(workload string, seed uint64, seconds float64, probes map[string]float64, outDir string) (passResult, error) {
	start := time.Now()
	warm, perRep := sizing(workload, seconds)
	o := loopOpts{workload: workload, mode: hh.ParMem, procs: benchProcs(), seed: seed, warm: warm, perRep: perRep}
	throughput := e2eSpec("throughput_rps")

	base, _, err := sideReps(o)
	if err != nil {
		return base, err
	}
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return base, fmt.Errorf("benchmark: trace directory: %w", err)
	}
	o.traced, o.traceOut = true, filepath.Join(outDir, workload+".trace.json")
	res, outs, err := sideReps(o)
	if err != nil {
		return res, err
	}
	refs, failed, err := referenceLegs(o, base.value(throughput))
	if err != nil {
		return res, err
	}

	res.Layer = layerMetrics(mergeReps(outs), probes)
	res.Layer["trace.overhead_share"] = 1 - ratio(res.value(throughput), base.value(throughput))
	for name, v := range probes {
		res.Layer[name] = v
	}
	for name, v := range refs {
		res.Layer[name] = v
	}
	res.Attempted += base.Attempted
	res.Failed += base.Failed + failed
	res.Refused += base.Refused
	res.checksum += base.checksum
	res.Gate = append(base.Gate, res.Gate...)
	res.Layer["fail_share"] = res.failShare()
	res.WallS = time.Since(start).Seconds()
	return res, nil
}

// referenceLegs replays the traced pass's repetitions in the sequential (mlton)
// and stop-the-world (mlton-spoonhower) modes on the two workloads the
// ROADMAP compares them on. Context only: never gated.
func referenceLegs(o loopOpts, parmemRPS float64) (map[string]float64, int, error) {
	refs := map[string]float64{}
	if o.workload != "serve-mix" && o.workload != "net-small" {
		return refs, 0, nil
	}
	o.traced, o.traceOut = false, ""
	failed := 0
	for _, leg := range []struct {
		mode hh.Mode
		key  string
	}{{hh.Seq, "mlton"}, {hh.STW, "stw"}} {
		o.mode = leg.mode
		// The leak gate is parmem's: the flat modes keep session chunks in
		// worker heaps until Close, so their occupancy gate is not read.
		leg2, _, err := sideReps(o)
		if err != nil {
			return nil, 0, fmt.Errorf("%s leg: %w", leg.key, err)
		}
		failed += leg2.Failed
		rps := leg2.value(e2eSpec("throughput_rps"))
		refs["ref."+leg.key+".throughput_rps"] = rps
		if leg.mode == hh.Seq {
			refs["ref.mlton.latency_p50_ms"] = leg2.value(e2eSpec("latency_p50_ms"))
			refs["ref.parmem_over_mlton"] = ratio(parmemRPS, rps)
		}
	}
	return refs, failed, nil
}

// layerMetrics derives the per-layer counts, spans and budget from the
// traced repetitions, merged.
func layerMetrics(tr repOut, probes map[string]float64) map[string]float64 {
	m := map[string]float64{}
	for _, spec := range perLayer {
		m[spec.Name] = 0 // every metric is printed for every workload; 0 where the layer is bypassed
	}
	reqs := float64(len(tr.latMs))
	d, ops, srv := tr.stats.tot, tr.stats.tot.Ops, tr.stats.srv
	per := func(v int64) float64 { return ratio(float64(v), reqs) }

	m["latency_tail_percentile"] = 100 * windowTail(len(tr.latMs))
	m["harness.late_send_share"] = ratio(float64(tr.lateSend), reqs)

	m["core.allocs_per_req"] = per(ops.Allocs)
	m["core.ptr_writes_per_req"] = per(ops.PtrWrites())
	m["core.barrier_fast_share"] = ops.BarrierFastRate()
	m["core.promoting_write_share"] = ratio(float64(ops.WritePtrProm), float64(ops.PtrWrites()))
	m["core.promoted_bytes_per_req"] = per(ops.PromotedBytes())
	m["core.climb_lock_depth"] = ops.MeanClimbDepth()
	m["core.promote_us_per_req"] = per(ops.PromoteNanos) / 1e3
	m["core.read_mut_slow_share"] = ratio(float64(ops.ReadMutSlow), float64(ops.ReadMutFast+ops.ReadMutSlow))
	m["core.findmaster_retries_per_req"] = per(ops.FindMasterRetries)

	m["gc.zones_per_req"] = per(d.Zones.Zones)
	m["gc.us_per_req"] = per(d.GCNanos) / 1e3
	m["gc.words_copied_per_req"] = per(d.GC.WordsCopied)
	m["gc.reclaimed_share"] = ratio(float64(d.GC.WordsReclaimed), float64(d.GC.WordsReclaimed+d.GC.WordsCopied))
	m["gc.max_concurrent_sessions"] = float64(d.Zones.MaxConcurrentSessions)
	m["gc.overlap_share"] = ratio(float64(d.Zones.OverlapNanos), float64(d.Zones.ZoneNanos))

	m["mem.chunk_acquires_per_req"] = per(d.Alloc.Acquires)
	m["mem.cache_hit_share"] = d.Alloc.CacheHitRate()
	m["mem.dirops_per_req"] = per(d.Alloc.DirIDOps)
	m["mem.zeroed_words_per_req"] = per(d.Alloc.ZeroedWords)
	m["mem.peak_heap_mb"] = float64(d.PeakMem) / (1 << 20)

	m["sched.steals_per_req"] = per(d.Steals)
	m["rts.wholesale_bytes_per_req"] = per(d.Sessions.WholesaleBytes)
	m["rts.aborts"] = float64(tr.aborts)
	m["rts.rollback_bytes_per_abort"] = ratio(float64(tr.rollback), float64(tr.aborts))

	m["serve.queue_wait_us_per_req"] = per(int64(srv.QueueWaitTotal)) / 1e3
	m["serve.peak_queued"] = float64(srv.PeakQueued)
	m["serve.rejected"] = float64(srv.Rejected)
	m["netserve.sheds"] = float64(tr.stats.sheds)
	m["netserve.proto_errors"] = float64(tr.stats.protoErrs)

	for name, usPerReq := range tr.spans {
		m[name+"_us"] = quantile(sortedCopy(usPerReq), 0.5)
		m[name+"_sum_ms"] = sum(usPerReq) / 1e3
	}
	for name, ls := range tr.byKind {
		m[name] = median(ls)
	}
	for name, shares := range tr.gcShare {
		m[name] = median(shares)
	}

	// The layer budget: how much of the time spent inside request bodies
	// the counted operations account for, each at its probed cost, plus the
	// two costs the runtime times itself (collection and promotion climbs).
	// Promoting writes are charged through PromoteNanos, not a probe, so
	// they are not counted twice. Work of parallel arms adds up, so the
	// share can pass 1 when bodies fork.
	explainedNs := float64(d.GCNanos+ops.PromoteNanos) +
		float64(ops.Allocs)*probes["probe.core.alloc_ns"] +
		float64(ops.ReadImm)*probes["probe.core.read_imm_ns"] +
		float64(ops.ReadMutFast)*probes["probe.core.read_mut_ns"] +
		float64(ops.ReadMutSlow)*probes["probe.core.read_mut_promoted_ns"] +
		float64(ops.WriteNonptrLocal+ops.WriteNonptrDistant+ops.WriteNonptrSlow+ops.WriteInit)*probes["probe.core.write_nonptr_ns"] +
		float64(ops.WritePtrFast)*probes["probe.core.write_ptr_local_ns"] +
		float64(ops.WritePtrAncestor+ops.WritePtrNonProm)*probes["probe.core.write_ptr_ancestor_ns"] +
		float64(ops.CASFast+ops.CASSlow)*probes["probe.core.cas_ns"] +
		float64(d.Alloc.Acquires)*probes["probe.mem.chunk_cache_roundtrip_ns"]
	m["budget.body_explained_share"] = ratio(explainedNs, float64(tr.bodyWall))
	m["budget.unexplained_share"] = 1 - m["budget.body_explained_share"]
	return m
}
