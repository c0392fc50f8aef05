package main

import (
	"fmt"
	"reflect"
	"runtime"
	"syscall"
	"time"

	"repro/hh"
	"repro/hh/serve"
	"repro/internal/trace"
)

// loopOpts fixes one pass over one workload.
type loopOpts struct {
	workload string
	mode     hh.Mode
	procs    int
	traced   bool
	seed     uint64
	warm     int    // warm-up requests (cycles for forkjoin-paper), part of set-up
	perRep   int    // requests (cycles) in one timed repetition
	traceOut string // traced pass: where rep writes the recorder hh.WithTrace armed
}

// loop is one workload's driver. setup builds the system under test from a
// cold chunk pool and warms it; rep runs one timed repetition of the fixed
// request stream; teardown drains, runs the leak and balance gates and
// closes the system. Gate violations come back as text.
type loop interface {
	setup() error
	rep() repOut
	teardown() []string
}

// request is one generated input with its expected output.
type request struct {
	seed  uint64
	kind  int    // index into scenarioNames
	want  uint64 // oracle checksum
	abort bool   // the first attempt rolls back (abort scenario only)
}

// genRequests builds requests from..from+n of the workload's stream:
// request i carries seed base+i, and a hash of i picks its scenario from
// the weight-expanded mix, so scenarios interleave instead of phasing.
func genRequests(mix []string, size int, base uint64, from, n int) []request {
	kindOf := map[string]int{}
	for k, name := range scenarioNames {
		kindOf[name] = k
	}
	reqs := make([]request, n)
	for j := range reqs {
		i := uint64(from + j)
		name := mix[hash64(i)%uint64(len(mix))]
		seed := base + i
		reqs[j] = request{
			seed:  seed,
			kind:  kindOf[name],
			want:  oracles[name](seed, size),
			abort: name == "abort" && abortsFirstAttempt(seed),
		}
	}
	return reqs
}

// repOut is what one repetition measured.
type repOut struct {
	wall     time.Duration        // what throughput divides by: the repetition's wall time
	cpu      time.Duration        // process user+system CPU over the same interval
	latMs    []float64            // client-seen latency per request, in stream order; -1 for a failed request
	paced    bool                 // an open loop at a fixed rate: its samples are aggregated differently (passResult.value)
	limitMs  float64              // the deadline goodput counts against; 0 = none (a batch program has no deadline)
	bodyWall time.Duration        // traced pass: wall time spent inside request bodies, the budget's denominator
	byKind   map[string][]float64 // time (ms) of the correct requests by scenario or program, under the per-layer metric that reports its median
	gcShare  map[string][]float64 // forkjoin-paper: run-phase GC share per program run, under its per-layer metric name
	failed   int                  // refused, errored or wrong checksum
	refused  int                  // the part of failed the server refused (saturated, -SHED): load, not a wrong answer
	checksum uint64               // order-independent sum of every correct reply
	aborts   int64                // first attempts that rolled back
	rollback int64                // chunk bytes those rollbacks released
	lateSend int                  // open loop: requests sent over 1 ms after their intended time

	spans map[string][]float64 // traced pass: span name -> per-request microseconds
	stats counterDelta
}

// groupByKind fills byKind from per-request latencies and scenario indices.
func (out *repOut) groupByKind(reqs []request) {
	out.byKind = map[string][]float64{}
	for i, rq := range reqs {
		if out.latMs[i] >= 0 {
			name := "load." + scenarioNames[rq.kind] + ".latency_p50_ms"
			out.byKind[name] = append(out.byKind[name], out.latMs[i])
		}
	}
}

// exportTrace writes the flight recorder to path (nothing when path is
// empty). A loop calls it once its traced repetitions are done, while the
// runtime that owns the recorder is still open; a failure joins the gates.
func exportTrace(path string) []string {
	if path == "" {
		return nil
	}
	if err := trace.WriteFile(path); err != nil {
		return []string{fmt.Sprintf("trace export: %v", err)}
	}
	return nil
}

// counterDelta is the always-on counters' movement over one repetition,
// read from outside through the public snapshots.
type counterDelta struct {
	tot       hh.Stats         // rts.Totals, after minus before (gauges and maxima: after)
	srv       serve.ServeStats // likewise
	sheds     int64
	protoErrs int64
}

// accumulate sets every int64 and int field of *a to a + sign·b, recursing
// through nested structs, so a new counter in a snapshot type is carried
// without touching the benchmark. Durations are int64s and follow along.
func accumulate(a, b reflect.Value, sign int64) {
	for i := 0; i < a.NumField(); i++ {
		fa, fb := a.Field(i), b.Field(i)
		switch fa.Kind() {
		case reflect.Struct:
			accumulate(fa, fb, sign)
		case reflect.Int64, reflect.Int:
			fa.SetInt(fa.Int() + sign*fb.Int())
		}
	}
}

// maxima lists the fields of a Stats that are high-water marks or gauges
// rather than counters: they neither add nor subtract.
func maxima(s *hh.Stats) []*int64 {
	return []*int64{
		&s.PeakMem, &s.Zones.MaxConcurrent, &s.Zones.MaxConcurrentSessions, &s.Sessions.PeakLive,
		&s.Alloc.PooledChunks, &s.Alloc.PooledBytes, &s.Deferred.Live,
	}
}

// sumStats adds one program run's totals into dst: counters add, maxima
// take the larger side.
func sumStats(dst *hh.Stats, src hh.Stats) {
	var peaks []int64
	for i, p := range maxima(dst) {
		peaks = append(peaks, max(*p, *maxima(&src)[i]))
	}
	accumulate(reflect.ValueOf(dst).Elem(), reflect.ValueOf(&src).Elem(), +1)
	for i, p := range maxima(dst) {
		*p = peaks[i]
	}
	dst.Procs = src.Procs
}

// statsDelta returns after−before on the counters and after's value on the
// maxima.
func statsDelta(before, after hh.Stats) hh.Stats {
	d := after
	accumulate(reflect.ValueOf(&d).Elem(), reflect.ValueOf(&before).Elem(), -1)
	for i, p := range maxima(&d) {
		*p = *maxima(&after)[i]
	}
	d.Procs = after.Procs
	return d
}

func serveDelta(before, after serve.ServeStats) serve.ServeStats {
	d := after
	accumulate(reflect.ValueOf(&d).Elem(), reflect.ValueOf(&before).Elem(), -1)
	d.PeakInFlight, d.PeakQueued = after.PeakInFlight, after.PeakQueued
	return d
}

// cpuTime is the process's user+system CPU so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// benchProcs is P, the worker count of the system under test.
func benchProcs() int {
	if n := runtime.NumCPU(); n < 4 {
		return n
	}
	return 4
}

// sutOptions are hhserved's defaults: eager barrier, pool on, recorder off
// unless this is the traced pass.
func sutOptions(o loopOpts) []hh.Option {
	opts := []hh.Option{hh.WithMode(o.mode), hh.WithProcs(o.procs), hh.WithGCPolicy(2048, 1.25)}
	if o.traced {
		opts = append(opts, hh.WithTrace(0))
	}
	return opts
}

// leakGate checks chunk occupancy against the pre-traffic baseline.
func leakGate(base int64) []string {
	if now := hh.ChunksInUse(); now != base {
		return []string{fmt.Sprintf("chunk leak: %d chunks in use after drain, %d before traffic", now, base)}
	}
	return nil
}
