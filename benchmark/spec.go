package main

import "sort"

// The benchmark's declaration: workloads, end-to-end metrics with their
// regression bounds, and per-layer metrics. BENCHMARK.json is this file
// printed by `go run ./benchmark -spec`; selftest_test.go fails when the
// two drift apart.

type workloadSpec struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

type metricSpec struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

const (
	lower  = "lower"
	higher = "higher"
)

// runSeconds is the measured length of one driver run (BENCHMARK.json's
// run_seconds) and the default of -seconds.
const runSeconds = 15

// netSmallRate is net-small's offered load in requests per second: the
// round number nearest half the saturation rate measured once on the seed
// commit (README.md, "Calibration"). It is never re-calibrated per run.
const netSmallRate = 6000

// latencyLimitMs is the limit a reply must meet, from its intended send
// time, to count towards goodput_rps.
const latencyLimitMs = 10.0

var workloads = []workloadSpec{
	{"serve-mix", "Closed loop, 2P in-process callers, mix kv=2,bfs=1,hist=1 size 1200: promoting writes, heap locks, zone GC and chunk recycling carry the load; netserve is bypassed."},
	{"net-small", "Open loop at a pinned 6000 rps over loopback, RUN kv <seed> 64 on pipelined connections: the fixed per-request path (socket, parse, admission, wake, attach, release) dominates."},
	{"forkjoin-paper", "Batch: msort, dedup, tourney, usp-tree at Default scale, fresh runtime per run, no sessions: the paper's shape and the no-change prediction for session-path work."},
	{"churn-mix", "Closed loop like serve-mix but mix stream=2,fan=1,abort=1: promote-then-discard, promoted reads, the batch barrier and seed-predicted rollbacks."},
}

// endToEnd lists what a client of the runtime sees. Every metric is
// emitted for every workload (the driver gates each pairing); the README
// says what each means where the issue's table left the pairing empty.
// fail_share is not here because a gated metric may never be 0: it is the
// failed/attempted pair of the result line and a per-layer metric.
var endToEnd = []metricSpec{
	{"setup_s", "s", lower, 0.25},
	{"throughput_rps", "req/s", higher, 0.25},
	{"latency_p50_ms", "ms", lower, 0.25},
	{"latency_p99_ms", "ms", lower, 0.25},
	{"goodput_rps", "req/s", higher, 0.25},
	{"cpu_ms_per_req", "ms", lower, 0.25},
	{"run_time_geomean_ms", "ms", lower, 0.25},
}

var (
	scenarioNames = []string{"kv", "bfs", "hist", "stream", "fan", "abort"}
	programNames  = []string{"msort", "dedup", "tourney", "usp-tree"}
	spanNames     = []string{
		"span.serve.submit", "span.serve.queue", "span.session.body", "span.session.release",
		"span.harness.send_lag", "span.netserve.ingress", "span.netserve.egress",
	}
)

// perLayer is built once: fixed names first, then the per-scenario and
// per-program families.
var perLayer = buildPerLayer()

func buildPerLayer() []metricSpec {
	ms := []metricSpec{
		{Name: "fail_share", Unit: "ratio", Better: lower},
		{Name: "latency_tail_percentile", Unit: "%", Better: higher},
		{Name: "harness.late_send_share", Unit: "ratio", Better: lower},
		{Name: "trace.overhead_share", Unit: "ratio", Better: lower},

		{Name: "probe.mem.chunk_cache_roundtrip_ns", Unit: "ns", Better: lower},
		{Name: "probe.mem.chunk_pool_roundtrip_ns", Unit: "ns", Better: lower},
		{Name: "probe.mem.get_chunk_ns", Unit: "ns", Better: lower},
		{Name: "probe.heap.of_ns", Unit: "ns", Better: lower},
		{Name: "probe.heap.child_join_ns", Unit: "ns", Better: lower},
		{Name: "probe.heap.attach_release_ns", Unit: "ns", Better: lower},
		{Name: "probe.core.alloc_ns", Unit: "ns", Better: lower},
		{Name: "probe.core.read_imm_ns", Unit: "ns", Better: lower},
		{Name: "probe.core.read_mut_ns", Unit: "ns", Better: lower},
		{Name: "probe.core.read_mut_promoted_ns", Unit: "ns", Better: lower},
		{Name: "probe.core.write_nonptr_ns", Unit: "ns", Better: lower},
		{Name: "probe.core.write_ptr_local_ns", Unit: "ns", Better: lower},
		{Name: "probe.core.write_ptr_ancestor_ns", Unit: "ns", Better: lower},
		{Name: "probe.core.write_ptr_promoting_ns", Unit: "ns", Better: lower},
		{Name: "probe.core.cas_ns", Unit: "ns", Better: lower},
		{Name: "probe.gc.collect_empty_ns", Unit: "ns", Better: lower},
		{Name: "probe.gc.collect_ns_per_live_kb", Unit: "ns", Better: lower},
		{Name: "probe.sched.submit_wake_us", Unit: "us", Better: lower},
		{Name: "probe.rts.forkjoin_ns", Unit: "ns", Better: lower},
		{Name: "probe.rts.session_empty_us", Unit: "us", Better: lower},
		{Name: "probe.serve.request_empty_us", Unit: "us", Better: lower},
		{Name: "probe.netserve.ping_rtt_us", Unit: "us", Better: lower},
		{Name: "probe.netserve.run_empty_rtt_us", Unit: "us", Better: lower},

		{Name: "core.allocs_per_req", Unit: "count", Better: lower},
		{Name: "core.ptr_writes_per_req", Unit: "count", Better: lower},
		{Name: "core.barrier_fast_share", Unit: "ratio", Better: higher},
		{Name: "core.promoting_write_share", Unit: "ratio", Better: lower},
		{Name: "core.promoted_bytes_per_req", Unit: "B", Better: lower},
		{Name: "core.climb_lock_depth", Unit: "count", Better: lower},
		{Name: "core.promote_us_per_req", Unit: "us", Better: lower},
		{Name: "core.read_mut_slow_share", Unit: "ratio", Better: lower},
		{Name: "core.findmaster_retries_per_req", Unit: "count", Better: lower},
		{Name: "gc.zones_per_req", Unit: "count", Better: lower},
		{Name: "gc.us_per_req", Unit: "us", Better: lower},
		{Name: "gc.words_copied_per_req", Unit: "count", Better: lower},
		{Name: "gc.reclaimed_share", Unit: "ratio", Better: higher},
		{Name: "gc.max_concurrent_sessions", Unit: "count", Better: higher},
		{Name: "gc.overlap_share", Unit: "ratio", Better: higher},
		{Name: "mem.chunk_acquires_per_req", Unit: "count", Better: lower},
		{Name: "mem.cache_hit_share", Unit: "ratio", Better: higher},
		{Name: "mem.dirops_per_req", Unit: "count", Better: lower},
		{Name: "mem.zeroed_words_per_req", Unit: "count", Better: lower},
		{Name: "mem.peak_heap_mb", Unit: "MB", Better: lower},
		{Name: "sched.steals_per_req", Unit: "count", Better: lower},
		{Name: "rts.wholesale_bytes_per_req", Unit: "B", Better: lower},
		{Name: "rts.aborts", Unit: "count", Better: lower},
		{Name: "rts.rollback_bytes_per_abort", Unit: "B", Better: lower},
		{Name: "serve.queue_wait_us_per_req", Unit: "us", Better: lower},
		{Name: "serve.peak_queued", Unit: "count", Better: lower},
		{Name: "serve.rejected", Unit: "count", Better: lower},
		{Name: "netserve.sheds", Unit: "count", Better: lower},
		{Name: "netserve.proto_errors", Unit: "count", Better: lower},

		{Name: "budget.body_explained_share", Unit: "ratio", Better: higher},
		{Name: "budget.unexplained_share", Unit: "ratio", Better: lower},

		{Name: "ref.mlton.throughput_rps", Unit: "req/s", Better: higher},
		{Name: "ref.stw.throughput_rps", Unit: "req/s", Better: higher},
		{Name: "ref.mlton.latency_p50_ms", Unit: "ms", Better: lower},
		{Name: "ref.parmem_over_mlton", Unit: "ratio", Better: higher},
	}
	for _, s := range spanNames {
		ms = append(ms,
			metricSpec{Name: s + "_us", Unit: "us", Better: lower},
			metricSpec{Name: s + "_sum_ms", Unit: "ms", Better: lower})
	}
	for _, s := range scenarioNames {
		ms = append(ms, metricSpec{Name: "load." + s + ".latency_p50_ms", Unit: "ms", Better: lower})
	}
	for _, p := range programNames {
		ms = append(ms,
			metricSpec{Name: "forkjoin." + p + ".run_ms", Unit: "ms", Better: lower},
			metricSpec{Name: "forkjoin." + p + ".gc_share", Unit: "ratio", Better: lower})
	}
	sort.SliceStable(ms, func(i, j int) bool { return ms[i].Name < ms[j].Name })
	return ms
}

// e2eSpec returns the end-to-end metric of that name.
func e2eSpec(name string) metricSpec {
	for _, m := range endToEnd {
		if m.Name == name {
			return m
		}
	}
	panic("benchmark: no end-to-end metric " + name)
}

// benchmarkFile is BENCHMARK.json's shape.
type benchmarkFile struct {
	Command    []string       `json:"command"`
	Paths      []string       `json:"paths"`
	RunSeconds int            `json:"run_seconds"`
	Workloads  []workloadSpec `json:"workloads"`
	EndToEnd   []metricSpec   `json:"end_to_end"`
	PerLayer   []metricSpec   `json:"per_layer"`
}

func specFile() benchmarkFile {
	return benchmarkFile{
		Command:    []string{"bash", "benchmark/run.sh"},
		Paths:      []string{"benchmark"},
		RunSeconds: runSeconds,
		Workloads:  workloads,
		EndToEnd:   endToEnd,
		PerLayer:   perLayer,
	}
}
