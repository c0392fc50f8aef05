package netserve

import (
	"bytes"
	"fmt"
	"net"
	"net/http"
	"time"

	"repro/hh"
)

// The metrics endpoint speaks the Prometheus text exposition format
// (text/plain; version=0.0.4): `# TYPE` headers, one `name{labels} value`
// sample per line. Every number is fed by counters the runtime already
// maintains — serve.ServeStats, rts.Totals (operations, zones, sessions,
// allocator), and the process-wide chunk gauge — so scraping costs one
// stats snapshot, no extra bookkeeping on the request path.

// WriteMetrics renders the front end's full metrics exposition.
func (f *Frontend) WriteMetrics(buf *bytes.Buffer) {
	st := f.srv.Stats()
	rt := f.srv.Runtime().Stats()
	inFlight, queued := f.srv.Load()
	maxInFlight, queueDepth := f.srv.Caps()
	c := f.Counters()
	mode := f.srv.Runtime().Mode().String()

	sec := func(d time.Duration) float64 { return d.Seconds() }

	fmt.Fprintf(buf, "# TYPE hh_up gauge\nhh_up{mode=%q} 1\n", mode)
	fmt.Fprintf(buf, "# TYPE hh_uptime_seconds gauge\nhh_uptime_seconds %.3f\n",
		time.Since(f.started).Seconds())

	// Serving outcomes and occupancy.
	fmt.Fprintf(buf, "# TYPE hh_requests_total counter\n")
	fmt.Fprintf(buf, "hh_requests_total{outcome=\"completed\"} %d\n", st.Completed)
	fmt.Fprintf(buf, "hh_requests_total{outcome=\"failed\"} %d\n", st.Failed)
	fmt.Fprintf(buf, "hh_requests_total{outcome=\"rejected\"} %d\n", st.Rejected)
	fmt.Fprintf(buf, "# TYPE hh_inflight_sessions gauge\nhh_inflight_sessions %d\n", inFlight)
	fmt.Fprintf(buf, "# TYPE hh_inflight_cap gauge\nhh_inflight_cap %d\n", maxInFlight)
	fmt.Fprintf(buf, "# TYPE hh_queue_depth gauge\nhh_queue_depth %d\n", queued)
	fmt.Fprintf(buf, "# TYPE hh_queue_cap gauge\nhh_queue_cap %d\n", queueDepth)

	// Latency quantiles (server-observed, submit-to-completion). A summary
	// needs the _sum/_count pair or rate()-based average queries silently
	// return nothing.
	fmt.Fprintf(buf, "# TYPE hh_latency_seconds summary\n")
	for _, q := range []struct {
		q string
		v time.Duration
	}{{"0.5", st.LatencyP50}, {"0.9", st.LatencyP90}, {"0.99", st.LatencyP99},
		{"0.999", st.LatencyP999}, {"1", st.LatencyMax}} {
		fmt.Fprintf(buf, "hh_latency_seconds{quantile=%q} %.6f\n", q.q, sec(q.v))
	}
	fmt.Fprintf(buf, "hh_latency_seconds_sum %.6f\n", sec(st.LatencySum))
	fmt.Fprintf(buf, "hh_latency_seconds_count %d\n", st.LatencyCount)

	// Latency attribution by phase. An attribution of work, not a disjoint
	// partition: a parallel session's GC and climb time can overlap the
	// same wall clock (see serve.ServeStats).
	fmt.Fprintf(buf, "# TYPE hh_latency_breakdown_seconds_total counter\n")
	for _, p := range []struct {
		phase string
		v     time.Duration
	}{{"queue", st.QueueWaitTotal}, {"gc", st.GCTotal},
		{"barrier", st.BarrierTotal}, {"mutator", st.MutatorTotal}} {
		fmt.Fprintf(buf, "hh_latency_breakdown_seconds_total{phase=%q} %.6f\n", p.phase, sec(p.v))
	}

	// Front-end traffic.
	fmt.Fprintf(buf, "# TYPE hh_connections_total counter\nhh_connections_total %d\n", c.ConnsAccepted)
	fmt.Fprintf(buf, "# TYPE hh_connections_active gauge\nhh_connections_active %d\n", c.ConnsActive)
	fmt.Fprintf(buf, "# TYPE hh_frames_total counter\nhh_frames_total %d\n", c.Frames)
	fmt.Fprintf(buf, "# TYPE hh_proto_errors_total counter\nhh_proto_errors_total %d\n", c.ProtoErrors)
	fmt.Fprintf(buf, "# TYPE hh_sheds_total counter\n")
	for i := range shedReasonNames {
		fmt.Fprintf(buf, "hh_sheds_total{reason=%q} %d\n", shedReasonNames[i], f.shedTotals[i].Load())
	}

	// Per-tenant accounting.
	fmt.Fprintf(buf, "# TYPE hh_tenant_inflight gauge\n")
	for _, t := range f.cfg.Tenants.All() {
		fmt.Fprintf(buf, "hh_tenant_inflight{tenant=%q} %d\n", t.Name, t.InFlight())
	}
	fmt.Fprintf(buf, "# TYPE hh_tenant_accepted_total counter\n")
	for _, t := range f.cfg.Tenants.All() {
		fmt.Fprintf(buf, "hh_tenant_accepted_total{tenant=%q} %d\n", t.Name, t.Accepted())
	}
	fmt.Fprintf(buf, "# TYPE hh_tenant_sheds_total counter\n")
	for _, t := range f.cfg.Tenants.All() {
		for i := range shedReasonNames {
			if n := t.shed[i].Load(); n > 0 {
				fmt.Fprintf(buf, "hh_tenant_sheds_total{tenant=%q,reason=%q} %d\n",
					t.Name, shedReasonNames[i], n)
			}
		}
	}

	// Runtime memory and reclamation (the paper-side counters).
	fmt.Fprintf(buf, "# TYPE hh_wholesale_bytes_total counter\nhh_wholesale_bytes_total %d\n",
		st.WholesaleBytes)
	fmt.Fprintf(buf, "# TYPE hh_merged_bytes_total counter\nhh_merged_bytes_total %d\n", st.MergedBytes)
	fmt.Fprintf(buf, "# TYPE hh_chunks_in_use gauge\nhh_chunks_in_use %d\n", hh.ChunksInUse())
	fmt.Fprintf(buf, "# TYPE hh_promotions_total counter\nhh_promotions_total %d\n", rt.Ops.Promotions)
	fmt.Fprintf(buf, "# TYPE hh_promoted_bytes_total counter\nhh_promoted_bytes_total %d\n",
		rt.Ops.PromotedBytes())
	fmt.Fprintf(buf, "# TYPE hh_zone_collections_total counter\nhh_zone_collections_total %d\n",
		rt.Zones.Zones)
	fmt.Fprintf(buf, "# TYPE hh_zone_overlap_seconds_total counter\nhh_zone_overlap_seconds_total %.6f\n",
		float64(rt.Zones.OverlapNanos)/1e9)
	fmt.Fprintf(buf, "# TYPE hh_zone_concurrent_peak gauge\nhh_zone_concurrent_peak %d\n",
		rt.Zones.MaxConcurrent)
	fmt.Fprintf(buf, "# TYPE hh_zone_sessions_peak gauge\nhh_zone_sessions_peak %d\n",
		rt.Zones.MaxConcurrentSessions)
	fmt.Fprintf(buf, "# TYPE hh_gc_seconds_total counter\nhh_gc_seconds_total %.6f\n",
		float64(rt.GCNanos)/1e9)
	fmt.Fprintf(buf, "# TYPE hh_sessions_total counter\n")
	fmt.Fprintf(buf, "hh_sessions_total{outcome=\"completed\"} %d\n", rt.Sessions.Completed)
	fmt.Fprintf(buf, "hh_sessions_total{outcome=\"failed\"} %d\n", rt.Sessions.Failed)
	fmt.Fprintf(buf, "# TYPE hh_sessions_peak gauge\nhh_sessions_peak %d\n", rt.Sessions.PeakLive)
	fmt.Fprintf(buf, "# TYPE hh_steals_total counter\nhh_steals_total %d\n", rt.Steals)
	// Forks by path: inline ran both arms on the forking task (Seq, or no
	// idle worker to steal the right arm); parallel published a frame.
	fmt.Fprintf(buf, "# TYPE hh_forks_total counter\n")
	fmt.Fprintf(buf, "hh_forks_total{path=\"inline\"} %d\n", rt.Forks.Inline)
	fmt.Fprintf(buf, "hh_forks_total{path=\"parallel\"} %d\n", rt.Forks.Parallel)

	// Barrier traffic by cost class (the Figure 8 split): the fast paths
	// never touch a heap lock, the promoting class pays a lock climb.
	fmt.Fprintf(buf, "# TYPE hh_ptr_writes_total counter\n")
	fmt.Fprintf(buf, "hh_ptr_writes_total{path=\"fast\"} %d\n", rt.Ops.WritePtrFast)
	fmt.Fprintf(buf, "hh_ptr_writes_total{path=\"ancestor\"} %d\n", rt.Ops.WritePtrAncestor)
	fmt.Fprintf(buf, "hh_ptr_writes_total{path=\"nonprom\"} %d\n", rt.Ops.WritePtrNonProm)
	fmt.Fprintf(buf, "hh_ptr_writes_total{path=\"prom\"} %d\n", rt.Ops.WritePtrProm)

	// Dead-task totals: counters merged from completed tasks into the
	// sharded runtime totals (allocation volume by the mutators).
	fmt.Fprintf(buf, "# TYPE hh_task_allocs_total counter\nhh_task_allocs_total %d\n", rt.Ops.Allocs)
	fmt.Fprintf(buf, "# TYPE hh_task_alloc_words_total counter\nhh_task_alloc_words_total %d\n",
		rt.Ops.AllocWords)

	fmt.Fprintf(buf, "# TYPE hh_chunk_acquires_total counter\n")
	fmt.Fprintf(buf, "hh_chunk_acquires_total{tier=\"cache\"} %d\n", rt.Alloc.CacheHits)
	fmt.Fprintf(buf, "hh_chunk_acquires_total{tier=\"pool\"} %d\n", rt.Alloc.PoolHits)
	fmt.Fprintf(buf, "hh_chunk_acquires_total{tier=\"fresh\"} %d\n", rt.Alloc.FreshChunks)
	fmt.Fprintf(buf, "# TYPE hh_pooled_bytes gauge\nhh_pooled_bytes %d\n", rt.Alloc.PooledBytes)
}

// metricsText renders the exposition for the STATS command.
func (f *Frontend) metricsText() []byte {
	var buf bytes.Buffer
	f.WriteMetrics(&buf)
	return buf.Bytes()
}

// MetricsHandler returns an http.Handler serving the exposition — mount
// it at /metrics.
func (f *Frontend) MetricsHandler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		var buf bytes.Buffer
		f.WriteMetrics(&buf)
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		w.Write(buf.Bytes())
	})
}

// ServeMetrics starts an HTTP server on lis with /metrics (the
// exposition) and /healthz (200 "ok", 503 "draining" during drain).
// Returns the server; the caller shuts it down after Drain.
func (f *Frontend) ServeMetrics(lis net.Listener) *http.Server {
	mux := http.NewServeMux()
	mux.Handle("/metrics", f.MetricsHandler())
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, r *http.Request) {
		if f.draining.Load() {
			http.Error(w, "draining", http.StatusServiceUnavailable)
			return
		}
		fmt.Fprintln(w, "ok")
	})
	srv := &http.Server{Handler: mux}
	go srv.Serve(lis)
	return srv
}
