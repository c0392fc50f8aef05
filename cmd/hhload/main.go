// Command hhload is the closed-loop load generator for the serving layer:
// N client goroutines drive a weighted scenario mix (kv-churn, bfs query,
// histogram, fan-out publish, OCC transactions, stream windows, rank
// analytics) through an hh/serve.Server, each request running as its own
// root-level session that is reclaimed wholesale at completion.
//
//	hhload -mode all -procs 4 -sessions 8 -requests 96
//	hhload -mode all -mix txn=2,stream=1,rank=1 -txn-keys 16
//	                                                   # transactional/streaming/analytics mix
//	hhload -mode all -procs-sweep 2,8 -mix kv=2,bfs=1,hist=1,fan=1
//	                                                   # high-P cross-validation
//
// For every runtime mode it reports serving statistics (throughput,
// latency quantiles, peak concurrency), the runtime's session,
// zone-concurrency, allocator, and write-barrier counters, plus — when the
// mix includes transactions — the abort rate, wholesale-rollback bytes,
// and retry latency. It FAILS (exit 1) if any request
// miscomputes, if the per-request checksum stream diverges between modes
// (or, with -procs-sweep, between any mode at any P and the first run),
// if chunk occupancy does not return to baseline after Drain, or if the
// txn serializability oracle rejects a committed schedule. With
// -min-zone-sessions N it also fails unless parmem observed N session
// subtrees collecting concurrently. An unpinned session's heap is not
// collected below 1 MiB (release frees it wholesale), so at the default
// -size no session collects at all; the concurrency gate needs requests
// that grow a heap past that floor:
//
//	hhload -mode parmem -size 30000 -min-zone-sessions 2
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"strconv"
	"strings"
	"time"

	"repro/hh"
	"repro/hh/serve"
	"repro/internal/load"
	"repro/internal/trace"
)

func main() {
	modeName := flag.String("mode", "all", "parmem|stw|seq|manticore|all")
	procs := flag.Int("procs", runtime.NumCPU(), "workers per runtime")
	sessions := flag.Int("sessions", 8, "concurrent client sessions (served in-flight cap)")
	requests := flag.Int("requests", 96, "total requests per mode")
	size := flag.Int("size", 1200, "work per request (elements)")
	mixSpec := flag.String("mix", "kv=2,bfs=1,hist=1",
		"weighted scenario mix (kv|bfs|hist|fan|txn|stream|rank)")
	txnKeys := flag.Int("txn-keys", 0, "txn scenario: shared-store key count (0 = default 64; smaller = more conflicts)")
	streamWindow := flag.Int("stream-window", 0, "stream scenario: ring slots per partition window (0 = default 8)")
	rankIters := flag.Int("rank-iters", 0, "rank scenario: PageRank sweeps per request (0 = default 4)")
	budget := flag.Int64("budget", 0, "per-session allocation budget in words (0 = unlimited)")
	gcMin := flag.Int64("gc-min", 2048, "collection trigger: minimum heap words")
	gcRatio := flag.Float64("gc-ratio", 1.25, "collection trigger: growth ratio")
	minZoneSessions := flag.Int64("min-zone-sessions", 0,
		"fail unless parmem observes this many sessions collecting concurrently (0 = off; needs a -size whose sessions pass the 1 MiB collection floor)")
	procsSweep := flag.String("procs-sweep", "",
		"comma-separated worker counts; run every mode at each P and require one checksum (overrides -procs)")
	traceFile := flag.String("trace", "",
		"record a flight-recorder trace of the whole run and write Chrome trace-event JSON here (load in Perfetto)")
	flag.Parse()

	// With -procs-sweep the request stream is fixed while P varies, so the
	// checksum comparison proves the systems compute the same answers at
	// high P as at the P=2 baseline.
	sweep := []int{*procs}
	if *procsSweep != "" {
		sweep = sweep[:0]
		for _, f := range strings.Split(*procsSweep, ",") {
			p, err := strconv.Atoi(strings.TrimSpace(f))
			if err != nil || p < 1 {
				fmt.Fprintf(os.Stderr, "bad -procs-sweep entry %q\n", f)
				os.Exit(2)
			}
			sweep = append(sweep, p)
		}
	}
	maxP := 0
	for _, p := range sweep {
		if p > maxP {
			maxP = p
		}
	}

	// The pool simulates up to maxP processors; give the Go scheduler at
	// least as many, so disjoint session collections can overlap in wall
	// time even when the host has fewer cores.
	if runtime.GOMAXPROCS(0) < maxP {
		runtime.GOMAXPROCS(maxP)
	}

	params := load.Params{TxnKeys: *txnKeys, StreamWindow: *streamWindow, RankIters: *rankIters}
	mix, err := load.ParseMixWith(params, *mixSpec)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	var modes []hh.Mode
	if *modeName == "all" {
		modes = hh.Modes
	} else {
		m, err := hh.ParseMode(*modeName)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(2)
		}
		modes = []hh.Mode{m}
	}

	// The command owns the recorder (not each short-lived runtime), so one
	// trace spans every mode and P of the run.
	if *traceFile != "" {
		trace.Start(maxP, trace.DefaultBufEvents)
	}

	failed := false
	var refSum uint64
	var refRun string
	for _, p := range sweep {
		if len(sweep) > 1 {
			fmt.Printf("== P=%d ==\n", p)
		}
		for _, mode := range modes {
			sum, ok := driveMode(mode, p, *sessions, *requests, *size, mix, *budget,
				*gcMin, *gcRatio, *minZoneSessions)
			if !ok {
				failed = true
			}
			// Every mode must hand all chunks back once its runtime closes.
			if got := hh.ChunksInUse(); got != 0 {
				fmt.Fprintf(os.Stderr, "%s: LEAK: %d chunks in use after Close\n", mode, got)
				failed = true
			}
			run := fmt.Sprintf("%s@P=%d", mode, p)
			if refRun == "" {
				refSum, refRun = sum, run
			} else if sum != refSum {
				fmt.Fprintf(os.Stderr, "CHECKSUM DIVERGENCE: %s total %x, %s total %x\n",
					run, sum, refRun, refSum)
				failed = true
			}
		}
	}
	if *traceFile != "" {
		if err := trace.WriteFile(*traceFile); err != nil {
			fmt.Fprintf(os.Stderr, "hhload: writing trace: %v\n", err)
			failed = true
		} else {
			fmt.Printf("hhload: trace written to %s\n", *traceFile)
		}
		trace.Stop()
	}
	if failed {
		os.Exit(1)
	}
	fmt.Printf("hhload ok: %d requests x %d mode(s) x %d proc count(s), stream checksum %x\n",
		*requests, len(modes), len(sweep), refSum)
}

// driveMode runs one closed loop against one runtime mode and returns the
// order-independent checksum of the whole request stream.
func driveMode(mode hh.Mode, procs, sessions, requests, size int, mix load.Mix,
	budget, gcMin int64, gcRatio float64, minZoneSessions int64) (uint64, bool) {

	r := hh.New(hh.WithMode(mode), hh.WithProcs(procs), hh.WithGCPolicy(gcMin, gcRatio))
	defer r.Close()
	base := hh.ChunksInUse()
	hierarchical := mode == hh.ParMem || mode == hh.Seq

	srv := serve.New(r,
		serve.WithMaxInFlight(sessions),
		serve.WithQueueDepth(2*sessions),
		serve.WithSessionBudget(budget))

	ok := true
	res := load.Drive(srv, mix, sessions, requests, size,
		func(idx int64, scenario string, err error) {
			fmt.Fprintf(os.Stderr, "%s: request %d (%s) failed: %v\n", mode, idx, scenario, err)
		})

	st := srv.Stats()
	rt := r.Stats()
	fmt.Printf("%-18s %5d req in %8s  %7.1f req/s  p50 %-9s p99 %-9s max %-9s peak %d inflight\n",
		mode.String()+":", st.Completed, res.Elapsed.Round(time.Millisecond), st.Throughput,
		st.LatencyP50.Round(time.Microsecond), st.LatencyP99.Round(time.Microsecond),
		st.LatencyMax.Round(time.Microsecond), st.PeakInFlight)
	fmt.Printf("    sessions: peak %d live, %d KiB reclaimed wholesale, %d KiB merged; %d steals, %d promotions\n",
		rt.Sessions.PeakLive, rt.Sessions.WholesaleBytes>>10, rt.Sessions.MergedBytes>>10,
		rt.Steals, rt.Ops.WritePtrProm)
	fmt.Printf("    zones: %d total (%d session-tagged), peak %d concurrent, peak %d sessions collecting, %s overlap\n",
		rt.Zones.Zones, rt.Zones.SessionZones, rt.Zones.MaxConcurrent,
		rt.Zones.MaxConcurrentSessions, time.Duration(rt.Zones.OverlapNanos).Round(time.Microsecond))
	done := st.Finished()
	if done == 0 {
		done = 1
	}
	fmt.Printf("    alloc: %d chunks (%.0f%% cache, %.0f%% pool, %d fresh), %d dirops (%.2f/req), %d KiB pooled\n",
		rt.Alloc.Acquires+rt.Alloc.Oversize, 100*rt.Alloc.CacheHitRate(), 100*rt.Alloc.PoolHitRate(),
		rt.Alloc.FreshChunks+rt.Alloc.Oversize, rt.Alloc.DirIDOps,
		float64(rt.Alloc.DirIDOps)/float64(done), rt.Alloc.PooledBytes>>10)
	ops := rt.Ops
	if pw := ops.PtrWrites(); pw > 0 {
		fmt.Printf("    barrier: %d ptr writes (%.0f%% fast, %.0f%% anc, %.0f%% find, %.0f%% prom); "+
			"%d KiB promoted in %d climbs (lock depth %.2f)\n",
			pw,
			100*float64(ops.WritePtrFast)/float64(pw),
			100*float64(ops.WritePtrAncestor)/float64(pw),
			100*float64(ops.WritePtrNonProm)/float64(pw),
			100*float64(ops.WritePtrProm)/float64(pw),
			ops.PromotedBytes()>>10, ops.WritePtrProm, ops.MeanClimbDepth())
	}
	if res.Commits+res.Aborts > 0 {
		rollbackPerTxn := int64(0)
		if res.Aborts > 0 {
			rollbackPerTxn = res.RolledBackBytes / res.Aborts
		}
		retryLat := time.Duration(0)
		if res.Retries > 0 {
			retryLat = time.Duration(res.RetryNanos / res.Retries)
		}
		fmt.Printf("    txn: %d commits, %d aborts (%.1f%%), %d retries, %d B/txn rolled back wholesale, %s mean retry latency\n",
			res.Commits, res.Aborts, 100*res.AbortRate(), res.Retries,
			rollbackPerTxn, retryLat.Round(time.Microsecond))
	}
	if res.Failures > 0 {
		ok = false
	}
	if res.OracleErr != nil {
		fmt.Fprintf(os.Stderr, "%s: %v\n", mode, res.OracleErr)
		ok = false
	}
	if err := r.CheckDisentangled(); err != nil {
		fmt.Fprintf(os.Stderr, "%s: %v\n", mode, err)
		ok = false
	}
	// Post-drain baseline is the wholesale-reclamation property, so it is a
	// hierarchical-mode check: flat-mode sessions leave their garbage in the
	// shared worker heaps until the next collection or Close (main re-checks
	// every mode for zero chunks after Close).
	if got := hh.ChunksInUse(); hierarchical && got != base {
		fmt.Fprintf(os.Stderr, "%s: LEAK: %d chunks in use after drain, want baseline %d\n", mode, got, base)
		ok = false
	}
	if st.PeakInFlight < sessions && st.Completed >= int64(2*sessions) {
		// Advisory only: with clients == MaxInFlight a slot frees between a
		// completion and that client's next submit, so a heavily serialized
		// host (1 core, race detector) can legitimately never catch all
		// clients in flight at one instant.
		fmt.Fprintf(os.Stderr, "%s: note: closed loop did not saturate: peak in-flight %d < %d\n",
			mode, st.PeakInFlight, sessions)
	}
	if mode == hh.ParMem && minZoneSessions > 0 && rt.Zones.MaxConcurrentSessions < minZoneSessions {
		fmt.Fprintf(os.Stderr, "parmem: only %d session(s) observed collecting concurrently, want >= %d\n",
			rt.Zones.MaxConcurrentSessions, minZoneSessions)
		ok = false
	}
	return res.Checksum, ok
}
