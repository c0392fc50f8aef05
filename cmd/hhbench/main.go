// Command hhbench regenerates the paper's evaluation tables and figures.
//
// Usage:
//
//	hhbench -table fig10              # pure benchmarks (Figure 10)
//	hhbench -table fig11              # imperative benchmarks (Figure 11)
//	hhbench -table fig12 -procs 2     # speedup series (Figure 12)
//	hhbench -table fig13              # memory consumption (Figure 13)
//	hhbench -table fig9               # representative operations
//	hhbench -table fig8               # operation cost matrix
//	hhbench -table zones              # zone-collection concurrency (parmem)
//	hhbench -table all                # everything
//	hhbench -bench msort,usp-tree ... # subset of benchmarks
//	hhbench -paper                    # the paper's original problem sizes
//	hhbench -table fig10 -json > BENCH_fig10.json   # machine-readable output
//	hhbench -table all -json -out .   # one BENCH_<table>.json file per table
//
// With -json each table is emitted as one JSON object per line (JSON
// Lines): {"schema","commit","table","title","procs","header","rows",...},
// with the same formatted cells as the text rendering — the stable
// interface for tracking the performance trajectory across commits. With
// -out DIR each table is additionally written to DIR/BENCH_<table>.json
// (the perf-trajectory artifacts CI uploads); "schema" names the layout
// version and "commit" the VCS revision that produced the numbers.
package main

import (
	"flag"
	"fmt"
	"os"
	"os/exec"
	"runtime"
	"runtime/debug"
	"strings"

	"repro/internal/report"
	"repro/internal/trace"
)

// resolveCommit finds the VCS revision to stamp into emitted tables: the
// binary's embedded build info when present, then git, then "unknown".
func resolveCommit() string {
	if info, ok := debug.ReadBuildInfo(); ok {
		for _, s := range info.Settings {
			if s.Key == "vcs.revision" && s.Value != "" {
				return s.Value
			}
		}
	}
	if out, err := exec.Command("git", "rev-parse", "HEAD").Output(); err == nil {
		return strings.TrimSpace(string(out))
	}
	return "unknown"
}

func main() {
	table := flag.String("table", "all", "fig8|fig9|fig10|fig11|fig12|fig13|zones|all")
	procs := flag.Int("procs", runtime.NumCPU(), "processor count for the T_P columns")
	reps := flag.Int("reps", 3, "repetitions per measurement (median reported)")
	names := flag.String("bench", "", "comma-separated benchmark subset")
	paper := flag.Bool("paper", false, "use the paper's original problem sizes (slow)")
	iters := flag.Int("fig8-iters", 200_000, "iterations per figure-8 cell")
	jsonOut := flag.Bool("json", false, "emit one JSON object per table (JSON Lines) instead of text")
	outDir := flag.String("out", "", "also write each table to DIR/BENCH_<table>.json")
	commit := flag.String("commit", "", "commit id stamped into tables (default: build info, then git)")
	traceFile := flag.String("trace", "",
		"record a flight-recorder trace of the whole run and write Chrome trace-event JSON here")
	flag.Parse()

	if *traceFile != "" {
		trace.Start(*procs, trace.DefaultBufEvents)
		defer func() {
			if err := trace.WriteFile(*traceFile); err != nil {
				fmt.Fprintf(os.Stderr, "hhbench: writing trace: %v\n", err)
			}
			trace.Stop()
		}()
	}

	opts := report.Options{Procs: *procs, Reps: *reps, Paper: *paper, JSON: *jsonOut,
		OutDir: *outDir, Commit: *commit}
	if opts.Commit == "" {
		opts.Commit = resolveCommit()
	}
	if *names != "" {
		opts.Names = strings.Split(*names, ",")
	}

	run := func(name string, fn func() error) {
		if err := fn(); err != nil {
			fmt.Fprintf(os.Stderr, "%s: %v\n", name, err)
			os.Exit(1)
		}
		if !*jsonOut {
			fmt.Println()
		}
	}

	w := os.Stdout
	tables := strings.Split(*table, ",")
	for _, tb := range tables {
		switch tb {
		case "fig8":
			run(tb, func() error { return report.Fig8(w, opts, *iters) })
		case "fig9":
			run(tb, func() error { return report.Fig9(w, opts) })
		case "fig10":
			run(tb, func() error { return report.Fig10(w, opts) })
		case "fig11":
			run(tb, func() error { return report.Fig11(w, opts) })
		case "fig12":
			run(tb, func() error { return report.Fig12(w, opts) })
		case "fig13":
			run(tb, func() error { return report.Fig13(w, opts) })
		case "zones":
			run(tb, func() error { return report.ZoneTable(w, opts) })
		case "all":
			run("fig8", func() error { return report.Fig8(w, opts, *iters) })
			run("fig9", func() error { return report.Fig9(w, opts) })
			run("fig10", func() error { return report.Fig10(w, opts) })
			run("fig11", func() error { return report.Fig11(w, opts) })
			run("fig12", func() error { return report.Fig12(w, opts) })
			run("fig13", func() error { return report.Fig13(w, opts) })
			run("zones", func() error { return report.ZoneTable(w, opts) })
		default:
			fmt.Fprintf(os.Stderr, "unknown table %q\n", tb)
			os.Exit(2)
		}
	}
}
