// Package report regenerates every table and figure of the paper's
// evaluation section (§4) from fresh measurements: Figure 8 (operation
// costs), Figure 9 (representative operations), Figures 10–11 (pure and
// imperative benchmark tables), Figure 12 (speedup versus processors), and
// Figure 13 (memory consumption and inflation). Checksums are compared
// across all runtime systems on every row; a mismatch is reported loudly.
package report

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"

	"repro/internal/bench"
	"repro/internal/rts"
)

// Options configures a report run.
type Options struct {
	Procs  int      // processor count for the T_P columns (>=1)
	Reps   int      // runs per measurement; the median is reported
	Paper  bool     // use the paper's original problem sizes
	Names  []string // subset of benchmarks; empty = all
	JSON   bool     // emit one JSON object per table instead of aligned text
	OutDir string   // also write each table as OutDir/BENCH_<table>.json
	Commit string   // commit identifier stamped into emitted tables
}

// TableSchema identifies the JSON layout emitted for a Table; bump it when
// the field set or cell conventions change so perf-trajectory tooling can
// refuse tables it does not understand.
const TableSchema = "hhbench/v1"

// Table is the machine-readable form of one emitted table (the -json
// output of cmd/hhbench). Rows carry the same formatted cells as the text
// rendering, keyed positionally by Header, so perf-trajectory tooling can
// diff tables across commits without scraping aligned text. Schema and
// Commit make a saved table self-describing: which layout it uses and
// which commit produced it.
type Table struct {
	Schema   string     `json:"schema"`
	Commit   string     `json:"commit,omitempty"`
	Table    string     `json:"table"`
	Title    string     `json:"title"`
	Procs    int        `json:"procs,omitempty"`
	Header   []string   `json:"header"`
	Rows     [][]string `json:"rows"`
	Failures []string   `json:"validation_failures,omitempty"`
}

// emit renders a table as JSON (one object per line) or as the titled
// aligned-text layout, per Options.JSON; with OutDir set it additionally
// writes the table to OutDir/BENCH_<table>.json, one file per table.
func (o Options) emit(w io.Writer, t Table) error {
	t.Schema = TableSchema
	t.Commit = o.Commit
	if o.OutDir != "" {
		data, err := json.Marshal(t)
		if err != nil {
			return err
		}
		path := filepath.Join(o.OutDir, "BENCH_"+t.Table+".json")
		if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
			return err
		}
	}
	if o.JSON {
		return json.NewEncoder(w).Encode(t)
	}
	fmt.Fprintln(w, t.Title)
	renderTable(w, t.Header, t.Rows)
	for _, f := range t.Failures {
		fmt.Fprintln(w, f)
	}
	return nil
}

func (o Options) normalize() Options {
	if o.Procs < 1 {
		o.Procs = 2
	}
	if o.Reps < 1 {
		o.Reps = 3
	}
	return o
}

func (o Options) scale(b *bench.Benchmark) bench.Scale {
	if o.Paper {
		return b.Paper
	}
	return b.Default
}

func (o Options) selected(pureOnly, impOnly bool) []*bench.Benchmark {
	var out []*bench.Benchmark
	for _, b := range bench.All() {
		if pureOnly && !b.Pure {
			continue
		}
		if impOnly && b.Pure {
			continue
		}
		if len(o.Names) > 0 {
			found := false
			for _, n := range o.Names {
				if n == b.Name {
					found = true
				}
			}
			if !found {
				continue
			}
		}
		out = append(out, b)
	}
	return out
}

// renderTable prints an aligned text table.
func renderTable(w io.Writer, header []string, rows [][]string) {
	widths := make([]int, len(header))
	for i, h := range header {
		widths[i] = len(h)
	}
	for _, r := range rows {
		for i, c := range r {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	line := func(cells []string) {
		parts := make([]string, len(cells))
		for i, c := range cells {
			parts[i] = fmt.Sprintf("%-*s", widths[i], c)
		}
		fmt.Fprintln(w, strings.TrimRight(strings.Join(parts, "  "), " "))
	}
	line(header)
	sep := make([]string, len(header))
	for i := range sep {
		sep[i] = strings.Repeat("-", widths[i])
	}
	line(sep)
	for _, r := range rows {
		line(r)
	}
}

func fmtSec(r bench.Result) string {
	return fmt.Sprintf("%.3f", r.Elapsed.Seconds())
}

func fmtRatio(num, den float64) string {
	if den == 0 {
		return "-"
	}
	return fmt.Sprintf("%.2f", num/den)
}

func fmtPct(f float64) string {
	return fmt.Sprintf("%.1f%%", 100*f)
}

type mismatch struct {
	bench  string
	system string
	got    uint64
	want   uint64
}

// benchTable renders the Figure 10 / Figure 11 layout for the given
// benchmark subset.
func benchTable(w io.Writer, o Options, name, title string, pureOnly bool) error {
	o = o.normalize()
	benches := o.selected(pureOnly, !pureOnly)
	var miss []mismatch

	header := []string{"benchmark", "Ts", "GCs"}
	var systems []rts.Mode
	if pureOnly {
		systems = []rts.Mode{rts.STW, rts.Manticore, rts.ParMem}
	} else {
		systems = []rts.Mode{rts.STW, rts.ParMem}
	}
	for _, m := range systems {
		p := fmt.Sprintf("%d", o.Procs)
		header = append(header,
			m.String()+":T1", "ovh", "T"+p, "spd")
		if m != rts.Manticore {
			header = append(header, "GC"+p)
		}
	}

	var rows [][]string
	for _, b := range benches {
		sc := o.scale(b)
		seqRes := bench.Measure(b, rts.DefaultConfig(rts.Seq, 1), sc, o.Reps)
		ts := seqRes.Elapsed.Seconds()
		row := []string{b.Name, fmtSec(seqRes), fmtPct(seqRes.GCFraction())}
		for _, m := range systems {
			r1 := bench.Measure(b, rts.DefaultConfig(m, 1), sc, o.Reps)
			rp := bench.Measure(b, rts.DefaultConfig(m, o.Procs), sc, o.Reps)
			for _, r := range []bench.Result{r1, rp} {
				if r.Checksum != seqRes.Checksum {
					miss = append(miss, mismatch{b.Name, m.String(), r.Checksum, seqRes.Checksum})
				}
			}
			row = append(row,
				fmtSec(r1), fmtRatio(r1.Elapsed.Seconds(), ts),
				fmtSec(rp), fmtRatio(ts, rp.Elapsed.Seconds()))
			if m != rts.Manticore {
				row = append(row, fmtPct(rp.GCFraction()))
			}
		}
		rows = append(rows, row)
	}
	tab := Table{Table: name, Title: title, Procs: o.Procs, Header: header, Rows: rows}
	for _, m := range miss {
		tab.Failures = append(tab.Failures, fmt.Sprintf(
			"VALIDATION FAILURE: %s on %s: checksum %x, want %x", m.bench, m.system, m.got, m.want))
	}
	if err := o.emit(w, tab); err != nil {
		return err
	}
	if !o.JSON && len(miss) == 0 {
		fmt.Fprintln(w, "validation: all systems agree on every checksum")
	}
	return nil
}

// Fig10 regenerates the pure-benchmark table.
func Fig10(w io.Writer, o Options) error {
	return benchTable(w, o, "fig10",
		"Figure 10: execution times, overheads, and speedups of purely functional benchmarks", true)
}

// Fig11 regenerates the imperative-benchmark table.
func Fig11(w io.Writer, o Options) error {
	return benchTable(w, o, "fig11",
		"Figure 11: execution times, overheads, and speedups of imperative benchmarks", false)
}

// Fig12 regenerates the speedup-versus-processors series for mlton-parmem.
func Fig12(w io.Writer, o Options) error {
	o = o.normalize()
	benches := o.selected(false, false)
	header := []string{"benchmark"}
	for p := 1; p <= o.Procs; p++ {
		header = append(header, fmt.Sprintf("P=%d", p))
	}
	var rows [][]string
	for _, b := range benches {
		sc := o.scale(b)
		seqRes := bench.Measure(b, rts.DefaultConfig(rts.Seq, 1), sc, o.Reps)
		ts := seqRes.Elapsed.Seconds()
		row := []string{b.Name}
		for p := 1; p <= o.Procs; p++ {
			rp := bench.Measure(b, rts.DefaultConfig(rts.ParMem, p), sc, o.Reps)
			row = append(row, fmtRatio(ts, rp.Elapsed.Seconds()))
		}
		rows = append(rows, row)
	}
	return o.emit(w, Table{Table: "fig12", Procs: o.Procs, Header: header, Rows: rows,
		Title: "Figure 12: speedups of mlton-parmem (series per benchmark)"})
}

// Fig13 regenerates the memory consumption and inflation table.
func Fig13(w io.Writer, o Options) error {
	o = o.normalize()
	benches := o.selected(false, false)
	header := []string{"benchmark", "Ms(MB)",
		"spoonhower:I1", fmt.Sprintf("I%d", o.Procs),
		"parmem:I1", fmt.Sprintf("I%d", o.Procs)}
	var rows [][]string
	for _, b := range benches {
		sc := o.scale(b)
		seqRes := bench.Measure(b, rts.DefaultConfig(rts.Seq, 1), sc, o.Reps)
		ms := float64(seqRes.Totals.PeakMem)
		row := []string{b.Name, fmt.Sprintf("%.1f", ms/(1<<20))}
		for _, m := range []rts.Mode{rts.STW, rts.ParMem} {
			r1 := bench.Measure(b, rts.DefaultConfig(m, 1), sc, o.Reps)
			rp := bench.Measure(b, rts.DefaultConfig(m, o.Procs), sc, o.Reps)
			row = append(row,
				fmtRatio(float64(r1.Totals.PeakMem), ms),
				fmtRatio(float64(rp.Totals.PeakMem), ms))
		}
		rows = append(rows, row)
	}
	return o.emit(w, Table{Table: "fig13", Procs: o.Procs, Header: header, Rows: rows,
		Title: "Figure 13: memory consumption (MB) and inflations"})
}

// Fig9 regenerates the representative-operations table from the actual
// operation counters of a hierarchical-heaps run.
func Fig9(w io.Writer, o Options) error {
	o = o.normalize()
	header := []string{"benchmark", "representative operation", "promotions", "promoted-bytes"}
	var rows [][]string
	for _, b := range o.selected(false, false) {
		res := bench.Run(b, rts.DefaultConfig(rts.ParMem, o.Procs), o.scale(b))
		rows = append(rows, []string{
			b.Name,
			res.Totals.Ops.Representative(),
			fmt.Sprintf("%d", res.Totals.Ops.WritePtrProm),
			fmt.Sprintf("%d", res.Totals.Ops.PromotedBytes()),
		})
	}
	return o.emit(w, Table{Table: "fig9", Procs: o.Procs, Header: header, Rows: rows,
		Title: "Figure 9: representative operations (from mlton-parmem op counters)"})
}

// ZoneTable reports the hierarchical collector's concurrency, the
// repository's extension beyond the paper's tables: for each benchmark a
// mlton-parmem run at P processors, with run-phase GC pause time separated
// from mutator processor time, and the zone-collection counters — total
// zones split into leaf (allocation safe point) and join (internal-node)
// collections, the peak number of zones in flight at once, and the wall
// time during which two or more zones overlapped.
func ZoneTable(w io.Writer, o Options) error {
	o = o.normalize()
	header := []string{"benchmark", "T_P", "mut-cpu(s)", "gc-cpu(s)", "gc%",
		"zones", "leaf", "join", "maxcc", "ovl(ms)"}
	var rows [][]string
	for _, b := range o.selected(false, false) {
		sc := o.scale(b)
		rp := bench.Measure(b, rts.DefaultConfig(rts.ParMem, o.Procs), sc, o.Reps)
		gcCPU := float64(rp.GCNanos) / 1e9
		mutCPU := float64(rp.Totals.Procs)*rp.Elapsed.Seconds() - gcCPU
		if mutCPU < 0 {
			mutCPU = 0
		}
		z := rp.Totals.Zones
		rows = append(rows, []string{
			b.Name, fmtSec(rp),
			fmt.Sprintf("%.3f", mutCPU),
			fmt.Sprintf("%.3f", gcCPU),
			fmtPct(rp.GCFraction()),
			fmt.Sprintf("%d", z.Zones),
			fmt.Sprintf("%d", z.LeafZones),
			fmt.Sprintf("%d", z.JoinZones),
			fmt.Sprintf("%d", z.MaxConcurrent),
			fmt.Sprintf("%.1f", float64(z.OverlapNanos)/1e6),
		})
	}
	return o.emit(w, Table{Table: "zones", Procs: o.Procs, Header: header, Rows: rows,
		Title: fmt.Sprintf("Zone concurrency: mlton-parmem collections at P=%d (pause vs mutator time)", o.Procs)})
}

// Fig8 regenerates the operation-cost matrix.
func Fig8(w io.Writer, o Options, iters int) error {
	if iters < 1 {
		iters = 200_000
	}
	rows := bench.Fig8Costs(iters)
	header := []string{"object", "operation", "ns/op"}
	var cells [][]string
	for _, r := range rows {
		cells = append(cells, []string{r.Object, r.Op, fmt.Sprintf("%.1f", r.NsPerOp)})
	}
	return o.emit(w, Table{Table: "fig8", Header: header, Rows: cells,
		Title: "Figure 8: costs of memory operations (ns/op, mlton-parmem, GC off)"})
}
