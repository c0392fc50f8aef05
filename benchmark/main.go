// Command benchmark is the repository's one benchmark: four long workloads
// against the default system under test, seven client-seen metrics with
// tracing off, and a second, traced pass that measures every layer from
// outside. README.md in this directory defines each metric and workload.
//
//	go run ./benchmark                  # every workload, both passes, one JSON document
//	go run ./benchmark -quick           # the same in a few seconds (smoke)
//	go run ./benchmark -compare A.json B.json
//	go run ./benchmark -spec            # prints BENCHMARK.json
//	bash benchmark/run.sh --workload serve-mix --seed 1 --seconds 15 --trace 0
//
// The last form is the driver's: one workload, one pass, the result as one
// JSON object on the last line of standard output.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"runtime"
	"slices"
	"strings"
)

func main() {
	workload := flag.String("workload", "", "run only this workload (default: all four)")
	seed := flag.Uint64("seed", 1, "base seed: request i carries seed+i")
	seconds := flag.Float64("seconds", runSeconds, "measured length of one pass; fixes the request counts")
	traceFlag := flag.Int("trace", -1, "driver mode: 0 prints the end-to-end metrics of the untraced pass, 1 the per-layer metrics of the traced pass")
	quick := flag.Bool("quick", false, "smoke run: each workload about a second, probes at minimum iterations")
	compare := flag.Bool("compare", false, "compare two documents: -compare A.json B.json")
	spec := flag.Bool("spec", false, "print BENCHMARK.json and exit")
	outDir := flag.String("out", "benchmark/out", "directory for the traced pass's Perfetto traces")
	flag.Parse()

	switch {
	case *spec:
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		enc.SetEscapeHTML(false)
		if err := enc.Encode(specFile()); err != nil {
			fatal(err)
		}
		return
	case *compare:
		if flag.NArg() != 2 {
			fatal(fmt.Errorf("usage: benchmark -compare A.json B.json"))
		}
		os.Exit(compareFiles(flag.Arg(0), flag.Arg(1)))
	}
	if err := hostGuard(); err != nil {
		fatal(err)
	}
	if *quick {
		*seconds = 1
	}
	names := workloadNames()
	if *workload != "" {
		if !slices.Contains(names, *workload) {
			fatal(fmt.Errorf("unknown workload %q (want %s)", *workload, strings.Join(names, "|")))
		}
		names = []string{*workload}
	}

	if *traceFlag >= 0 {
		if len(names) != 1 {
			fatal(fmt.Errorf("-trace needs -workload"))
		}
		if err := driverRun(names[0], *seed, *seconds, *traceFlag == 1, *quick, *outDir); err != nil {
			fatal(err)
		}
		return
	}
	doc, err := documentRun(names, *seed, *seconds, *quick, *outDir)
	if err != nil {
		fatal(err)
	}
	enc := json.NewEncoder(os.Stdout)
	enc.SetIndent("", "  ")
	if err := enc.Encode(doc); err != nil {
		fatal(err)
	}
	if !doc.Correct {
		os.Exit(1)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "benchmark:", err)
	os.Exit(2)
}

func workloadNames() []string {
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.Name
	}
	return names
}

// hostGuard refuses to measure P workers on fewer than P processors: the
// numbers would be the host's timeslicing, not the runtime.
func hostGuard() error {
	p := benchProcs()
	if runtime.NumCPU() < p || runtime.GOMAXPROCS(0) < p {
		return fmt.Errorf("host guard: P=%d workers need %d processors, have NumCPU=%d GOMAXPROCS=%d",
			p, p, runtime.NumCPU(), runtime.GOMAXPROCS(0))
	}
	return nil
}

// metricOut is one metric of the driver's result line.
type metricOut struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// driverRun is one pass over one workload in the driver's format: progress
// on standard error, the result as the last line of standard output.
func driverRun(workload string, seed uint64, seconds float64, traced, quick bool, outDir string) error {
	var res passResult
	var err error
	metrics := map[string]metricOut{}
	if traced {
		probes, err := runProbes(benchProcs(), quick)
		if err != nil {
			return err
		}
		if res, err = runTraced(workload, seed, seconds, probes, outDir); err != nil {
			return err
		}
		for _, spec := range perLayer {
			metrics[spec.Name] = metricOut{res.Layer[spec.Name], spec.Unit}
		}
	} else {
		if res, err = runUntraced(workload, seed, seconds); err != nil {
			return err
		}
		for _, spec := range endToEnd {
			metrics[spec.Name] = metricOut{res.value(spec), spec.Unit}
		}
	}
	for _, g := range res.Gate {
		fmt.Fprintln(os.Stderr, "benchmark: gate:", g)
	}
	line, err := json.Marshal(struct {
		Correct   bool                 `json:"correct"`
		Attempted int                  `json:"attempted"`
		Failed    int                  `json:"failed"`
		Metrics   map[string]metricOut `json:"metrics"`
	}{res.correct(), res.Attempted, res.failedInAll(), metrics})
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	return nil
}

// docMetric is one end-to-end metric of the document: its value, the
// per-repetition samples behind it, how unsettled they are
// (passResult.unsettled), and whether that exceeds the metric's bound —
// printed, never dropped.
type docMetric struct {
	Value   float64   `json:"value"`
	Unit    string    `json:"unit"`
	Samples []float64 `json:"samples"`
	Spread  float64   `json:"spread"`
	Bound   float64   `json:"bound"`
	Noisy   bool      `json:"noisy"`
}

type docWorkload struct {
	passResult
	Checksum    string               `json:"request_checksum"` // both passes' sum of correct replies: equal between runs of one seed and length
	TracedWallS float64              `json:"traced_wall_s"`
	EndToEnd    map[string]docMetric `json:"end_to_end"`
	PerLayer    map[string]metricOut `json:"per_layer"`
}

// document is `go run ./benchmark`'s output: one commit, one host, every
// metric by name and unit.
type document struct {
	Commit    string        `json:"commit"`
	GoVersion string        `json:"go_version"`
	NProc     int           `json:"nproc"`
	P         int           `json:"p"`
	Seed      uint64        `json:"seed"`
	Seconds   float64       `json:"seconds"`
	Correct   bool          `json:"correct"`
	Workloads []docWorkload `json:"workloads"`
}

func documentRun(names []string, seed uint64, seconds float64, quick bool, outDir string) (document, error) {
	doc := document{
		Commit: commit(), GoVersion: runtime.Version(), NProc: runtime.NumCPU(), P: benchProcs(),
		Seed: seed, Seconds: seconds, Correct: true,
	}
	// The probes do not depend on the workload: one set serves the document.
	fmt.Fprintln(os.Stderr, "benchmark: probes")
	probes, err := runProbes(doc.P, quick)
	if err != nil {
		return doc, err
	}
	for _, name := range names {
		fmt.Fprintf(os.Stderr, "benchmark: %s: end-to-end pass\n", name)
		un, err := runUntraced(name, seed, seconds)
		if err != nil {
			return doc, fmt.Errorf("%s: %w", name, err)
		}
		fmt.Fprintf(os.Stderr, "benchmark: %s: traced pass\n", name)
		tr, err := runTraced(name, seed, seconds, probes, outDir)
		if err != nil {
			return doc, fmt.Errorf("%s: %w", name, err)
		}
		w := docWorkload{passResult: un, TracedWallS: tr.WallS,
			Checksum: fmt.Sprintf("%#016x", un.checksum+tr.checksum),
			EndToEnd: map[string]docMetric{}, PerLayer: map[string]metricOut{}}
		w.Attempted += tr.Attempted
		w.Failed += tr.Failed
		w.Refused += tr.Refused
		w.Gate = append(w.Gate, tr.Gate...)
		for _, spec := range endToEnd {
			u := un.unsettled(spec)
			w.EndToEnd[spec.Name] = docMetric{un.value(spec), spec.Unit, un.Samples[spec.Name], u, spec.Bound, u > spec.Bound}
		}
		for _, spec := range perLayer {
			w.PerLayer[spec.Name] = metricOut{tr.Layer[spec.Name], spec.Unit}
		}
		// Both passes feed the verdict, so the document's fail_share covers
		// both too.
		w.PerLayer["fail_share"] = metricOut{w.failShare(), "ratio"}
		doc.Correct = doc.Correct && w.correct()
		doc.Workloads = append(doc.Workloads, w)
	}
	return doc, nil
}

// commit is the checkout's HEAD, "+dirty" when the tree differs from it,
// or "unknown" outside a git checkout (the driver's).
func commit() string {
	out, err := exec.Command("git", "rev-parse", "--short=12", "HEAD").Output()
	if err != nil {
		return "unknown"
	}
	rev := strings.TrimSpace(string(out))
	if st, err := exec.Command("git", "status", "--porcelain").Output(); err == nil && len(st) > 0 {
		rev += "+dirty"
	}
	return rev
}
