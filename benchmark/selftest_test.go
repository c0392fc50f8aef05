package main

import (
	"encoding/json"
	"os"
	"reflect"
	"regexp"
	"testing"
)

// TestBenchmarkFileMatchesSpec keeps BENCHMARK.json and spec.go one
// declaration: the file must be exactly what `-spec` prints.
func TestBenchmarkFileMatchesSpec(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var onDisk benchmarkFile
	if err := json.Unmarshal(data, &onDisk); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(onDisk, specFile()) {
		t.Fatal("BENCHMARK.json differs from spec.go; regenerate it with `go run ./benchmark -spec > BENCHMARK.json`")
	}
}

// TestSelfQuick runs the whole benchmark at -quick size and checks the
// document against BENCHMARK.json: every workload and every metric it
// names is present once with its unit, names are well formed, and every
// reply matched the oracle with the leak and balance gates holding.
func TestSelfQuick(t *testing.T) {
	if testing.Short() {
		t.Skip("runs all four workloads; skipped under -short")
	}
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var file benchmarkFile
	if err := json.Unmarshal(data, &file); err != nil {
		t.Fatal(err)
	}
	if err := hostGuard(); err != nil {
		t.Skip(err)
	}

	doc, err := documentRun(workloadNames(), 3, 1, true, t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	// Through JSON and back, as a reader of the document sees it.
	raw, err := json.Marshal(doc)
	if err != nil {
		t.Fatal(err)
	}
	var got struct {
		Workloads []struct {
			Workload string
			Failed   int
			Refused  int
			Gate     []string                         `json:"gate_violations"`
			EndToEnd map[string]struct{ Unit string } `json:"end_to_end"`
			PerLayer map[string]struct{ Unit string } `json:"per_layer"`
		}
	}
	if err := json.Unmarshal(raw, &got); err != nil {
		t.Fatal(err)
	}

	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	seen := map[string]int{}
	for _, w := range got.Workloads {
		seen[w.Workload]++
		// A refusal is the server shedding load on a busy test host, which
		// it is built to do; a wrong reply or a broken gate is a bug.
		if wrong := w.Failed - w.Refused; wrong != 0 {
			t.Errorf("%s: %d replies did not match the oracle", w.Workload, wrong)
		}
		if len(w.Gate) > 0 {
			t.Errorf("%s: gates: %v", w.Workload, w.Gate)
		}
		check := func(kind string, specs []metricSpec, have map[string]struct{ Unit string }) {
			if len(have) != len(specs) {
				t.Errorf("%s: %d %s metrics in the output, %d in BENCHMARK.json", w.Workload, len(have), kind, len(specs))
			}
			for _, s := range specs {
				if !name.MatchString(s.Name) {
					t.Errorf("metric name %q is malformed", s.Name)
				}
				if m, ok := have[s.Name]; !ok {
					t.Errorf("%s: %s metric %s missing from the output", w.Workload, kind, s.Name)
				} else if m.Unit != s.Unit {
					t.Errorf("%s: %s has unit %q, BENCHMARK.json says %q", w.Workload, s.Name, m.Unit, s.Unit)
				}
			}
		}
		check("end_to_end", file.EndToEnd, w.EndToEnd)
		check("per_layer", file.PerLayer, w.PerLayer)
	}
	for _, w := range file.Workloads {
		if !name.MatchString(w.Name) {
			t.Errorf("workload name %q is malformed", w.Name)
		}
		if seen[w.Name] != 1 {
			t.Errorf("workload %s appears %d times in the output", w.Name, seen[w.Name])
		}
	}
}
