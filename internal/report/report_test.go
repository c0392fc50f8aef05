package report

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/bench"
	"repro/internal/rts"
)

func TestRenderTableAlignment(t *testing.T) {
	var sb strings.Builder
	renderTable(&sb, []string{"a", "long-header"}, [][]string{
		{"x", "1"},
		{"longer-cell", "2"},
	})
	out := sb.String()
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	if len(lines) != 4 {
		t.Fatalf("expected 4 lines, got %d:\n%s", len(lines), out)
	}
	if !strings.HasPrefix(lines[0], "a            long-header") {
		t.Fatalf("header misaligned: %q", lines[0])
	}
	if !strings.Contains(lines[1], "---") {
		t.Fatalf("separator missing: %q", lines[1])
	}
}

func TestOptionsSelection(t *testing.T) {
	o := Options{}.normalize()
	if o.Procs < 1 || o.Reps < 1 {
		t.Fatal("normalize must set defaults")
	}
	pure := o.selected(true, false)
	for _, b := range pure {
		if !b.Pure {
			t.Fatalf("%s is not pure", b.Name)
		}
	}
	imp := o.selected(false, true)
	for _, b := range imp {
		if b.Pure {
			t.Fatalf("%s is pure", b.Name)
		}
	}
	if len(pure)+len(imp) != 17 {
		t.Fatalf("pure %d + imperative %d != 17", len(pure), len(imp))
	}
	named := Options{Names: []string{"fib", "usp"}}.normalize().selected(false, false)
	if len(named) != 2 {
		t.Fatalf("name filter returned %d benchmarks", len(named))
	}
}

func TestOptionsScale(t *testing.T) {
	b, _ := bench.ByName("fib")
	if (Options{Paper: true}).scale(b) != b.Paper {
		t.Fatal("paper flag must select paper sizes")
	}
	if (Options{}).scale(b) != b.Default {
		t.Fatal("default sizes expected")
	}
}

func TestFig8Smoke(t *testing.T) {
	var sb strings.Builder
	if err := Fig8(&sb, Options{}, 500); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{"local", "distant", "promoted", "write-ptr-promoting"} {
		if !strings.Contains(out, want) {
			t.Fatalf("figure 8 output missing %q:\n%s", want, out)
		}
	}
}

func TestJSONEmission(t *testing.T) {
	var sb strings.Builder
	if err := Fig8(&sb, Options{JSON: true}, 500); err != nil {
		t.Fatal(err)
	}
	var tab Table
	if err := json.Unmarshal([]byte(sb.String()), &tab); err != nil {
		t.Fatalf("fig8 -json is not valid JSON: %v\n%s", err, sb.String())
	}
	if tab.Table != "fig8" || len(tab.Header) != 3 || len(tab.Rows) == 0 {
		t.Fatalf("unexpected payload: %+v", tab)
	}
	for _, row := range tab.Rows {
		if len(row) != len(tab.Header) {
			t.Fatalf("row/header width mismatch: %v vs %v", row, tab.Header)
		}
	}

	sb.Reset()
	o := Options{Procs: 2, Names: []string{"fib"}, JSON: true}
	if err := Fig9(&sb, o); err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal([]byte(sb.String()), &tab); err != nil {
		t.Fatalf("fig9 -json is not valid JSON: %v\n%s", err, sb.String())
	}
	if tab.Table != "fig9" || tab.Procs != 2 {
		t.Fatalf("unexpected payload: %+v", tab)
	}
}

func TestFig9Smoke(t *testing.T) {
	var sb strings.Builder
	o := Options{Procs: 2, Names: []string{"fib", "usp-tree"}}
	if err := Fig9(&sb, o); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	if !strings.Contains(out, "immutable reads") {
		t.Fatalf("fib row wrong:\n%s", out)
	}
	if !strings.Contains(out, "distant promoting writes") {
		t.Fatalf("usp-tree row wrong:\n%s", out)
	}
}

func TestZoneTableSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	var sb strings.Builder
	o := Options{Procs: 2, Reps: 1, Names: []string{"msort-pure"}}
	if err := ZoneTable(&sb, o); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{"zones", "leaf", "join", "maxcc", "mut-cpu(s)", "gc-cpu(s)", "msort-pure"} {
		if !strings.Contains(out, want) {
			t.Fatalf("zone table missing %q:\n%s", want, out)
		}
	}
}

func TestFig10SmokeValidates(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	var sb strings.Builder
	o := Options{Procs: 2, Reps: 1, Names: []string{"fib"}}
	if err := Fig10(&sb, o); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), "all systems agree") {
		t.Fatalf("validation line missing:\n%s", sb.String())
	}
	if !strings.Contains(sb.String(), rts.ParMem.String()) {
		t.Fatal("parmem column missing")
	}
}

func TestEmitStampsSchemaAndWritesOutDir(t *testing.T) {
	dir := t.TempDir()
	o := Options{JSON: true, OutDir: dir, Commit: "deadbeef"}
	var sb strings.Builder
	tab := Table{Table: "example", Title: "Example", Header: []string{"h"}, Rows: [][]string{{"v"}}}
	if err := o.emit(&sb, tab); err != nil {
		t.Fatal(err)
	}

	check := func(data []byte, where string) {
		var got Table
		if err := json.Unmarshal(data, &got); err != nil {
			t.Fatalf("%s: %v", where, err)
		}
		if got.Schema != TableSchema {
			t.Fatalf("%s schema = %q, want %q", where, got.Schema, TableSchema)
		}
		if got.Commit != "deadbeef" {
			t.Fatalf("%s commit = %q", where, got.Commit)
		}
		if got.Table != "example" || len(got.Rows) != 1 {
			t.Fatalf("%s round-trip mangled: %+v", where, got)
		}
	}
	check([]byte(sb.String()), "stdout")
	data, err := os.ReadFile(filepath.Join(dir, "BENCH_example.json"))
	if err != nil {
		t.Fatal(err)
	}
	check(data, "out file")
}

func TestEmitTextModeStillWritesOutDir(t *testing.T) {
	dir := t.TempDir()
	o := Options{OutDir: dir}
	var sb strings.Builder
	if err := o.emit(&sb, Table{Table: "t2", Title: "T2", Header: []string{"h"}}); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), "T2") {
		t.Fatal("text rendering suppressed by OutDir")
	}
	if _, err := os.Stat(filepath.Join(dir, "BENCH_t2.json")); err != nil {
		t.Fatal(err)
	}
}
