package load

import (
	"fmt"
	"testing"

	"repro/hh"
)

func TestParseMix(t *testing.T) {
	m, err := ParseMixWith(Params{}, "kv=2,bfs=1,hist=1")
	if err != nil {
		t.Fatal(err)
	}
	if m.Len() != 4 {
		t.Fatalf("mix len %d, want 4 weight-expanded entries", m.Len())
	}
	if m.Pick(3).Name != m.Pick(3).Name {
		t.Fatal("Pick must be deterministic")
	}
	if _, err := ParseMixWith(Params{}, "nope"); err == nil {
		t.Fatal("unknown scenario accepted")
	}
	if _, err := ParseMixWith(Params{}, "kv=0"); err == nil {
		t.Fatal("zero weight accepted")
	}
	m, err = ParseMixWith(Params{TxnKeys: 32}, "txn=2,stream=1,rank=1")
	if err != nil {
		t.Fatal(err)
	}
	if m.Len() != 4 {
		t.Fatalf("mix len %d, want 4", m.Len())
	}
}

// runnerFor returns a request runner for sc, instantiating stateful
// scenarios fresh — a sequential replay has no concurrent conflicts, so
// every transaction commits and the checksum stays a pure function of
// (seed, size).
func runnerFor(sc Scenario, size int) func(*hh.Task, uint64, int) uint64 {
	if sc.NewRun != nil {
		return sc.NewRun(size).Run
	}
	return sc.Run
}

// TestScenariosDeterministicAcrossModes replays the same requests in every
// runtime mode and checks the checksums agree — the property hhload's
// cross-mode validation relies on.
func TestScenariosDeterministicAcrossModes(t *testing.T) {
	type key struct {
		name string
		seed uint64
	}
	want := map[key]uint64{}
	for _, mode := range hh.Modes {
		r := hh.New(hh.WithMode(mode), hh.WithProcs(2), hh.WithGCPolicy(2048, 1.25))
		for _, sc := range All() {
			run := runnerFor(sc, 300)
			for seed := uint64(1); seed <= 2; seed++ {
				s := r.Submit(hh.SessionOpts{}, func(task *hh.Task) uint64 {
					return run(task, seed, 300)
				})
				got, err := s.Wait()
				if err != nil {
					t.Fatalf("%s/%s seed %d: %v", mode, sc.Name, seed, err)
				}
				k := key{sc.Name, seed}
				if w, seen := want[k]; !seen {
					want[k] = got
				} else if got != w {
					t.Errorf("%s/%s seed %d: checksum %x, want %x", mode, sc.Name, seed, got, w)
				}
			}
		}
		r.Close()
	}
}

// TestAllocInScenariosAgreeAcrossModes replays the born-in-place
// scenarios (kv, bfs, fan, stream) in all four modes at P=2 and P=8, and
// checks one checksum per request throughout. In ParMem their records are
// born in the heap they are published to, so nothing may promote.
func TestAllocInScenariosAgreeAcrossModes(t *testing.T) {
	want := map[string]uint64{}
	for _, procs := range []int{2, 8} {
		for _, mode := range hh.Modes {
			r := hh.New(hh.WithMode(mode), hh.WithProcs(procs), hh.WithGCPolicy(2048, 1.25), hh.WithInvariantChecks())
			for _, name := range []string{"kv", "bfs", "fan", "stream"} {
				sc, _ := ByName(name)
				for seed := uint64(1); seed <= 3; seed++ {
					got, err := r.Submit(hh.SessionOpts{}, func(task *hh.Task) uint64 {
						return sc.Run(task, seed, 640)
					}).Wait()
					if err != nil {
						t.Fatalf("%s P=%d %s seed %d: %v", mode, procs, name, seed, err)
					}
					k := fmt.Sprintf("%s/%d", name, seed)
					if w, seen := want[k]; !seen {
						want[k] = got
					} else if got != w {
						t.Errorf("%s P=%d %s: checksum %x, want %x", mode, procs, k, got, w)
					}
				}
			}
			if p := r.Stats().Ops.WritePtrProm; mode == hh.ParMem && p != 0 {
				t.Errorf("ParMem P=%d: %d promotions; want none", procs, p)
			}
			r.Close()
		}
	}
}
