package load

import (
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

// TestScenariosAgreeUnderBarrierAblations replays every scenario with the
// write-barrier knobs at their extremes — fast paths ablated, promote
// buffer reduced to per-object climbs — and checks the checksums match the
// default configuration in both hierarchical modes. The fast paths and the
// batching are implementation details: they must never change a result.
func TestScenariosAgreeUnderBarrierAblations(t *testing.T) {
	type key struct {
		name string
		seed uint64
	}
	configs := []struct {
		label string
		opts  []hh.Option
	}{
		{"default", nil},
		{"nofastpath", []hh.Option{hh.WithoutBarrierFastPath()}},
		{"promote-buffer-1", []hh.Option{hh.WithPromoteBufferObjects(1)}},
	}
	for _, mode := range []hh.Mode{hh.ParMem, hh.Manticore} {
		want := map[key]uint64{}
		for _, cfg := range configs {
			opts := append([]hh.Option{hh.WithMode(mode), hh.WithProcs(2),
				hh.WithGCPolicy(2048, 1.25)}, cfg.opts...)
			r := hh.New(opts...)
			for _, sc := range All() {
				run := runnerFor(sc, 300)
				for seed := uint64(1); seed <= 2; seed++ {
					s := r.Submit(hh.SessionOpts{}, func(task *hh.Task) uint64 {
						return run(task, seed, 300)
					})
					got, err := s.Wait()
					if err != nil {
						t.Fatalf("%s/%s/%s seed %d: %v", mode, cfg.label, sc.Name, seed, err)
					}
					k := key{sc.Name, seed}
					if w, seen := want[k]; !seen {
						want[k] = got
					} else if got != w {
						t.Errorf("%s/%s/%s seed %d: checksum %x, want %x",
							mode, cfg.label, sc.Name, seed, got, w)
					}
				}
			}
			r.Close()
		}
	}
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
