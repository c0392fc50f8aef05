package main

import (
	"errors"
	"testing"

	"repro/hh"
	"repro/internal/bench"
	"repro/internal/rts"
)

// TestOracleMatchesEveryMode proves the plain-Go oracle against the system
// it judges: every scenario at both request sizes the workloads use, 50 seeds, all four
// runtime modes.
func TestOracleMatchesEveryMode(t *testing.T) {
	const seeds = 50
	for _, mode := range hh.Modes {
		r := hh.New(hh.WithMode(mode), hh.WithProcs(2), hh.WithGCPolicy(2048, 1.25))
		for _, name := range scenarioNames {
			run, err := resolveRunner(name)
			if err != nil {
				t.Fatal(err)
			}
			for _, sz := range []int{requestSize, netSize} {
				for seed := uint64(1); seed <= seeds; seed++ {
					got, err := r.Submit(hh.SessionOpts{}, func(tk *hh.Task) uint64 { return run(tk, seed, sz) }).Wait()
					if err != nil {
						t.Fatalf("%v %s seed %d: %v", mode, name, seed, err)
					}
					if want := oracles[name](seed, sz); got != want {
						t.Fatalf("%v %s seed %d size %d: runtime %#x, oracle %#x", mode, name, seed, sz, got, want)
					}
				}
			}
		}
		r.Close()
	}
}

// TestAbortBodyRollsBackAsPredicted checks the abort scenario's contract:
// the first attempt of a conflicting seed fails with an *hh.AbortError
// carrying the seed, every other attempt commits to the oracle's value.
func TestAbortBodyRollsBackAsPredicted(t *testing.T) {
	r := hh.New(hh.WithMode(hh.ParMem), hh.WithProcs(2))
	defer r.Close()
	predicted := 0
	for seed := uint64(1); seed <= 50; seed++ {
		for attempt := 0; attempt < 2; attempt++ {
			ses := r.Submit(hh.SessionOpts{}, func(tk *hh.Task) uint64 { return abortBody(tk, seed, requestSize, attempt) })
			got, err := ses.Wait()
			if attempt == 0 && abortsFirstAttempt(seed) {
				predicted++
				var ab *hh.AbortError
				if !errors.As(err, &ab) || ab.Result != seed || !errors.Is(err, errConflict) {
					t.Fatalf("seed %d: want a conflict abort carrying the seed, got %v", seed, err)
				}
				if ses.WholesaleBytes() <= 0 {
					t.Fatalf("seed %d: the rollback released no memory", seed)
				}
				continue
			}
			if err != nil || got != oracleAbort(seed, requestSize) {
				t.Fatalf("seed %d attempt %d: got %#x, %v; oracle %#x", seed, attempt, got, err, oracleAbort(seed, requestSize))
			}
		}
	}
	if predicted == 0 {
		t.Fatal("no seed in 1..50 aborts: the scenario would never roll back")
	}
}

// TestExpectedChecksumsAcrossModes cross-checks expected.json against the
// four runtime modes at Default scale.
func TestExpectedChecksumsAcrossModes(t *testing.T) {
	expected, err := expectedChecksums()
	if err != nil {
		t.Fatal(err)
	}
	if len(expected) != len(programNames) {
		t.Fatalf("expected.json has %d programs, the workload runs %d", len(expected), len(programNames))
	}
	for _, name := range programNames {
		b, err := bench.ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		for _, mode := range hh.Modes {
			if got := bench.Run(b, rts.DefaultConfig(mode, 2), b.Default).Checksum; got != expected[name] {
				t.Errorf("%s in %v: checksum %#x, expected.json says %#x", name, mode, got, expected[name])
			}
		}
	}
}
