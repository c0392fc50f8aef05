package main

import (
	"errors"
	"fmt"

	"repro/hh"
	"repro/internal/load"
)

// runner is one request body: hhserved's netserve.Runner shape.
type runner func(t *hh.Task, seed uint64, size int) uint64

// errConflict is the reason an abort request gives for rolling back.
var errConflict = errors.New("benchmark: staged intents failed validation")

// abortBody is the benchmark's own transactional request, written on the
// public hh API. It stages size intents into abortSlots chains in one
// task — no forks, so the session heap grows by the same chunks on every
// run and the bytes a rollback releases are a function of (seed, size)
// alone — then either aborts (first attempt of a conflicting seed) or
// commits by folding the chains. load's txn scenario is not used: its
// conflicts depend on how concurrent requests interleave.
func abortBody(t *hh.Task, seed uint64, size int, attempt int) uint64 {
	var sum uint64
	t.Scoped(func(sc *hh.Scope) {
		index := sc.Ref(t.AllocMut(abortSlots, 0, hh.TagArrPtr))
		for i := 0; i < size; i++ {
			t.Scoped(func(ws *hh.Scope) {
				key := hh.Hash64(seed + uint64(i))
				slot := int(key % abortSlots)
				head := ws.Ref(t.ReadMutPtr(index.Get(), slot))
				rec := t.Alloc(1, 2, hh.TagCons)
				t.InitWord(rec, 0, key)
				t.InitWord(rec, 1, key^seed)
				t.InitPtr(rec, 0, head.Get())
				t.WritePtr(index.Get(), slot, rec)
			})
		}
		if attempt == 0 && abortsFirstAttempt(seed) {
			t.Abort(seed, errConflict)
		}
		for slot := 0; slot < abortSlots; slot++ {
			for p := t.ReadMutPtr(index.Get(), slot); !p.IsNil(); p = t.ReadImmPtr(p, 0) {
				sum = sum*31 + t.ReadImmWord(p, 0) + t.ReadImmWord(p, 1)
			}
		}
	})
	return sum
}

// resolveRunner maps a scenario name to its body. The stateless load
// scenarios come from internal/load, exactly as hhserved resolves them;
// "abort" is the benchmark's own and "empty" is the probe body.
func resolveRunner(name string) (runner, error) {
	switch name {
	case "abort":
		// A committed run: attempt 0 is chosen by the closed loop, which
		// owns the request closure and calls abortBody directly.
		return func(t *hh.Task, seed uint64, size int) uint64 { return abortBody(t, seed, size, 1) }, nil
	case "empty":
		return func(*hh.Task, uint64, int) uint64 { return 0 }, nil
	}
	sc, err := load.ByName(name)
	if err != nil {
		return nil, err
	}
	if sc.Run == nil {
		return nil, fmt.Errorf("benchmark: scenario %q is stateful; the benchmark drives stateless bodies only", name)
	}
	return sc.Run, nil
}
