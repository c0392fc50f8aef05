package rts

import (
	"bytes"
	"encoding/json"
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/gc"
	"repro/internal/mem"
	"repro/internal/trace"
)

// TestTraceSnapshotDuringZoneCollections runs the zone stress with the
// flight recorder enabled and takes snapshots WHILE collections are in
// flight: every snapshot must be a consistent cut (no event past the cut,
// paired zone begin/end in order), and the exported JSON must contain only
// balanced complete spans. The final snapshot must actually contain zone
// and climb events — the emit points are wired, not just compiled.
func TestTraceSnapshotDuringZoneCollections(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))
	cfg := DefaultConfig(ParMem, 4)
	cfg.Policy = gc.Policy{MinWords: 4096, Ratio: 1.2}
	cfg.TraceBufEvents = 1 << 12

	var running atomic.Bool
	running.Store(true)
	snaps := make(chan *trace.Snapshot, 64)
	go func() {
		defer close(snaps)
		for running.Load() {
			if s := trace.TakeSnapshot(); s != nil {
				select {
				case snaps <- s:
				default: // keep draining even if the checker lags
				}
			}
			time.Sleep(time.Millisecond)
		}
		snaps <- trace.TakeSnapshot() // the final, full snapshot
	}()

	ok, st := runZoneStress(t, cfg, 6, 2500)
	running.Store(false)
	if ok != 1 {
		t.Fatal("data corruption under traced zone collection")
	}
	if st.Zones.Zones == 0 {
		t.Fatal("stress ran no zone collections")
	}

	var last *trace.Snapshot
	checked := 0
	for s := range snaps {
		if s == nil {
			continue
		}
		last = s
		checked++
		begins := map[uint64]trace.Event{}
		for _, e := range s.Events {
			if e.Nanos > s.CutNanos {
				t.Fatalf("event at %d past the cut %d", e.Nanos, s.CutNanos)
			}
			switch e.Phase {
			case trace.PhaseBegin:
				begins[e.Span] = e
			case trace.PhaseEnd:
				// A begin may have been overwritten in the ring (the export
				// layer drops such orphans); when it survives it must not
				// follow its end.
				if b, found := begins[e.Span]; found && b.Nanos > e.Nanos {
					t.Fatalf("span %d begins at %d after its end at %d", e.Span, b.Nanos, e.Nanos)
				}
			}
		}
	}
	if checked == 0 || last == nil {
		t.Fatal("no snapshots taken during the run")
	}

	zones, climbs := 0, 0
	for _, e := range last.Events {
		switch {
		case e.Type == trace.EvZone && e.Phase == trace.PhaseBegin:
			zones++
		case e.Type == trace.EvClimb:
			climbs++
		}
	}
	if zones == 0 || climbs == 0 {
		t.Fatalf("final snapshot missing runtime events: %d zone begins, %d climb begins (of %d events)",
			zones, climbs, len(last.Events))
	}

	// The exported form must hold only balanced spans: every X carries a
	// non-negative duration and lies inside the cut; no B/E halves leak.
	var buf bytes.Buffer
	if err := last.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var tf struct {
		TraceEvents []struct {
			Name string   `json:"name"`
			Ph   string   `json:"ph"`
			Ts   float64  `json:"ts"`
			Dur  *float64 `json:"dur"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &tf); err != nil {
		t.Fatal(err)
	}
	cutUs := float64(last.CutNanos) / 1e3
	sawZone := false
	for _, e := range tf.TraceEvents {
		switch e.Ph {
		case "M", "i":
		case "X":
			if e.Dur == nil || *e.Dur < 0 {
				t.Fatalf("unbalanced span %q in export", e.Name)
			}
			if e.Ts < 0 || e.Ts+*e.Dur > cutUs+0.001 {
				t.Fatalf("span %q [%f, %f] outside cut %f", e.Name, e.Ts, e.Ts+*e.Dur, cutUs)
			}
			if e.Name == "zone-collect" {
				sawZone = true
			}
		default:
			t.Fatalf("unexpected phase %q in export", e.Ph)
		}
	}
	if !sawZone {
		t.Fatal("export contains no zone-collect spans")
	}
}

// TestTracedClimbSpans: with the flight recorder on, every promoting write
// of a ParMem body is one EvClimb complete span, and the spans' durations
// add up to the runtime's PromoteNanos exactly — the trace and the counter
// take the same clock readings.
func TestTracedClimbSpans(t *testing.T) {
	const n = 200 // well inside one ring, so no span is overwritten
	cfg := DefaultConfig(ParMem, 1)
	cfg.TraceBufEvents = 1 << 12
	r := New(cfg)
	defer r.Close()
	r.Run(func(task *Task) uint64 {
		cell := task.AllocMut(1, 0, mem.TagRef)
		mark := task.PushRoot(&cell)
		defer task.PopRoots(mark)
		task.ForkJoinScalar(cell, func(t *Task, cell mem.ObjPtr) uint64 {
			for i := 0; i < n; i++ {
				t.WritePtr(cell, 0, t.Alloc(0, 1, mem.TagRef)) // leaf into the session heap
			}
			return 0
		}, func(*Task, mem.ObjPtr) uint64 { return 0 })
		return 0
	})
	snap := trace.TakeSnapshot()
	ops := r.Stats().Ops
	spans, nanos := 0, int64(0)
	for _, e := range snap.Events {
		if e.Type != trace.EvClimb {
			continue
		}
		if e.Phase != trace.PhaseComplete {
			t.Fatalf("climb event %+v is not a complete span", e)
		}
		spans++
		nanos += int64(e.Span)
	}
	if spans != n || ops.WritePtrProm != n {
		t.Fatalf("%d climb spans for %d promoting writes, want %d each", spans, ops.WritePtrProm, n)
	}
	if nanos != ops.PromoteNanos {
		t.Fatalf("climb spans sum to %d ns, PromoteNanos is %d", nanos, ops.PromoteNanos)
	}
}
