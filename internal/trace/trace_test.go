package trace

import (
	"bytes"
	"encoding/json"
	"sync"
	"testing"
	"time"
)

// TestDisabledIsInert: with no recorder installed, every entry point is a
// no-op — Begin hands back the 0 sentinel, snapshots are nil.
func TestDisabledIsInert(t *testing.T) {
	if Enabled() {
		t.Fatal("tracing enabled at test start")
	}
	if span := Begin(0, EvZone, 0, 0); span != 0 {
		t.Fatalf("Begin while disabled returned %d, want 0", span)
	}
	Emit(0, EvShed, 0, 0)
	End(0, EvZone, 0, 0, 0)
	Complete(0, EvClimb, time.Now(), time.Microsecond, 0, 0)
	if s := TakeSnapshot(); s != nil {
		t.Fatalf("TakeSnapshot while disabled returned %v, want nil", s)
	}
}

// TestStartIsExclusive: the first Start wins; a second caller must not
// install (and must not later Stop the first owner's recorder).
func TestStartIsExclusive(t *testing.T) {
	if !Start(2, 64) {
		t.Fatal("first Start refused")
	}
	t.Cleanup(Stop)
	if Start(2, 64) {
		t.Fatal("second Start succeeded; recorder must be exclusive")
	}
	if !Enabled() {
		t.Fatal("not enabled after Start")
	}
}

// TestRingWraparoundConcurrent hammers a deliberately tiny ring from many
// goroutines so slots are overwritten thousands of times mid-read, then
// checks that every event a snapshot returns is intact: a valid type, a
// plausible track, a timestamp within the cut. Run under -race this also
// proves the seqlock publish/drain protocol is data-race-free.
func TestRingWraparoundConcurrent(t *testing.T) {
	const (
		workers   = 8
		perWorker = 5000
		ringSize  = 64 // perWorker >> ringSize: guaranteed wraparound
	)
	if !Start(workers, ringSize) {
		t.Fatal("Start refused")
	}
	t.Cleanup(Stop)

	var producers, readers sync.WaitGroup
	stop := make(chan struct{})
	// Concurrent snapshots while producers wrap the rings.
	readers.Add(1)
	go func() {
		defer readers.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			s := TakeSnapshot()
			for _, e := range s.Events {
				if e.Type == EvNone || e.Type >= evCount {
					t.Errorf("torn event: type %d", e.Type)
				}
				if e.Nanos > s.CutNanos {
					t.Errorf("event at %d published after cut %d", e.Nanos, s.CutNanos)
				}
				if e.Track < -1 || e.Track >= workers {
					t.Errorf("bad track %d", e.Track)
				}
			}
		}
	}()
	for w := 0; w < workers; w++ {
		producers.Add(1)
		go func(w int) {
			defer producers.Done()
			for i := 0; i < perWorker; i++ {
				switch i % 3 {
				case 0:
					Emit(w, EvPoolRefill, uint32(i), uint64(i))
				case 1:
					span := Begin(w, EvZone, 0, uint64(i))
					End(w, EvZone, span, 0, uint64(i))
				default:
					Emit(-1, EvShed, ShedSaturated, uint64(i))
				}
			}
		}(w)
	}
	producers.Wait()
	close(stop)
	readers.Wait()

	s := TakeSnapshot()
	if len(s.Events) == 0 {
		t.Fatal("empty snapshot after heavy emit")
	}
	for i := 1; i < len(s.Events); i++ {
		if s.Events[i].Nanos < s.Events[i-1].Nanos {
			t.Fatalf("snapshot not time-sorted at %d", i)
		}
	}
}

// TestExportBalancedSpans snapshots WHILE span emitters are live and
// asserts the exported Chrome events are balanced by construction: only
// "X"/"i"/"M" phases, every X fully inside [0, cut], never a dangling
// begin or end.
func TestExportBalancedSpans(t *testing.T) {
	if !Start(4, 256) {
		t.Fatal("Start refused")
	}
	t.Cleanup(Stop)

	var wg sync.WaitGroup
	stop := make(chan struct{})
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				span := Begin(w, EvZone, uint32(i%2), uint64(i))
				Emit(w, EvPoolRefill, 3, 0)
				start := time.Now()
				Complete(w, EvClimb, start, time.Since(start), 0, 2)
				End(w, EvZone, span, 0, uint64(i*10))
			}
		}(w)
	}

	for round := 0; round < 20; round++ {
		s := TakeSnapshot()
		var buf bytes.Buffer
		if err := s.WriteJSON(&buf); err != nil {
			t.Fatalf("WriteJSON: %v", err)
		}
		var doc struct {
			TraceEvents []struct {
				Ph  string   `json:"ph"`
				Ts  float64  `json:"ts"`
				Dur *float64 `json:"dur"`
			} `json:"traceEvents"`
		}
		if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
			t.Fatalf("export is not valid JSON: %v", err)
		}
		cutUs := float64(s.CutNanos) / 1e3
		for _, e := range doc.TraceEvents {
			switch e.Ph {
			case "M":
			case "i":
				if e.Ts < 0 || e.Ts > cutUs {
					t.Fatalf("instant at %v outside [0, %v]", e.Ts, cutUs)
				}
			case "X":
				if e.Dur == nil || *e.Dur < 0 {
					t.Fatalf("X event with missing/negative dur")
				}
				if e.Ts < 0 || e.Ts+*e.Dur > cutUs+0.001 {
					t.Fatalf("span [%v, %v] escapes the cut %v", e.Ts, e.Ts+*e.Dur, cutUs)
				}
			default:
				t.Fatalf("unbalanced phase %q in export (only X/i/M may appear)", e.Ph)
			}
		}
	}
	close(stop)
	wg.Wait()
}

// TestEmitDoesNotAllocate: the enabled emit paths must be allocation-free —
// a flight recorder that allocates per event distorts the heap it is
// watching.
func TestEmitDoesNotAllocate(t *testing.T) {
	if !Start(2, 1024) {
		t.Fatal("Start refused")
	}
	t.Cleanup(Stop)
	if n := testing.AllocsPerRun(1000, func() {
		Emit(1, EvPoolRefill, 7, 42)
	}); n != 0 {
		t.Fatalf("Emit allocates %v per call, want 0", n)
	}
	if n := testing.AllocsPerRun(1000, func() {
		span := Begin(0, EvZone, 0, 8)
		End(0, EvZone, span, 0, 3)
	}); n != 0 {
		t.Fatalf("Begin/End allocate %v per call, want 0", n)
	}
	begin := time.Now()
	if n := testing.AllocsPerRun(1000, func() {
		Complete(0, EvClimb, begin, time.Microsecond, 0, 4)
	}); n != 0 {
		t.Fatalf("Complete allocates %v per call, want 0", n)
	}
	if n := testing.AllocsPerRun(1000, func() {
		if Enabled() {
			Emit(-1, EvShed, ShedTenant, 1)
		}
	}); n != 0 {
		t.Fatalf("guarded emit allocates %v per call, want 0", n)
	}
}
