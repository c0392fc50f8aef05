package trace

import (
	"encoding/json"
	"io"
	"os"
	"sort"
	"strconv"
	"time"
)

// Event is one decoded ring event in a Snapshot.
type Event struct {
	Nanos int64 // since Snapshot.Start
	Type  Type
	Phase Phase
	Track int // worker ID, or -1 for off-worker emitters
	Aux   uint32
	Span  uint64 // span ID pairing Begin/End; duration nanos for PhaseComplete
	Arg   uint64
}

// Snapshot is a consistent cut of the recorder: every event it contains was
// published at or before CutNanos, and within it no span ends before it
// begins. Events are sorted by timestamp.
type Snapshot struct {
	Start    time.Time // recorder epoch (wall clock)
	CutNanos int64     // cut time, nanos since Start
	Tracks   int       // worker track count (off-worker events have Track -1)
	Events   []Event
}

// TakeSnapshot drains every ring into a consistent cut. It returns nil when
// tracing is disabled. The recorder keeps running; producers are never
// blocked (events published during the drain are excluded by the cut
// filter, which is what makes the cut consistent: the cut time is captured
// BEFORE any ring is read, so an event is included iff it was published
// before the cut, regardless of drain order).
func TakeSnapshot() *Snapshot {
	r := active.Load()
	if r == nil {
		return nil
	}
	cut := int64(time.Since(r.start))
	var raw []rawEvent
	for _, rg := range r.rings {
		raw = rg.drain(raw)
	}
	s := &Snapshot{Start: r.start, CutNanos: cut, Tracks: r.tracks}
	s.Events = make([]Event, 0, len(raw))
	for _, e := range raw {
		if e.nanos() > cut {
			continue
		}
		// A complete span is published at its END; one that began before the
		// cut but ended after it would poke past the cut, so it is excluded.
		if e.phase() == PhaseComplete && e.nanos()+int64(e.span()) > cut {
			continue
		}
		s.Events = append(s.Events, Event{
			Nanos: e.nanos(), Type: e.typ(), Phase: e.phase(),
			Track: e.track(), Aux: e.aux(), Span: e.span(), Arg: e.arg(),
		})
	}
	sort.SliceStable(s.Events, func(i, j int) bool { return s.Events[i].Nanos < s.Events[j].Nanos })
	return s
}

// evInfo names each event type for export. cat groups tracks in Perfetto's
// search/filter UI.
var evInfo = [evCount]struct{ name, cat string }{
	EvZone:       {"zone-collect", "gc"},
	EvClimb:      {"promote-climb", "barrier"},
	EvSession:    {"session", "serve"},
	EvSubmit:     {"session-submit", "serve"},
	EvSTW:        {"stw-collect", "gc"},
	EvPoolRefill: {"pool-refill", "alloc"},
	EvShed:       {"shed", "serve"},
	EvDrain:      {"drain", "net"},
	EvQueue:      {"queue-wait", "serve"},
	EvRequest:    {"request", "client"},
	EvTxn:        {"txn-commit", "txn"},
}

var shedReasonNames = [...]string{"saturated", "tenant", "pressure", "draining"}
var drainScopeNames = [...]string{"server", "frontend"}
var zoneKindNames = [...]string{"leaf", "join"}

// chromeEvent is one entry of the Chrome trace-event format's traceEvents
// array (the subset Perfetto renders: X complete spans, i instants, M
// metadata). Timestamps and durations are in microseconds.
type chromeEvent struct {
	Name string         `json:"name"`
	Cat  string         `json:"cat,omitempty"`
	Ph   string         `json:"ph"`
	Ts   float64        `json:"ts"`
	Dur  *float64       `json:"dur,omitempty"`
	Pid  int            `json:"pid"`
	Tid  int            `json:"tid"`
	S    string         `json:"s,omitempty"`
	Args map[string]any `json:"args,omitempty"`
}

// tid maps a track to a Chrome thread ID: workers get 1..tracks, the shared
// off-worker track gets 0.
func tid(track int) int {
	if track < 0 {
		return 0
	}
	return track + 1
}

func micros(nanos int64) float64 { return float64(nanos) / 1e3 }

// spanArgs merges the begin- and end-side payloads of one span into the
// exported args map, named per event type.
func spanArgs(typ Type, begAux uint32, begArg uint64, endAux uint32, endArg uint64, closedAtCut bool) map[string]any {
	a := map[string]any{}
	switch typ {
	case EvZone:
		kind := int(begAux)
		if kind < len(zoneKindNames) {
			a["kind"] = zoneKindNames[kind]
		} else {
			a["kind"] = kind
		}
		a["heap"] = begArg
		a["words"] = endArg
	case EvClimb:
		a["depth"] = begArg
	case EvSession:
		a["session"] = begArg
		if endAux == 0 {
			a["outcome"] = "ok"
		} else {
			a["outcome"] = "failed"
		}
	case EvSTW:
		a["words"] = endArg
	case EvDrain:
		if int(begAux) < len(drainScopeNames) {
			a["scope"] = drainScopeNames[begAux]
		}
		if endAux != 0 {
			a["forced"] = true
		}
	case EvQueue:
		a["session"] = endArg
	case EvRequest:
		a["seq"] = begArg
		switch endAux {
		case 0:
			a["outcome"] = "ok"
		case 1:
			a["outcome"] = "shed"
		default:
			a["outcome"] = "error"
		}
	case EvTxn:
		a["seed"] = begArg
		if !closedAtCut {
			if endAux == 0 {
				a["outcome"] = "commit"
			} else {
				a["outcome"] = "abort"
			}
			a["staged_words"] = endArg
		}
	}
	if closedAtCut {
		a["open_at_cut"] = true
	}
	return a
}

func instantArgs(e Event) map[string]any {
	switch e.Type {
	case EvPoolRefill:
		return map[string]any{"class": e.Aux}
	case EvShed:
		a := map[string]any{"queued": e.Arg}
		if int(e.Aux) < len(shedReasonNames) {
			a["reason"] = shedReasonNames[e.Aux]
		} else {
			a["reason"] = e.Aux
		}
		return a
	case EvSubmit:
		return map[string]any{"session": e.Arg}
	}
	return nil
}

// ChromeEvents converts the snapshot into trace-event entries. Span pairs
// become "X" complete events placed on the BEGIN side's track (the End may
// run on a different goroutine). Begins whose End lies beyond the cut are
// closed at the cut and tagged open_at_cut; Ends whose Begin was overwritten
// in the ring are dropped. Both rules guarantee the output contains only
// balanced, fully-contained spans.
func (s *Snapshot) ChromeEvents() []chromeEvent {
	out := make([]chromeEvent, 0, len(s.Events)+s.Tracks+2)

	// Metadata: name the process and every track that carries events.
	seen := map[int]bool{}
	for _, e := range s.Events {
		seen[e.Track] = true
	}
	out = append(out, chromeEvent{Name: "process_name", Ph: "M", Pid: 1, Tid: 0,
		Args: map[string]any{"name": "hh runtime"}})
	tracks := make([]int, 0, len(seen))
	for t := range seen {
		tracks = append(tracks, t)
	}
	sort.Ints(tracks)
	for _, t := range tracks {
		name := "off-worker"
		if t >= 0 {
			name = "worker " + strconv.Itoa(t)
		}
		out = append(out, chromeEvent{Name: "thread_name", Ph: "M", Pid: 1, Tid: tid(t),
			Args: map[string]any{"name": name}})
	}

	begins := map[uint64]Event{}
	var spans []chromeEvent
	for _, e := range s.Events {
		switch e.Phase {
		case PhaseBegin:
			begins[e.Span] = e
		case PhaseEnd:
			b, ok := begins[e.Span]
			if !ok {
				continue // begin overwritten: drop the orphan end
			}
			delete(begins, e.Span)
			dur := micros(e.Nanos - b.Nanos)
			spans = append(spans, chromeEvent{
				Name: evInfo[b.Type].name, Cat: evInfo[b.Type].cat, Ph: "X",
				Ts: micros(b.Nanos), Dur: &dur, Pid: 1, Tid: tid(b.Track),
				Args: spanArgs(b.Type, b.Aux, b.Arg, e.Aux, e.Arg, false),
			})
		case PhaseComplete:
			dur := micros(int64(e.Span)) // span word carries the duration
			spans = append(spans, chromeEvent{
				Name: evInfo[e.Type].name, Cat: evInfo[e.Type].cat, Ph: "X",
				Ts: micros(e.Nanos), Dur: &dur, Pid: 1, Tid: tid(e.Track),
				Args: spanArgs(e.Type, e.Aux, e.Arg, 0, 0, false),
			})
		default:
			spans = append(spans, chromeEvent{
				Name: evInfo[e.Type].name, Cat: evInfo[e.Type].cat, Ph: "i",
				Ts: micros(e.Nanos), Pid: 1, Tid: tid(e.Track), S: "t",
				Args: instantArgs(e),
			})
		}
	}
	// Spans still open at the cut: close them at the cut time.
	for _, b := range begins {
		dur := micros(s.CutNanos - b.Nanos)
		spans = append(spans, chromeEvent{
			Name: evInfo[b.Type].name, Cat: evInfo[b.Type].cat, Ph: "X",
			Ts: micros(b.Nanos), Dur: &dur, Pid: 1, Tid: tid(b.Track),
			Args: spanArgs(b.Type, b.Aux, b.Arg, 0, 0, true),
		})
	}
	sort.SliceStable(spans, func(i, j int) bool { return spans[i].Ts < spans[j].Ts })
	return append(out, spans...)
}

// WriteJSON writes the snapshot as a Chrome trace-event JSON object
// ({"traceEvents": [...]}), loadable directly in Perfetto or
// chrome://tracing.
func (s *Snapshot) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	return enc.Encode(map[string]any{
		"traceEvents":     s.ChromeEvents(),
		"displayTimeUnit": "ms",
	})
}

// WriteFile snapshots the active recorder and writes it to path. It is the
// shared exit-path helper behind every -trace FILE flag. Returns without
// error (and without creating the file) when tracing is disabled.
func WriteFile(path string) error {
	s := TakeSnapshot()
	if s == nil {
		return nil
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := s.WriteJSON(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
