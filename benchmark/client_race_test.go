package main

import (
	"testing"

	"repro/hh"
)

// TestPipelinedClientWriterReader drives net-small's client — one writer
// goroutine calling Send/Flush and one reader goroutine calling Recv on the
// same netserve.Client — so that `go test -race` sees the pair. The two
// sides share no buffer (Send/Flush use the Client's bufio.Writer, Recv its
// bufio.Reader), and the result arrays are written at disjoint indices.
func TestPipelinedClientWriterReader(t *testing.T) {
	for _, traced := range []bool{false, true} {
		l := newOpenLoop(loopOpts{workload: "net-small", mode: hh.ParMem, procs: 2,
			traced: traced, seed: 7, warm: 50, perRep: 600}, 4000)
		if err := l.setup(); err != nil {
			t.Fatal(err)
		}
		out := l.rep()
		if wrong := out.failed - out.refused; wrong != 0 {
			t.Errorf("traced=%v: %d of %d replies were wrong", traced, wrong, len(out.latMs))
		}
		if traced && len(out.spans["span.netserve.ingress"]) == 0 {
			t.Error("traced pass stamped no spans")
		}
		if out.bodyWall <= 0 && traced {
			t.Error("traced pass measured no body time")
		}
		if bad := l.teardown(); len(bad) > 0 {
			t.Errorf("traced=%v: gates: %v", traced, bad)
		}
	}
}
