package main

import (
	_ "embed"
	"encoding/json"
	"fmt"
	"strconv"
	"time"

	"repro/hh"
	"repro/internal/bench"
	"repro/internal/mem"
	"repro/internal/rts"
	"repro/internal/trace"
)

// expectedJSON holds forkjoin-paper's checksums at Default scale. The
// programs' inputs are fixed by their Scale, so the values are constants;
// oracle_test.go cross-checks them against every runtime mode.
//
//go:embed expected.json
var expectedJSON []byte

func expectedChecksums() (map[string]uint64, error) {
	var hex map[string]string
	if err := json.Unmarshal(expectedJSON, &hex); err != nil {
		return nil, fmt.Errorf("benchmark: expected.json: %w", err)
	}
	out := map[string]uint64{}
	for name, h := range hex {
		v, err := strconv.ParseUint(h, 0, 64)
		if err != nil {
			return nil, fmt.Errorf("benchmark: expected.json: %s: %w", name, err)
		}
		out[name] = v
	}
	return out, nil
}

// batchLoop drives forkjoin-paper: one fork-join program on the whole
// runtime, a fresh rts.New per run, no sessions and no server. One
// "request" is one cycle of the four programs; its latency is the sum of
// their timed Run phases. Setup and Check are excluded, as in paper §4.
// The seed permutes the order of the programs within a cycle and nothing
// else.
type batchLoop struct {
	o        loopOpts
	progs    []*bench.Benchmark // in this run's order
	expected map[string]uint64
	bad      []string
}

func newBatchLoop(o loopOpts) (*batchLoop, error) {
	expected, err := expectedChecksums()
	if err != nil {
		return nil, err
	}
	l := &batchLoop{o: o, expected: expected}
	for _, name := range programNames {
		b, err := bench.ByName(name)
		if err != nil {
			return nil, err
		}
		l.progs = append(l.progs, b)
	}
	// Fisher–Yates on the seed's hash stream.
	for i := len(l.progs) - 1; i > 0; i-- {
		j := int(hash64(o.seed+uint64(i)) % uint64(i+1))
		l.progs[i], l.progs[j] = l.progs[j], l.progs[i]
	}
	return l, nil
}

// config is the paper's shape: rts defaults (its GC policy included) at P
// workers in the hierarchical mode, recorder armed as hh.WithTrace(0)
// would arm it.
func (l *batchLoop) config() rts.Config {
	cfg := rts.DefaultConfig(l.o.mode, l.o.procs)
	if l.o.traced {
		cfg.TraceBufEvents = trace.DefaultBufEvents
	}
	return cfg
}

func (l *batchLoop) setup() error {
	mem.DrainChunkPool()
	for c := 0; c < l.o.warm; c++ {
		for _, b := range l.progs {
			if out := l.runProgram(b, ""); out.checksum != l.expected[b.Name] {
				return fmt.Errorf("benchmark: warm-up %s returned %#x, expected %#x", b.Name, out.checksum, l.expected[b.Name])
			}
		}
	}
	return nil
}

type progOut struct {
	elapsed  time.Duration // timed Run phase
	cpu      time.Duration // process CPU over the Run phase
	gcNanos  int64         // collection time inside the Run phase
	checksum uint64
	totals   hh.Stats
}

// runProgram is bench.Run with the Run phase's CPU time, a leak check and
// the recorder's export added, through the Benchmark's public fields.
func (l *batchLoop) runProgram(b *bench.Benchmark, traceOut string) progOut {
	base := hh.ChunksInUse()
	r := rts.New(l.config())
	var out progOut
	var gcSetup int64
	sc := b.Default
	r.Run(func(t *rts.Task) uint64 {
		env := b.Setup(t, sc)
		mark := t.PushRoot(&env)
		gcSetup = t.GCNanosSoFar()
		cpu0, start := cpuTime(), time.Now()
		res := b.Run(t, env, sc)
		out.elapsed, out.cpu = time.Since(start), cpuTime()-cpu0
		t.PushRoot(&res)
		out.checksum = b.Check(t, env, res, sc)
		t.PopRoots(mark)
		return out.checksum
	})
	out.totals = r.Stats()
	out.gcNanos = out.totals.GCNanos - gcSetup
	l.bad = append(l.bad, exportTrace(traceOut)...)
	r.Close()
	if now := hh.ChunksInUse(); now != base {
		l.bad = append(l.bad, fmt.Sprintf("%s: chunk leak: %d chunks in use after Close, %d before New", b.Name, now, base))
	}
	return out
}

func (l *batchLoop) rep() repOut {
	n := l.o.perRep
	out := repOut{latMs: make([]float64, n), byKind: map[string][]float64{}, gcShare: map[string][]float64{}}
	for c := 0; c < n; c++ {
		var cycle time.Duration
		ok := true
		for pi, b := range l.progs {
			traceOut := ""
			if c == n-1 && pi == len(l.progs)-1 {
				traceOut = l.o.traceOut // each run has its own runtime and recorder: the last one is kept
			}
			p := l.runProgram(b, traceOut)
			if p.checksum != l.expected[b.Name] {
				ok = false
				continue
			}
			out.checksum += p.checksum
			cycle += p.elapsed
			out.cpu += p.cpu
			run, gc := "forkjoin."+b.Name+".run_ms", "forkjoin."+b.Name+".gc_share"
			out.byKind[run] = append(out.byKind[run], ms(p.elapsed))
			out.gcShare[gc] = append(out.gcShare[gc],
				ratio(float64(p.gcNanos), float64(p.totals.Procs)*float64(p.elapsed)))
			sumStats(&out.stats.tot, p.totals)
		}
		if !ok {
			out.failed++
			out.latMs[c] = -1
			continue
		}
		out.latMs[c] = ms(cycle)
		out.wall += cycle // throughput is over the timed Run phases only
	}
	// One parallel program owns all P workers for its timed Run phase. (The
	// counters also cover Setup and Check, which this wall time does not,
	// so the budget's explained share reads high.)
	out.bodyWall = out.wall * time.Duration(l.o.procs)
	return out
}

func (l *batchLoop) teardown() []string { return l.bad }
