package main

import (
	"context"
	"fmt"
	"net"
	"time"

	"repro/hh"
	"repro/hh/serve"
	"repro/hh/serve/netserve"
	"repro/internal/gc"
	"repro/internal/heap"
	"repro/internal/mem"
	"repro/internal/sched"
)

// Probes time one public call of one layer in isolation, from outside.
// Each is the median of probeSamples samples of at least probeTarget each;
// -quick takes one short sample.

const (
	probeSamples = 5
	probeTarget  = 60 * time.Millisecond
	quickTarget  = 2 * time.Millisecond

	// allocProbeCap bounds the iterations of probes that allocate with
	// collection off, so a sample stays within a few megabytes.
	allocProbeCap = 200_000
)

type prober struct {
	samples int
	target  time.Duration
	out     map[string]float64
}

// time runs op(n) — n back-to-back calls — and records the median
// nanoseconds per call under name, scaled by 1/div (1000 for a metric in
// microseconds). n is sized from a short trial to fill the sample target,
// up to maxIters (0 = unbounded).
func (p *prober) time(name string, div float64, maxIters int, op func(n int)) {
	n := 64
	for {
		start := time.Now()
		op(n)
		el := time.Since(start)
		if el >= p.target/8 || (maxIters > 0 && n >= maxIters) {
			if want := int(float64(n) * float64(p.target) / float64(el+1)); want > n {
				n = want
			}
			break
		}
		n *= 4
	}
	if maxIters > 0 && n > maxIters {
		n = maxIters
	}
	per := make([]float64, p.samples)
	for i := range per {
		start := time.Now()
		op(n)
		per[i] = float64(time.Since(start)) / float64(n) / div
	}
	p.out[name] = median(per)
}

func runProbes(procs int, quick bool) (map[string]float64, error) {
	p := &prober{samples: probeSamples, target: probeTarget, out: map[string]float64{}}
	if quick {
		p.samples, p.target = 1, quickTarget
	}
	probeMemHeapGC(p)
	probeCore(p, procs)
	probeSched(p, procs)
	if err := probeFrontLayers(p, procs); err != nil {
		return nil, err
	}
	return p.out, nil
}

// probeMemHeapGC times mem, heap and gc through their package functions;
// none of them needs a Runtime.
func probeMemHeapGC(p *prober) {
	cc := mem.NewChunkCache(0)
	p.time("probe.mem.chunk_cache_roundtrip_ns", 1, 0, func(n int) {
		for i := 0; i < n; i++ {
			mem.RecycleChunk(cc, mem.AcquireChunk(cc, mem.MinChunkWords))
		}
	})
	cc.Flush()
	p.time("probe.mem.chunk_pool_roundtrip_ns", 1, 0, func(n int) {
		for i := 0; i < n; i++ {
			mem.RecycleChunk(nil, mem.AcquireChunk(nil, mem.MinChunkWords))
		}
	})

	root := heap.NewRoot()
	obj := root.FreshObj(0, 1, mem.TagRef)
	var sinkChunk *mem.Chunk
	p.time("probe.mem.get_chunk_ns", 1, 0, func(n int) {
		for i := 0; i < n; i++ {
			sinkChunk = mem.GetChunk(obj.ChunkID())
		}
	})
	var sinkHeap *heap.Heap
	p.time("probe.heap.of_ns", 1, 0, func(n int) {
		for i := 0; i < n; i++ {
			sinkHeap = heap.Of(obj)
		}
	})
	_, _ = sinkChunk, sinkHeap
	sh := heap.NewSuperheap(root)
	p.time("probe.heap.child_join_ns", 1, 0, func(n int) {
		for i := 0; i < n; i++ {
			sh.Push()
			sh.PopJoin()
		}
	})
	// One session's worth of hierarchy work: attach a subtree under the
	// super-root, give it a chunk, detach it and release it wholesale.
	p.time("probe.heap.attach_release_ns", 1, 0, func(n int) {
		for i := 0; i < n; i++ {
			c := root.AttachChild()
			c.FreshObjVia(cc, 0, 1, mem.TagRef)
			root.DetachChild(c)
			heap.ReleaseWholesale(cc, root, c)
		}
	})
	cc.Flush()
	heap.FreeChunkList(root.TakeChunks())

	empty := heap.NewRoot()
	p.time("probe.gc.collect_empty_ns", 1, 0, func(n int) {
		for i := 0; i < n; i++ {
			gc.Collect([]*heap.Heap{empty}, nil)
		}
	})
	// A 64 KB live list: 2048 cells of one pointer and two words.
	const liveKB, cellBytes = 64, 32
	live := heap.NewRoot()
	head := mem.NilPtr
	for i := 0; i < liveKB*1024/cellBytes; i++ {
		cell := live.FreshObj(1, 2, mem.TagCons)
		mem.StorePtrField(cell, 0, head)
		head = cell
	}
	p.time("probe.gc.collect_ns_per_live_kb", liveKB, 0, func(n int) {
		for i := 0; i < n; i++ {
			gc.Collect([]*heap.Heap{live}, []*mem.ObjPtr{&head})
		}
	})
	heap.FreeChunkList(live.TakeChunks())
	mem.DrainChunkPool()
}

// probeCore times the memory operations of Figure 8 through the public hh
// API, from a task one level below the objects it calls distant.
// Collection is off so raw pointers stay put and no probe pays for a
// collection the budget counts separately.
func probeCore(p *prober, procs int) {
	r := hh.New(hh.WithMode(hh.ParMem), hh.WithProcs(procs), hh.WithoutGC())
	defer r.Close()
	hh.Run(r, func(t *hh.Task) int {
		t.Scoped(func(sc *hh.Scope) {
			distCell := sc.Ref(t.Alloc(1, 0, hh.TagRef))
			distVal := sc.Ref(t.Alloc(0, 1, hh.TagRef))
			hh.Fork2(t, hh.Bind(distCell, distVal),
				func(t *hh.Task, e *hh.Env) int { coreOps(p, t, e.Ptr(0), e.Ptr(1)); return 0 },
				func(*hh.Task, *hh.Env) int { return 0 })
		})
		return 0
	})
}

func coreOps(p *prober, t *hh.Task, distCell, distVal hh.Ptr) {
	local := t.Alloc(0, 1, hh.TagRef)
	localCell := t.Alloc(1, 0, hh.TagRef)
	localVal := t.Alloc(0, 1, hh.TagRef)
	var sink uint64

	p.time("probe.core.alloc_ns", 1, allocProbeCap, func(n int) {
		for i := 0; i < n; i++ {
			t.Alloc(1, 2, hh.TagCons)
		}
	})
	p.time("probe.core.read_imm_ns", 1, 0, func(n int) {
		for i := 0; i < n; i++ {
			sink += t.ReadImmWord(local, 0)
		}
	})
	p.time("probe.core.read_mut_ns", 1, 0, func(n int) {
		for i := 0; i < n; i++ {
			sink += t.ReadMutWord(local, 0)
		}
	})
	p.time("probe.core.write_nonptr_ns", 1, 0, func(n int) {
		for i := 0; i < n; i++ {
			t.WriteWord(local, 0, uint64(i))
		}
	})
	p.time("probe.core.cas_ns", 1, 0, func(n int) {
		for i := 0; i < n; i++ {
			old := t.ReadMutWord(local, 0)
			t.CASWord(local, 0, old, old+1)
		}
	})
	p.time("probe.core.write_ptr_local_ns", 1, 0, func(n int) {
		for i := 0; i < n; i++ {
			t.WritePtr(localCell, 0, localVal)
		}
	})
	p.time("probe.core.write_ptr_ancestor_ns", 1, 0, func(n int) {
		for i := 0; i < n; i++ {
			t.WritePtr(distCell, 0, distVal)
		}
	})
	// A fresh local object written into a distant cell: the allocation,
	// the lock climb and the copy, as in Figure 8.
	p.time("probe.core.write_ptr_promoting_ns", 1, allocProbeCap, func(n int) {
		for i := 0; i < n; i++ {
			t.WritePtr(distCell, 0, t.Alloc(0, 1, hh.TagRef))
		}
	})
	promoted := t.Alloc(0, 1, hh.TagRef)
	t.WritePtr(distCell, 0, promoted) // leaves a forwarding pointer in the local copy
	p.time("probe.core.read_mut_promoted_ns", 1, 0, func(n int) {
		for i := 0; i < n; i++ {
			sink += t.ReadMutWord(promoted, 0)
		}
	})
	_ = sink
}

// probeSched times a root frame's round trip through the pool's inbox:
// submit, a worker waking to take it, completion seen by the submitter.
func probeSched(p *prober, procs int) {
	pool := sched.NewPool(procs)
	defer pool.Close()
	p.time("probe.sched.submit_wake_us", 1e3, 0, func(n int) {
		for i := 0; i < n; i++ {
			done := make(chan struct{})
			pool.Submit(sched.NewFrame(func(*sched.Worker) { close(done) }))
			<-done
		}
	})
}

// probeFrontLayers times an empty request at each layer from the fork up
// to the socket, on the system under test's configuration. The differences
// (serve − session, run_empty − serve) are each front layer's own cost.
func probeFrontLayers(p *prober, procs int) error {
	o := loopOpts{mode: hh.ParMem, procs: procs}
	r := hh.New(sutOptions(o)...)
	defer r.Close()
	empty, _ := resolveRunner("empty")

	hh.Run(r, func(t *hh.Task) int {
		arm := func(*hh.Task, *hh.Env) int { return 0 }
		p.time("probe.rts.forkjoin_ns", 1, 0, func(n int) {
			for i := 0; i < n; i++ {
				hh.Fork2(t, nil, arm, arm)
			}
		})
		return 0
	})
	body := func(t *hh.Task) uint64 { return empty(t, 0, 0) }
	var firstErr error
	p.time("probe.rts.session_empty_us", 1e3, 0, func(n int) {
		for i := 0; i < n; i++ {
			if _, err := r.Submit(hh.SessionOpts{}, body).Wait(); err != nil && firstErr == nil {
				firstErr = err
			}
		}
	})
	srv := serve.New(r, serve.WithMaxInFlight(procs), serve.WithQueueDepth(netQueueDepth))
	p.time("probe.serve.request_empty_us", 1e3, 0, func(n int) {
		for i := 0; i < n; i++ {
			tk, err := srv.Submit(body)
			if err == nil {
				_, err = tk.Wait()
			}
			if err != nil && firstErr == nil {
				firstErr = err
			}
		}
	})

	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return fmt.Errorf("benchmark: probe listener: %w", err)
	}
	fe := netserve.Serve(lis, srv, netserve.Config{Resolve: func(name string) (netserve.Runner, bool) {
		run, err := resolveRunner(name)
		return netserve.Runner(run), err == nil
	}})
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		_ = fe.Drain(ctx) // on timeout Drain force-closes what is left
	}()
	cl, err := netserve.Dial(fe.Addr().String())
	if err != nil {
		return fmt.Errorf("benchmark: probe dial: %w", err)
	}
	defer cl.Close()
	p.time("probe.netserve.ping_rtt_us", 1e3, 0, func(n int) {
		for i := 0; i < n; i++ {
			if _, err := cl.Do("PING"); err != nil && firstErr == nil {
				firstErr = err
			}
		}
	})
	p.time("probe.netserve.run_empty_rtt_us", 1e3, 0, func(n int) {
		for i := 0; i < n; i++ {
			if _, _, _, err := cl.Run("empty", uint64(i), 0); err != nil && firstErr == nil {
				firstErr = err
			}
		}
	})
	if firstErr != nil {
		return fmt.Errorf("benchmark: front-layer probe: %w", firstErr)
	}
	return nil
}
