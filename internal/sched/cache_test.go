package sched

import (
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/mem"
)

// waitFor polls cond until it holds or the deadline expires.
func waitFor(t *testing.T, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatal("timed out waiting for frames to complete")
		}
		time.Sleep(100 * time.Microsecond)
	}
}

// TestWorkerChunkCacheBoundsUnderSteals churns chunks through every
// worker's cache while frames are being stolen, asserting — from the
// owning worker's goroutine, which is the only legal reader — that no
// cache ever exceeds its per-class bound. This is the steal-heavy shape of
// the serving runtime: frames migrate between workers, each releasing
// chunks into whatever worker it lands on.
func TestWorkerChunkCacheBoundsUnderSteals(t *testing.T) {
	const perClass = mem.DefaultCacheChunksPerClass
	const frames = 64
	maxHeld := perClass * mem.NumSizeClasses()

	p := NewPool(4)
	defer p.Close()
	var violations atomic.Int64
	var done atomic.Int64

	// Each churn releases more chunks of every size class than one cache
	// may hold, so a cache that kept them all would pass maxHeld.
	churn := func(w *Worker) {
		var held []*mem.Chunk
		for i := 0; i < perClass+2; i++ {
			for _, words := range []int{64, 256, 1024, 4096, 8192, 16384} {
				held = append(held, mem.AcquireChunk(w.Chunks, words))
			}
		}
		for _, c := range held {
			mem.RecycleChunk(w.Chunks, c)
		}
		if w.Chunks.HeldChunks() > maxHeld {
			violations.Add(1)
		}
	}

	for i := 0; i < frames; i++ {
		p.Submit(NewFrame(func(w *Worker) {
			// A stealable child per root frame keeps the thieves busy.
			child := NewFrame(func(w *Worker) { churn(w) })
			w.Push(child)
			churn(w)
			w.WaitHelp(child)
			done.Add(1)
		}))
	}
	waitFor(t, func() bool { return done.Load() == frames })
	if n := violations.Load(); n > 0 {
		t.Fatalf("%d cache-bound violations (bound %d chunks per worker)", n, maxHeld)
	}
}
