// Package serve is the session-per-subtree serving layer over the
// hierarchical-heaps runtime: a [Server] accepts independent requests,
// runs each as its own root-level session (an independent subtree of the
// heap hierarchy), and reclaims the request's entire memory wholesale when
// it completes.
//
// The design follows directly from the paper's hierarchy invariant:
// disjoint task subtrees are independent units of allocation AND
// collection. A request that never shares mutable state with another
// request therefore needs no global collection at all. While it runs, a
// heap of its subtree is not collected until it holds 1 MiB, and past that
// its zones collect concurrently with every other request's. When it
// finishes, its chunks are released in bulk, region-style, at cost
// proportional to the chunk count rather than the live data. The server
// adds the serving policy the runtime itself does not have:
//
//   - admission control: at most MaxInFlight sessions run at once;
//   - bounded backpressure: excess requests queue up to QueueDepth, and
//     beyond that Submit fails fast with [ErrSaturated] so callers shed
//     load instead of buffering it;
//   - per-session budgets: a request that allocates past its word budget
//     is aborted (ErrBudgetExceeded) and reclaimed, without disturbing its
//     neighbours — as is a request that panics;
//   - accounting: throughput, latency quantiles, peak concurrency, and
//     bytes reclaimed wholesale versus merged ([Server.Stats]).
//
// # Request memory is recycled, not freed
//
// Wholesale reclamation feeds the runtime's chunk lifecycle (alloc → cache
// → pool → OS, see internal/mem): a completed request's chunks land in the
// chunk cache of the worker that finished it and overflow into the global
// size-classed pool, so the NEXT request's heaps are built from the last
// request's memory — under steady load the serving hot path performs no
// chunk-directory ID operations and no fresh allocations at all. The
// tiers have no knobs: every worker caches mem.DefaultCacheChunksPerClass
// chunks per size class and the pool is one free list per class.
// Stats().Alloc reports the cache and pool hit rates and the directory
// operations per request (hhload prints them; the benchmark reports them
// as mem.cache_hit_share and mem.dirops_per_req).
//
// Typical use (see the runnable Example on Server):
//
//	r := hh.New(hh.WithMode(hh.ParMem), hh.WithProcs(8))
//	defer r.Close()
//	srv := serve.New(r, serve.WithMaxInFlight(8), serve.WithQueueDepth(64))
//	tk, err := srv.Submit(func(t *hh.Task) uint64 { ...request work... })
//	if err != nil { ...shed load... }
//	res, err := tk.Wait()
//	...
//	srv.Drain() // quiesce: every accepted request completed
//
// Results are plain uint64 words (checksums, counts, encoded answers). A
// request whose object graph must outlive it submits with Pin, at the cost
// of growing the never-collected super-root; see the hh package's session
// documentation for the lifetime rules.
package serve
