// Package repro is a Go reproduction of "Hierarchical Memory Management
// for Mutable State" (Guatto, Westrick, Raghunathan, Acar, Fluet;
// PPoPP 2018).
//
// The public API is package hh: a typed, scope-safe façade — generic
// Run/Fork2, functional-option runtimes, lexically scoped GC roots
// (Ref/Scope), and concurrent root-level sessions (Submit/Wait with
// wholesale reclamation) — over the engine layers. Package hh/serve adds
// the serving policy (admission control, backpressure, budgets, latency
// stats) for running many simultaneous requests on one runtime. Start
// there; the examples/ programs are written against hh and double as its
// acceptance tests.
//
// The engine lives under internal/: the simulated managed-memory
// substrate (mem), hierarchical heaps (heap), the paper's promotion
// algorithms (core), promotion-aware semispace collection of concurrent
// zones (gc), the work-stealing scheduler (sched),
// the four runtime systems of the evaluation (rts), the sequence and
// graph substrates (seq, graph), the 17-benchmark suite (bench), and the
// table/figure regeneration layer (report). See README.md for a guided
// tour and DESIGN.md for the system inventory.
//
// The root package holds the testing.B benchmarks that regenerate the
// paper's tables (bench_test.go) and the example smoke tests; run them
// with
//
//	go test -bench=. -benchmem .
package repro
