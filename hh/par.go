package hh

import (
	"repro/internal/mem"
	"repro/internal/rts"
	"repro/internal/seq"
)

// Parallel combinators over index ranges, and the word-sequence (rope)
// helpers the examples and benchmarks build on. All combinators thread
// their Binding through the forks, so bodies see valid — possibly
// promoted — pointers via their Env no matter which worker runs them.
// Grain is the sequential cutoff and must be at least 1.

// ParDo runs body over [lo, hi) in parallel, splitting down to grain.
// Each split is a Fork2-style fork, so in an unpinned session a split made
// while every worker is busy runs its halves one after the other on the
// calling task (see Fork2).
func ParDo(t *Task, env Binding, lo, hi, grain int, body func(t *Task, e *Env, lo, hi int)) {
	packed := t.packEnv(env)
	n := len(env)
	seq.ParDo(t.inner, packed, lo, hi, grain, func(inner *rts.Task, e mem.ObjPtr, blo, bhi int) {
		at := t.r.taskFor(inner)
		at.Scoped(func(s *Scope) {
			body(at, openEnv(at, s, e, n), blo, bhi)
		})
	})
}

// ParSum folds body's results over [lo, hi) with addition.
func ParSum(t *Task, env Binding, lo, hi, grain int, body func(t *Task, e *Env, lo, hi int) uint64) uint64 {
	packed := t.packEnv(env)
	n := len(env)
	return seq.ParSum(t.inner, packed, lo, hi, grain, func(inner *rts.Task, e mem.ObjPtr, blo, bhi int) uint64 {
		at := t.r.taskFor(inner)
		var sum uint64
		at.Scoped(func(s *Scope) {
			sum = body(at, openEnv(at, s, e, n), blo, bhi)
		})
		return sum
	})
}

// Tabulate builds the word sequence [f(0), …, f(n-1)] in parallel. f must
// be a pure scalar function (it runs on whichever worker owns the leaf
// and may not touch managed memory).
func Tabulate(t *Task, n, grain int, f func(i int) uint64) Ptr {
	return Ptr{seq.TabulateU64(t.inner, mem.NilPtr, n, grain,
		func(_ *rts.Task, _ mem.ObjPtr, i int) uint64 { return f(i) })}
}

// Length returns the number of elements of a word sequence (rope or flat
// array).
func Length(t *Task, s Ptr) int { return seq.Length(t.inner, s.raw) }

// At returns element i of a word sequence (O(depth)).
func At(t *Task, s Ptr, i int) uint64 { return seq.GetU64(t.inner, s.raw, i) }

// SplitMid divides a word sequence at its midpoint, sharing structure.
func SplitMid(t *Task, s Ptr) (Ptr, Ptr) {
	l, r := seq.SplitMid(t.inner, s.raw)
	return Ptr{l}, Ptr{r}
}

// ToArray flattens a word sequence into a single fresh flat array.
func ToArray(t *Task, s Ptr) Ptr { return Ptr{seq.ToFlatU64(t.inner, s.raw)} }

// SortArray sorts a flat word array in place (imperative quicksort).
func SortArray(t *Task, a Ptr) {
	seq.QuickSortInPlace(t.inner, a.raw, 0, seq.Length(t.inner, a.raw))
}

// MergeSorted merges two sorted flat word arrays into a fresh sorted
// array.
func MergeSorted(t *Task, a, b Ptr) Ptr {
	return Ptr{seq.MergeFlatSorted(t.inner, a.raw, b.raw)}
}

// Checksum folds a word sequence into an order-sensitive digest.
func Checksum(t *Task, s Ptr) uint64 { return seq.Checksum(t.inner, s.raw) }

// Hash64 mixes an index into a pseudo-random 64-bit value (the
// evaluation's input generator).
func Hash64(i uint64) uint64 { return seq.Hash64(i) }
