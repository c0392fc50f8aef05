package core

import (
	"fmt"
	"sync/atomic"
	"time"

	"repro/internal/heap"
	"repro/internal/mem"
	"repro/internal/trace"
)

// climbSample is how many climbs share one timed climb when the flight
// recorder is off. Reading the clock twice costs about as much as the locks
// of a short climb, so Counters.PromoteNanos is an estimate: one climb in
// every window of climbSample is timed, at a position drawn afresh per
// window (a fixed stride could fall in step with a loop that alternates
// cheap and dear climbs), and charged climbSample times over.
const climbSample = 16

// climbSeeds hands each PromoteBuf its own generator seed on its first
// climb. Were every buffer to start from one state, every buffer would time
// the same position of its first window, and a task that climbs fewer times
// than that position would add nothing to PromoteNanos.
var climbSeeds atomic.Uint32

// PromoteBuf is a task-private promotion scratch buffer: it owns the
// reusable climb and copy worklists (the locked-heap path and the promotion
// scan stack), so steady-state promotions allocate nothing in Go, and the
// climb-time sampler's state.
//
// A PromoteBuf is single-goroutine (each rts.Task embeds one); the zero
// value is ready to use.
type PromoteBuf struct {
	trackP1 int32 // trace track (worker ID + 1); the zero value is off-worker

	locked []*heap.Heap // climb scratch: the write-locked heap path
	scan   []mem.ObjPtr // promotion worklist: fresh copies to field-fix

	// Climb-time sampling (see climbSample): position in the current window,
	// the position timed in it, and the generator that draws the next one
	// (zero until the first climb seeds it from climbSeeds).
	climbPos, climbPick uint8
	climbRand           uint32
}

// SetTrack records the worker ID whose timeline trace climb spans from this
// buffer should land on. Transient buffers (the zero value) attribute to
// the shared off-worker track.
func (b *PromoteBuf) SetTrack(worker int) { b.trackP1 = int32(worker) + 1 }

func (b *PromoteBuf) track() int { return int(b.trackP1) - 1 }

// lockPath write-locks every heap from src (inclusive, deepest) up to the
// master copy of obj, deepest first, re-extending the path if obj gains a
// forwarding pointer while we climb (a racing promotion moved it higher).
// It returns obj's master and the master's heap; the locked path is left
// in buf.locked for unlockPath. Locking the intermediate heaps takes
// ownership of the forwarding words of everything we may copy; locking the
// target keeps concurrent findMaster calls from returning until the
// promotion is complete.
//
// Deadlock freedom: this path climbs the hierarchy bottom-up, so its lock
// waits only target heaps strictly shallower than any lock held; the one
// other multi-heap acquisition, Manticore's steal-time PromoteTo under the
// victim heap's lock, goes deep then shallow too. A zone collection
// holds a single heap's write lock and waits for no other heap lock while
// holding it.
func (b *PromoteBuf) lockPath(ops *Counters, src *heap.Heap, obj mem.ObjPtr) (mem.ObjPtr, *heap.Heap) {
	target := heap.Of(obj)
	b.locked = b.locked[:0]
	src.Lock(heap.WRITE)
	b.locked = append(b.locked, src)
	prevTop := src
	for {
		for h := prevTop.Parent(); ; h = h.Parent() {
			if h == nil {
				panic("core: promotion target is not an ancestor of the pointee's heap")
			}
			h.Lock(heap.WRITE)
			b.locked = append(b.locked, h)
			if h == target {
				break
			}
		}
		if !mem.HasFwd(obj) {
			break
		}
		// A racing promotion forwarded obj higher up; follow it and extend
		// the locked path to the new master's heap.
		prevTop = target
		obj = mem.LoadFwd(obj)
		target = heap.Of(obj)
	}
	ops.ClimbLockedHeaps += int64(len(b.locked))
	return obj, target
}

// unlockPath releases the climb's locks, shallowest first.
func (b *PromoteBuf) unlockPath() {
	for i := len(b.locked) - 1; i >= 0; i-- {
		b.locked[i].Unlock()
		b.locked[i] = nil
	}
	b.locked = b.locked[:0]
}

// climbClock times one promotion climb. It is the only place the barrier
// reads the clock: every climb while the flight recorder is on (a span needs
// its own start and length, which keeps traces and the numbers taken from
// them exact), one in climbSample otherwise.
type climbClock struct {
	start  time.Time
	weight int64 // climbs this one stands for; 0 = not timed
	traced bool
}

func (b *PromoteBuf) startClimb() climbClock {
	if trace.Enabled() {
		return climbClock{start: time.Now(), weight: 1, traced: true}
	}
	if b.climbPos == 0 {
		if b.climbRand == 0 {
			b.climbRand = climbSeeds.Add(0x9e3779b9)
		}
		b.climbRand = b.climbRand*1664525 + 1013904223
		b.climbPick = uint8((b.climbRand >> 24) % climbSample)
	}
	timed := b.climbPos == b.climbPick
	b.climbPos = (b.climbPos + 1) % climbSample
	if !timed {
		return climbClock{}
	}
	return climbClock{start: time.Now(), weight: climbSample}
}

// endClimb charges a finished climb over depth locked heaps to
// ops.PromoteNanos and, when traced, to the flight recorder.
func (b *PromoteBuf) endClimb(ops *Counters, c climbClock, depth int) {
	if c.weight == 0 {
		return
	}
	elapsed := time.Since(c.start)
	ops.PromoteNanos += elapsed.Nanoseconds() * c.weight
	if c.traced {
		trace.Complete(b.track(), trace.EvClimb, c.start, elapsed, 0, uint64(depth))
	}
}

// writePromote implements the promoting pointer write (Figure 7,
// writePromote). Three phases:
//
//  1. Write-lock every heap on the path from heapOf(ptr) up to the heap of
//     obj's master copy, deepest first (lockPath).
//  2. Promote ptr's object graph into the master's heap and store the
//     promoted pointer into the field.
//  3. Unlock the path, shallowest first.
//
// obj need not be the master copy, nor even unforwarded: the caller walked
// its forwarding chain without a lock, and lockPath settles the master once
// the path is held. buf supplies the reusable climb and worklist scratch
// (nil for a transient buffer); the caller has already counted the write
// in WritePtrProm.
func writePromote(cc *mem.ChunkCache, buf *PromoteBuf, ops *Counters, obj mem.ObjPtr, field int, ptr mem.ObjPtr) {
	if buf == nil {
		buf = &PromoteBuf{}
	}
	src, target := heap.Of(ptr), heap.Of(obj)
	if target.Depth() >= src.Depth() {
		panic(fmt.Sprintf("core: writePromote precondition violated: target depth %d >= source depth %d",
			target.Depth(), src.Depth()))
	}
	clock := buf.startClimb()
	obj, target = buf.lockPath(ops, src, obj)
	mem.StorePtrFieldAtomic(obj, field, promote(cc, buf, ops, target, ptr))
	depth := len(buf.locked)
	buf.unlockPath()
	buf.endClimb(ops, clock, depth)
}

// promote copies the object graph reachable from p into target (or reuses
// copies already at or above target) and returns the promoted pointer
// (Figure 7, promote). The paper presents it recursively; as it notes, the
// forwarding pointer is installed before any children are visited, which
// permits this worklist formulation: chase-and-copy each root, then scan
// the pointer fields of freshly made copies, replacing each with its own
// chased copy. The worklist lives in buf and is reused climb to climb.
//
// The caller holds WRITE locks on every heap between (and including) p's
// heap and target, so all forwarding installations and field fix-ups here
// are protected.
func promote(cc *mem.ChunkCache, buf *PromoteBuf, ops *Counters, target *heap.Heap, p mem.ObjPtr) mem.ObjPtr {
	td := target.Depth()
	buf.scan = buf.scan[:0]
	res := chaseCopy(cc, ops, target, td, p, &buf.scan)
	for len(buf.scan) > 0 {
		o := buf.scan[len(buf.scan)-1]
		buf.scan = buf.scan[:len(buf.scan)-1]
		for i, n := 0, mem.NumPtrFields(o); i < n; i++ {
			q := mem.LoadPtrField(o, i)
			if q.IsNil() {
				continue
			}
			mem.StorePtrField(o, i, chaseCopy(cc, ops, target, td, q, &buf.scan))
		}
	}
	return res
}

// chaseCopy resolves one object for promotion into target: objects already
// at or above target are used as-is; forwarding chains are followed; and a
// still-deep, unforwarded object is shallow-copied into target with its
// forwarding pointer installed before the copy (so racing optimistic
// writers can detect and redirect their updates).
func chaseCopy(cc *mem.ChunkCache, ops *Counters, target *heap.Heap, td int32, q mem.ObjPtr, scan *[]mem.ObjPtr) mem.ObjPtr {
	for {
		if heap.Of(q).Depth() <= td {
			return q
		}
		if f := mem.LoadFwd(q); !f.IsNil() {
			q = f
			continue
		}
		numPtr, numNonptr, tag := mem.NumPtrFields(q), mem.NumNonptrWords(q), mem.TagOf(q)
		fresh := target.FreshObjVia(cc, numPtr, numNonptr, tag)
		mem.StoreFwd(q, fresh)
		mem.CopyBody(fresh, q)
		ops.PromotedObjects++
		ops.PromotedWords += int64(mem.ObjectWords(numPtr, numNonptr))
		*scan = append(*scan, fresh)
		return fresh
	}
}

// PromoteTo copies the object graph reachable from p into target under the
// target heap's write lock, returning the promoted pointer. This entry
// point serves runtimes that promote eagerly on communication (the
// DLG/Manticore-style baseline), where the source heaps are quiescent and
// only the destination needs mutual exclusion. cc is the CALLING worker's
// chunk cache (nil for none); the target heap may be shared, but the cache
// is private to the goroutine running this call.
func PromoteTo(cc *mem.ChunkCache, ops *Counters, target *heap.Heap, p mem.ObjPtr) mem.ObjPtr {
	if p.IsNil() {
		return p
	}
	target.Lock(heap.WRITE)
	res := promote(cc, &PromoteBuf{}, ops, target, p)
	target.Unlock()
	return res
}
