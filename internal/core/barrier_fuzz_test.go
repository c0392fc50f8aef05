package core

import (
	"math/rand"
	"testing"

	"repro/internal/gc"
	"repro/internal/heap"
	"repro/internal/mem"
)

// Differential fuzzing of the two write-barrier entry points. A byte-coded
// schedule of allocations (in the current heap, or in the heap of an
// existing object's master: AllocIn), pointer writes, word writes, reads,
// heap pushes (forks), pops (joins and aborts), collections, and reference
// drops is replayed through two universes — the barrier with its fast
// paths (WritePtr) and the paper-faithful slow path (WritePtrSlow) — plus
// a plain Go model that knows nothing about heaps. Every read must observe
// the same value in all three, and after every structural step (push, pop,
// collect, end of schedule) the reachable graphs must fold to the same
// structural checksum.
//
// Object identity across universes: ObjPtr bit patterns differ per
// universe (different heaps, different promotion histories), so objects
// carry an immutable id in word field 0; reads and checksums observe ids,
// never raw pointers. Word field 1 is the mutable payload.

const (
	fuzzMaxObjs  = 256
	fuzzMaxDepth = 6
	fuzzMaxBytes = 4096
)

// universe kinds
const (
	uEager = iota
	uSlow
)

type fuzzUniverse struct {
	name  string
	kind  int
	stack []*heap.Heap // stack[0] is the root; top is the current heap
	ops   Counters
	pbuf  PromoteBuf
	objs  []mem.ObjPtr // registry: index = object id; NilPtr = dropped
}

func newFuzzUniverse(name string, kind int) *fuzzUniverse {
	return &fuzzUniverse{name: name, kind: kind, stack: []*heap.Heap{heap.NewRoot()}}
}

func (u *fuzzUniverse) cur() *heap.Heap { return u.stack[len(u.stack)-1] }

func (u *fuzzUniverse) alloc(id int, payload uint64) {
	u.add(Alloc(nil, u.cur(), &u.ops, 2, 2, mem.TagTuple), id, payload)
}

// allocIn allocates the object in the heap of the anchor's master and
// returns that heap's depth.
func (u *fuzzUniverse) allocIn(id, anchor int, payload uint64) int {
	target := MasterHeap(u.objs[anchor])
	u.add(AllocIn(nil, target, &u.ops, 2, 2, mem.TagTuple), id, payload)
	return int(target.Depth())
}

func (u *fuzzUniverse) add(p mem.ObjPtr, id int, payload uint64) {
	WriteInitPtr(&u.ops, p, 0, mem.NilPtr)
	WriteInitPtr(&u.ops, p, 1, mem.NilPtr)
	WriteInitWord(&u.ops, p, 0, uint64(id)+1) // ids are 1-based; 0 observes nil
	WriteInitWord(&u.ops, p, 1, payload)
	u.objs = append(u.objs, p)
}

func (u *fuzzUniverse) writePtr(dst int, field int, src mem.ObjPtr) {
	switch u.kind {
	case uEager:
		WritePtr(nil, u.cur(), &u.pbuf, &u.ops, u.objs[dst], field, src)
	case uSlow:
		WritePtrSlow(nil, &u.pbuf, &u.ops, u.objs[dst], field, src)
	}
}

// checksum folds the graph reachable from the live registry entries into
// one order-sensitive value: ids, payloads, field structure, and sharing
// (back references fold the target's visit order, so aliasing and cycles
// are part of the shape). Forwarding chains are chased first, so the fold
// is invariant under promotion and collection — exactly the property the
// barriers must preserve.
func (u *fuzzUniverse) checksum() uint64 {
	const prime = 1099511628211
	visited := make(map[mem.ObjPtr]int)
	sum := uint64(14695981039346656037)
	var walk func(p mem.ObjPtr)
	walk = func(p mem.ObjPtr) {
		if p.IsNil() {
			sum = sum*prime + 0x11
			return
		}
		p = chaseFwd(p)
		if n, ok := visited[p]; ok {
			sum = sum*prime + 0x22
			sum = sum*prime + uint64(n)
			return
		}
		visited[p] = len(visited)
		sum = sum*prime + 0x33
		sum = sum*prime + mem.LoadWordField(p, 0) // id
		sum = sum*prime + mem.LoadWordField(p, 1) // payload
		walk(mem.LoadPtrField(p, 0))
		walk(mem.LoadPtrField(p, 1))
	}
	for _, p := range u.objs {
		if p.IsNil() {
			sum = sum*prime + 0x44
			continue
		}
		walk(p)
	}
	return sum
}

// close joins every pushed heap back into the root and frees the root's
// chunks, so one fuzz execution leaves no chunks behind.
func (u *fuzzUniverse) close() {
	for len(u.stack) > 1 {
		child := u.stack[len(u.stack)-1]
		u.stack = u.stack[:len(u.stack)-1]
		heap.Join(u.stack[len(u.stack)-1], child)
	}
	heap.FreeChunkList(u.stack[0].TakeChunks())
}

// model is the oracle: objects with two int fields (registry indices, -1
// for nil), an id, and a payload. No heaps, no barriers, no collector.
type modelObj struct {
	id      uint64
	payload uint64
	f       [2]int
}

type fuzzModel struct {
	objs    []modelObj
	dropped []bool
}

func (m *fuzzModel) alloc(payload uint64) {
	m.objs = append(m.objs, modelObj{id: uint64(len(m.objs)) + 1, payload: payload, f: [2]int{-1, -1}})
	m.dropped = append(m.dropped, false)
}

func (m *fuzzModel) checksum() uint64 {
	const prime = 1099511628211
	visited := make(map[int]int)
	sum := uint64(14695981039346656037)
	var walk func(i int)
	walk = func(i int) {
		if i < 0 {
			sum = sum*prime + 0x11
			return
		}
		if n, ok := visited[i]; ok {
			sum = sum*prime + 0x22
			sum = sum*prime + uint64(n)
			return
		}
		visited[i] = len(visited)
		sum = sum*prime + 0x33
		sum = sum*prime + m.objs[i].id
		sum = sum*prime + m.objs[i].payload
		walk(m.objs[i].f[0])
		walk(m.objs[i].f[1])
	}
	for i := range m.objs {
		if m.dropped[i] {
			sum = sum*prime + 0x44
			continue
		}
		walk(i)
	}
	return sum
}

// runBarrierDifferential interprets one byte-coded schedule. Each op is 4
// bytes [op, a, b, c]; op selects the action modulo 9, a/b/c select
// operands. Unusable ops (no live objects, registry full, stack empty) are
// skipped in every universe alike, so the universes always see identical
// schedules.
//
// Op 6 (pop) is discriminated by its a operand: a == 0xAB ABORTS the
// current heap — the transaction-rollback shape — instead of joining it.
// An abort releases the heap's chunks wholesale with no join. Everything
// allocated at the aborted depth is then dropped from the registry and the
// model: promotion at write time guarantees anything an ancestor can still
// reach has already been copied out, so the post-abort reachable graphs
// must again agree with the model in both universes.
//
// Op 0 (alloc) is discriminated by its b operand: b == 0xA1 allocates
// in the heap of operand c's master copy (AllocIn) instead of the current
// heap. Both barriers promote eagerly to the same depth, so the universes
// must agree on that heap's depth, which becomes the object's home depth.
func runBarrierDifferential(t *testing.T, data []byte) {
	if len(data) > fuzzMaxBytes {
		data = data[:fuzzMaxBytes]
	}
	universes := []*fuzzUniverse{
		newFuzzUniverse("eager", uEager),
		newFuzzUniverse("slow", uSlow),
	}
	model := &fuzzModel{}
	defer func() {
		for _, u := range universes {
			u.close()
		}
	}()

	// allocDepth[i] is object i's home depth: the stack depth it was
	// allocated at (for alloc-in, its target depth), decremented when that
	// heap joins its parent (the merge moves its objects up a level). An
	// abort kills every object homed at the aborted depth.
	var allocDepth []int

	// pick resolves operand byte b to a live registry index, -1 if none.
	pick := func(b byte) int {
		live := make([]int, 0, len(model.objs))
		for i := range model.objs {
			if !model.dropped[i] {
				live = append(live, i)
			}
		}
		if len(live) == 0 {
			return -1
		}
		return live[int(b)%len(live)]
	}

	checkStructure := func(step int, what string) {
		t.Helper()
		want := model.checksum()
		for _, u := range universes {
			if got := u.checksum(); got != want {
				t.Fatalf("step %d (%s): %s checksum %x, model %x", step, what, u.name, got, want)
			}
		}
	}

	for step := 0; step*4+3 < len(data); step++ {
		op, a, b, c := data[step*4], data[step*4+1], data[step*4+2], data[step*4+3]
		switch op % 9 {
		case 0: // alloc, or alloc-in (b == 0xA1) anchored at c
			if len(model.objs) >= fuzzMaxObjs {
				continue
			}
			payload := uint64(a)
			depth := len(universes[0].stack) - 1
			if b == 0xA1 {
				anchor := pick(c)
				if anchor < 0 {
					continue
				}
				depth = -1
				for _, u := range universes {
					d := u.allocIn(len(model.objs), anchor, payload)
					if depth >= 0 && d != depth {
						t.Fatalf("step %d: AllocIn lands at depth %d in %s, %d in %s",
							step, d, u.name, depth, universes[0].name)
					}
					depth = d
				}
			} else {
				for _, u := range universes {
					u.alloc(len(model.objs), payload)
				}
			}
			model.alloc(payload)
			allocDepth = append(allocDepth, depth)
		case 1: // barrier pointer write
			dst := pick(a)
			if dst < 0 {
				continue
			}
			field := int(b) % 2
			srcIdx := -1
			if c != 0xFF {
				srcIdx = pick(c)
			}
			for _, u := range universes {
				src := mem.NilPtr
				if srcIdx >= 0 {
					src = u.objs[srcIdx]
				}
				u.writePtr(dst, field, src)
			}
			model.objs[dst].f[field] = srcIdx
		case 2: // mutable word write
			dst := pick(a)
			if dst < 0 {
				continue
			}
			v := uint64(b) * 2654435761
			for _, u := range universes {
				WriteNonptr(u.cur(), &u.ops, u.objs[dst], 1, v)
			}
			model.objs[dst].payload = v
		case 3: // pointer read: observe the pointee's id
			obj := pick(a)
			if obj < 0 {
				continue
			}
			field := int(b) % 2
			var want uint64
			if fi := model.objs[obj].f[field]; fi >= 0 {
				want = model.objs[fi].id
			}
			for _, u := range universes {
				var got uint64
				if q := ReadMutPtr(&u.ops, u.objs[obj], field); !q.IsNil() {
					got = ReadImmWord(&u.ops, q, 0)
				}
				if got != want {
					t.Fatalf("step %d: %s reads obj %d field %d as id %d, model says %d",
						step, u.name, obj, field, got, want)
				}
			}
		case 4: // word read: observe the payload
			obj := pick(a)
			if obj < 0 {
				continue
			}
			want := model.objs[obj].payload
			for _, u := range universes {
				if got := ReadMutWord(&u.ops, u.objs[obj], 1); got != want {
					t.Fatalf("step %d: %s reads obj %d payload %x, model says %x",
						step, u.name, obj, got, want)
				}
			}
		case 5: // push: fork a child heap and enter it
			if len(universes[0].stack) >= fuzzMaxDepth {
				continue
			}
			for _, u := range universes {
				u.stack = append(u.stack, heap.NewChild(u.cur()))
			}
			checkStructure(step, "push")
		case 6: // pop: join the current heap into its parent — or abort it
			if len(universes[0].stack) == 1 {
				continue
			}
			depth := len(universes[0].stack) - 1
			if a == 0xAB {
				// Abort-unwind: wholesale release, no join. Ancestor-held
				// pointees were promoted at write time, so they survive the
				// chunk recycling.
				for _, u := range universes {
					child := u.stack[len(u.stack)-1]
					u.stack = u.stack[:len(u.stack)-1]
					heap.FreeChunkList(child.TakeChunks())
				}
				for i := range model.objs {
					if allocDepth[i] != depth || model.dropped[i] {
						continue
					}
					for _, u := range universes {
						u.objs[i] = mem.NilPtr
					}
					model.dropped[i] = true
				}
				checkStructure(step, "abort")
				continue
			}
			for _, u := range universes {
				child := u.stack[len(u.stack)-1]
				u.stack = u.stack[:len(u.stack)-1]
				heap.Join(u.cur(), child)
			}
			for i := range allocDepth {
				if allocDepth[i] == depth {
					allocDepth[i]--
				}
			}
			checkStructure(step, "join")
		case 7: // collect the current heap (always a leaf of the stack)
			for _, u := range universes {
				var roots []*mem.ObjPtr
				for i := range u.objs {
					if !u.objs[i].IsNil() {
						roots = append(roots, &u.objs[i])
					}
				}
				gc.Collect([]*heap.Heap{u.cur()}, roots)
			}
			checkStructure(step, "collect")
		case 8: // forget: drop a registry reference (creates garbage)
			obj := pick(a)
			if obj < 0 {
				continue
			}
			for _, u := range universes {
				u.objs[obj] = mem.NilPtr
			}
			model.dropped[obj] = true
			_ = c
		}
	}
	checkStructure(len(data)/4, "end")
}

// FuzzBarrier is the native fuzz target; CI runs it with -fuzz=FuzzBarrier
// -fuzztime=60s, and the committed corpus under testdata/fuzz/FuzzBarrier
// replays the structurally interesting schedules on every plain `go test`.
func FuzzBarrier(f *testing.F) {
	f.Add(seedPinSecondTouch())
	f.Add(seedPinDrainPaths())
	f.Add(seedJoinElide())
	f.Add(seedDeepChurn())
	f.Add(seedAbortUnwind())
	f.Add(seedTxnRetry())
	f.Add(seedAbortDeep())
	f.Add(seedAllocIn())
	f.Fuzz(func(t *testing.T, data []byte) {
		runBarrierDifferential(t, data)
	})
}

// TestBarrierDifferentialSchedules is the deterministic property test: it
// replays seeded pseudo-random schedules through the same differential
// harness, so the cross-universe equivalences are exercised on every test
// run even where `go test -fuzz` never runs.
func TestBarrierDifferentialSchedules(t *testing.T) {
	for seed := int64(1); seed <= 12; seed++ {
		rng := rand.New(rand.NewSource(seed))
		data := make([]byte, 2048)
		rng.Read(data)
		// Bias toward structural ops: rewrite a slice of op bytes so pushes,
		// pops, and collects appear often enough to matter. Every fourth op
		// slot that holds an alloc becomes an alloc-in.
		for i := 0; i+3 < len(data); i += 4 {
			if rng.Intn(4) == 0 {
				data[i] = byte(5 + rng.Intn(3)) // push/pop/collect
			}
			if data[i]%9 == 0 && i%16 == 4 {
				data[i+2] = 0xA1
			}
		}
		runBarrierDifferential(t, data)
	}
}

// Crafted seeds. Each returns one 4-byte-per-op schedule hitting a
// promotion, join, collection or abort corner. Several are named for a
// pin-and-drain barrier the runtime no longer has; each is still a valid
// program for both universes.

// seedPinSecondTouch: publish a child object into a root slot (promotes),
// publish it again through a second root slot (already promoted: a plain
// write), collect the child, then join.
func seedPinSecondTouch() []byte {
	return []byte{
		0, 1, 0, 0, // alloc obj0 (root)
		0, 2, 0, 0, // alloc obj1 (root)
		5, 0, 0, 0, // push
		0, 3, 0, 0, // alloc obj2 (child)
		1, 0, 0, 2, // obj0.f0 = obj2   (promote)
		3, 0, 0, 0, // read obj0.f0
		1, 1, 0, 2, // obj1.f0 = obj2   (already promoted)
		3, 1, 0, 0, // read obj1.f0
		7, 0, 0, 0, // collect child
		6, 0, 0, 0, // pop-join
		7, 1, 0, 0, // collect root
	}
}

// seedPinDrainPaths: promote one child object into a root slot, overwrite
// the slot with another (promoting it too), collect the child; then forget
// the first and recollect.
func seedPinDrainPaths() []byte {
	return []byte{
		0, 1, 0, 0, // alloc obj0 (root)
		5, 0, 0, 0, // push
		0, 2, 0, 0, // alloc obj1 (child)
		0, 3, 0, 0, // alloc obj2 (child)
		1, 0, 0, 1, // obj0.f0 = obj1   (promote obj1)
		1, 0, 0, 2, // obj0.f0 = obj2   (promote obj2)
		7, 1, 0, 0, // collect child
		3, 0, 0, 0, // read obj0.f0
		8, 1, 0, 0, // forget obj1
		7, 1, 0, 0, // collect child again (obj1 now garbage)
		6, 0, 0, 0, // pop-join
	}
}

// seedJoinElide: promote a child object into a root slot, then join
// immediately.
func seedJoinElide() []byte {
	return []byte{
		0, 1, 0, 0, // alloc obj0 (root)
		5, 0, 0, 0, // push
		0, 2, 0, 0, // alloc obj1 (child)
		1, 0, 1, 1, // obj0.f1 = obj1   (promote)
		6, 0, 0, 0, // pop-join
		3, 0, 1, 0, // read obj0.f1
		7, 0, 0, 0, // collect root
	}
}

// seedAbortUnwind: the basic rollback shape — stage objects in a child,
// publish one into an ancestor slot (promotes), then abort. The published
// object survives in the root; the unpublished sibling dies with the heap.
func seedAbortUnwind() []byte {
	return []byte{
		0, 1, 0, 0, // alloc obj0 (root)
		5, 0, 0, 0, // push
		0, 2, 0, 0, // alloc obj1 (child: published intent)
		0, 3, 0, 0, // alloc obj2 (child: private scratch)
		1, 0, 0, 1, // obj0.f0 = obj1   (publish → promote)
		2, 2, 9, 0, // obj2.payload = ... (scratch mutation)
		6, 0xAB, 0, 0, // ABORT: obj2 dies, obj1 survives via obj0.f0
		3, 0, 0, 0, // read obj0.f0 (must still see obj1's id)
		7, 0, 0, 0, // collect root
	}
}

// seedTxnRetry: a transaction that stages, conflicts, aborts, and then a
// re-forked retry of the same shape commits by joining — fork, conflicting
// writes into the shared ancestor slot, abort-unwind, re-fork, join.
func seedTxnRetry() []byte {
	return []byte{
		0, 1, 0, 0, // alloc obj0 (root: the shared slot array)
		0, 2, 0, 0, // alloc obj1 (root: prior committed value)
		1, 0, 0, 1, // obj0.f0 = obj1 (committed state)
		5, 0, 0, 0, // push: attempt #1
		0, 3, 0, 0, // alloc obj2 (staged intent)
		1, 0, 0, 2, // obj0.f0 = obj2 (conflicting write over obj1)
		1, 0, 1, 1, // obj0.f1 = obj1 (second slot keeps the old value live)
		6, 0xAB, 0, 0, // ABORT attempt #1: staged obj2's home dies
		3, 0, 0, 0, // read obj0.f0 (the promoted intent survived the rollback)
		5, 0, 0, 0, // push: attempt #2 (retry)
		0, 4, 0, 0, // alloc obj3 (restaged intent)
		1, 0, 0, 3, // obj0.f0 = obj3
		6, 0, 0, 0, // pop-join: attempt #2 commits
		3, 0, 0, 0, // read obj0.f0
		7, 1, 0, 0, // collect root
	}
}

// seedAbortDeep: abort an inner level while an outer child survives and
// later joins — the unwind must only kill the aborted depth, and an object
// published from the outer child (not the root) must end up in the right
// heap.
func seedAbortDeep() []byte {
	return []byte{
		0, 1, 0, 0, // alloc obj0 (root)
		5, 0, 0, 0, // push (depth 1)
		0, 2, 0, 0, // alloc obj1 (depth 1)
		5, 0, 0, 0, // push (depth 2)
		0, 3, 0, 0, // alloc obj2 (depth 2)
		0, 4, 0, 0, // alloc obj3 (depth 2, private)
		1, 1, 0, 2, // obj1.f0 = obj2 (promote to depth 1, not root)
		1, 0, 1, 2, // obj0.f1 = obj2 (promote again, to the root)
		6, 0xAB, 0, 0, // ABORT depth 2: obj3 dies, obj2 was promoted out
		3, 1, 0, 0, // read obj1.f0
		7, 0, 0, 0, // collect depth 1
		6, 0, 0, 0, // pop-join depth 1
		3, 0, 1, 0, // read obj0.f1
		7, 1, 0, 0, // collect root
	}
}

// seedDeepChurn: three levels of nesting with cross-level writes, word
// mutation, and collections at each level on the way back up.
func seedDeepChurn() []byte {
	return []byte{
		0, 1, 0, 0, // alloc obj0 (root)
		5, 0, 0, 0, // push (depth 1)
		0, 2, 0, 0, // alloc obj1
		1, 0, 0, 1, // obj0.f0 = obj1 (promote from depth 1)
		5, 0, 0, 0, // push (depth 2)
		0, 3, 0, 0, // alloc obj2
		1, 1, 0, 2, // obj1.f0 = obj2 (promote from depth 2)
		2, 2, 7, 0, // obj2.payload = ...
		7, 0, 0, 0, // collect depth-2 leaf
		6, 0, 0, 0, // pop-join to depth 1
		3, 1, 0, 0, // read obj1.f0
		7, 1, 0, 0, // collect depth-1
		6, 0, 0, 0, // pop-join to root
		3, 0, 0, 0, // read obj0.f0
		7, 0, 0, 0, // collect root
	}
}

// seedAllocIn: objects born in ancestor heaps at depth 2 and 3 — an
// alloc-in published into its anchor (the ancestor fast path), a leaf
// object written into a born-in-place cell (promotes), a collection of the
// leaf that must leave born-in-place objects alone, an alloc-in anchored
// at a promoted object, then a pop-join and an abort of the level that
// object is homed at.
func seedAllocIn() []byte {
	return []byte{
		0, 1, 0, 0, // alloc obj0 (root)
		5, 0, 0, 0, // push (depth 1)
		0, 2, 0, 0, // alloc obj1 (depth 1)
		5, 0, 0, 0, // push (depth 2)
		0, 3, 0, 0, // alloc obj2 (depth 2)
		0, 4, 0xA1, 0, // alloc-in obj3 in obj0's heap (root)
		1, 0, 0, 3, // obj0.f0 = obj3 (write into the anchor: no promotion)
		0, 5, 0xA1, 1, // alloc-in obj4 in obj1's heap (depth 1)
		1, 1, 0, 4, // obj1.f0 = obj4
		1, 4, 1, 2, // obj4.f1 = obj2 (leaf into a born-in-place cell: promote)
		7, 1, 0, 0, // collect the depth-2 leaf
		3, 0, 0, 0, // read obj0.f0
		3, 4, 1, 0, // read obj4.f1
		5, 0, 0, 0, // push (depth 3)
		0, 6, 0xA1, 2, // alloc-in obj5 at obj2's master (depth 1)
		1, 2, 0, 5, // obj2.f0 = obj5
		7, 0, 0, 0, // collect the depth-3 leaf
		6, 0, 0, 0, // pop-join depth 3
		6, 0xAB, 0, 0, // ABORT depth 2: obj2 drops from the registry
		3, 3, 1, 0, // read obj4.f1 (obj2 survives through it)
		6, 0, 0, 0, // pop-join depth 1
		7, 0, 0, 0, // collect root
	}
}
