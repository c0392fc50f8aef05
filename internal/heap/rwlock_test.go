package heap

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"
	"unsafe"
)

func TestRWLockBasic(t *testing.T) {
	var l RWLock
	l.RLock()
	l.RLock()
	l.Unlock()
	l.Unlock()
	l.WLock()
	l.Unlock()
	l.Lock(READ)
	l.Unlock()
	l.Lock(WRITE)
	l.Unlock()
	if w := l.word.Load(); w != 0 {
		t.Fatalf("lock word %#x after balanced use, want 0", w)
	}
	if l.park.Load() != nil {
		t.Fatal("uncontended use allocated a parker")
	}
}

func TestRWLockUnlockUnheldPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Unlock of unheld lock must panic")
		}
	}()
	var l RWLock
	l.Unlock()
}

func TestRWLockWriterExcludesReaders(t *testing.T) {
	var l RWLock
	l.WLock()
	acquired := make(chan struct{})
	go func() {
		l.RLock()
		close(acquired)
		l.Unlock()
	}()
	select {
	case <-acquired:
		t.Fatal("reader acquired while writer held")
	case <-time.After(20 * time.Millisecond):
	}
	l.Unlock()
	select {
	case <-acquired:
	case <-time.After(time.Second):
		t.Fatal("reader never acquired after writer release")
	}
}

func TestRWLockWriterPreference(t *testing.T) {
	var l RWLock
	l.RLock() // held reader

	writerIn := make(chan struct{})
	go func() {
		l.WLock()
		close(writerIn)
		l.Unlock()
	}()
	// Wait for the writer to announce itself.
	for l.word.Load()&waiterMask == 0 {
		time.Sleep(time.Millisecond)
	}

	// A new reader must queue behind the waiting writer.
	readerIn := make(chan struct{})
	go func() {
		l.RLock()
		close(readerIn)
		l.Unlock()
	}()
	select {
	case <-readerIn:
		t.Fatal("reader overtook a waiting writer")
	case <-time.After(20 * time.Millisecond):
	}

	l.Unlock() // release original reader: writer goes first
	<-writerIn
	<-readerIn
	if st := l.Stats(); st.WriteAcquires != 1 || st.WriteContended != 1 {
		t.Fatalf("stats %+v, want one contended write acquisition", st)
	}
}

// withProcs runs body as a subtest at GOMAXPROCS 2 and 16 and fails it if
// it has not returned by the deadline: a lost wake-up shows as a hang. body
// runs off the test goroutine, so it reports with t.Error only.
func withProcs(t *testing.T, body func(t *testing.T)) {
	for _, procs := range []int{2, 16} {
		t.Run(fmt.Sprintf("procs=%d", procs), func(t *testing.T) {
			defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
			done := make(chan struct{})
			go func() {
				defer close(done)
				body(t)
			}()
			select {
			case <-done:
			case <-time.After(60 * time.Second):
				buf := make([]byte, 1<<16)
				t.Fatalf("deadline passed: lost wake-up or starved acquirer\n%s", buf[:runtime.Stack(buf, true)])
			}
		})
	}
}

func TestRWLockMutualExclusionStress(t *testing.T) {
	withProcs(t, func(t *testing.T) {
		var l RWLock
		var shared int64
		var inWriter atomic.Int32
		var wg sync.WaitGroup
		const writers, readers, iters = 4, 4, 2000

		for w := 0; w < writers; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := 0; i < iters; i++ {
					l.WLock()
					if inWriter.Add(1) != 1 {
						t.Error("two writers inside critical section")
					}
					shared++
					inWriter.Add(-1)
					l.Unlock()
				}
			}()
		}
		for r := 0; r < readers; r++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := 0; i < iters; i++ {
					l.RLock()
					if inWriter.Load() != 0 {
						t.Error("reader overlapped a writer")
					}
					_ = shared
					l.Unlock()
				}
			}()
		}
		wg.Wait()
		if shared != writers*iters {
			t.Errorf("lost updates: shared=%d want %d", shared, writers*iters)
		}
		if st := l.Stats(); st.WriteAcquires != writers*iters {
			t.Errorf("acquisition counter wrong: %+v", st)
		}
		if w := l.word.Load(); w != 0 {
			t.Errorf("lock word %#x at rest, want 0", w)
		}
	})
}

// A writer must get through a stream of readers whose holds overlap, so
// that the reader count alone never reaches zero: only readers queueing
// behind the waiting writer lets it in.
func TestRWLockWriterNotStarvedByReaders(t *testing.T) {
	withProcs(t, func(t *testing.T) {
		var l RWLock
		var stop atomic.Bool
		var inWriter atomic.Bool
		var wg sync.WaitGroup
		for r := 0; r < 8; r++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for !stop.Load() {
					l.RLock()
					runtime.Gosched() // hold across a reschedule so holds overlap
					if inWriter.Load() {
						t.Error("reader inside while the writer holds")
					}
					l.Unlock()
				}
			}()
		}
		for i := 0; i < 500; i++ {
			l.WLock()
			inWriter.Store(true)
			inWriter.Store(false)
			l.Unlock()
		}
		stop.Store(true)
		wg.Wait()
	})
}

// Writers only, parked and woken in every order: each must finish its
// quota, which a lost wake-up between any pair would prevent.
func TestRWLockWriterWriterStress(t *testing.T) {
	withProcs(t, func(t *testing.T) {
		var l RWLock
		var shared int
		var wg sync.WaitGroup
		const writers, iters = 8, 3000
		for w := 0; w < writers; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := 0; i < iters; i++ {
					l.WLock()
					shared++
					if i%64 == 0 {
						runtime.Gosched() // hold long enough for the others to park
					}
					l.Unlock()
				}
			}()
		}
		wg.Wait()
		if shared != writers*iters {
			t.Errorf("lost updates: shared=%d want %d", shared, writers*iters)
		}
		if st := l.Stats(); st.WriteContended == 0 || st.WriteContended > st.WriteAcquires {
			t.Errorf("implausible contention count: %+v", st)
		}
	})
}

// A promotion climb write-locks a root path leaf first; a zone collection
// write-locks its one heap and takes nothing else. Running both over one
// hierarchy, with zone heaps on the climbed paths, must neither deadlock
// nor let two holders into one heap.
func TestLockZoneVersusClimb(t *testing.T) {
	withProcs(t, func(t *testing.T) {
		root := NewRoot()
		mid := NewChild(root)
		leaves := []*Heap{NewChild(mid), NewChild(mid), NewChild(mid)}
		holders := map[*Heap]*atomic.Int32{root: {}, mid: {}}
		for _, h := range leaves {
			holders[h] = &atomic.Int32{}
		}
		enter := func(h *Heap) {
			if holders[h].Add(1) != 1 {
				t.Errorf("%v write-locked twice", h)
			}
		}
		exit := func(h *Heap) { holders[h].Add(-1) }

		var wg sync.WaitGroup
		const iters = 2000
		for _, leaf := range leaves {
			wg.Add(1)
			go func(leaf *Heap) { // climbs: leaf, mid, root
				defer wg.Done()
				path := []*Heap{leaf, mid, root}
				for i := 0; i < iters; i++ {
					for _, h := range path {
						h.Lock(WRITE)
						enter(h)
					}
					for j := len(path) - 1; j >= 0; j-- {
						exit(path[j])
						path[j].Unlock()
					}
				}
			}(leaf)
		}
		// mid appears twice: two collectors of one heap, which only a leaked
		// pointer could cause, must still take turns.
		for _, zone := range []*Heap{root, mid, leaves[1], mid} {
			wg.Add(1)
			go func(zone *Heap) {
				defer wg.Done()
				for i := 0; i < iters; i++ {
					zone.Lock(WRITE)
					enter(zone)
					exit(zone)
					zone.Unlock()
				}
			}(zone)
		}
		// findMaster-style readers on the shared ancestors.
		for _, h := range []*Heap{mid, root} {
			wg.Add(1)
			go func(h *Heap) {
				defer wg.Done()
				for i := 0; i < iters; i++ {
					h.Lock(READ)
					if holders[h].Load() != 0 {
						t.Errorf("reader inside %v beside a writer", h)
					}
					h.Unlock()
				}
			}(h)
		}
		wg.Wait()
	})
}

// The lock word, the fields Depth reads, and the fields FreshObjVia writes
// each get a cache line of their own (see the Heap type's comment). That
// holds only if heaps are allocated line-aligned, which the Go allocator
// does for a size that is a multiple of the line.
func TestHeapLayout(t *testing.T) {
	const line = 64
	var h Heap
	if size := unsafe.Sizeof(h); size != 3*line {
		t.Fatalf("Heap is %d bytes, want %d", size, 3*line)
	}
	lines := map[string]uintptr{
		"lk.word":   (unsafe.Offsetof(h.lk) + unsafe.Offsetof(h.lk.word)) / line,
		"depth":     unsafe.Offsetof(h.depth) / line,
		"parent":    unsafe.Offsetof(h.parent) / line,
		"merged":    unsafe.Offsetof(h.merged) / line,
		"tail":      unsafe.Offsetof(h.tail) / line,
		"usedWords": unsafe.Offsetof(h.usedWords) / line,
	}
	want := map[string]uintptr{"lk.word": 0, "depth": 1, "parent": 1, "merged": 1, "tail": 2, "usedWords": 2}
	for f, l := range lines {
		if l != want[f] {
			t.Errorf("%s is on line %d of the struct, want %d", f, l, want[f])
		}
	}
	root := NewRoot()
	for i, hp := 0, root; i < 64; i++ {
		if a := uintptr(unsafe.Pointer(hp)); a%line != 0 {
			t.Fatalf("heap %d allocated at %#x, not line-aligned", i, a)
		}
		hp = NewChild(hp)
	}
}

// BenchmarkRWLock measures one acquire/release pair of the heap lock in
// each mode: alone, and with every processor (at least two goroutines)
// going for the same lock.
func BenchmarkRWLock(b *testing.B) {
	for _, mode := range []Mode{WRITE, READ} {
		name := map[Mode]string{WRITE: "write", READ: "read"}[mode]
		b.Run(name+"/uncontended", func(b *testing.B) {
			var l RWLock
			for i := 0; i < b.N; i++ {
				l.Lock(mode)
				l.Unlock()
			}
		})
		b.Run(name+"/contended", func(b *testing.B) {
			var l RWLock
			if runtime.GOMAXPROCS(0) == 1 {
				b.SetParallelism(2)
			}
			b.RunParallel(func(pb *testing.PB) {
				for pb.Next() {
					l.Lock(mode)
					l.Unlock()
				}
			})
		})
	}
}
