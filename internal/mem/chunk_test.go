package mem

import (
	"sync"
	"testing"
)

func TestChunkBump(t *testing.T) {
	c := NewChunk(16)
	defer FreeChunk(c)
	if c.Cap() != MinChunkWords {
		t.Fatalf("small request should round up to the minimum: got %d", c.Cap())
	}
	off, ok := c.Bump(10)
	if !ok || off != 0 {
		t.Fatalf("first bump: off=%d ok=%v", off, ok)
	}
	off, ok = c.Bump(MinChunkWords - 10)
	if !ok || off != 10 {
		t.Fatalf("second bump: off=%d ok=%v", off, ok)
	}
	if _, ok = c.Bump(1); ok {
		t.Fatal("bump past capacity must fail")
	}
}

func TestChunkBumpOverflow(t *testing.T) {
	c := NewChunk(16)
	defer FreeChunk(c)
	if _, ok := c.Bump(^uint32(0)); ok {
		t.Fatal("overflowing bump must fail")
	}
}

func TestChunkDirectory(t *testing.T) {
	c := NewChunk(32)
	got := GetChunk(c.ID())
	if got != c {
		t.Fatalf("directory lookup returned %p, want %p", got, c)
	}
	id := c.ID()
	FreeChunk(c)
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("lookup of freed chunk must panic")
			}
		}()
		GetChunk(id)
	}()
}

func TestChunkIDReuse(t *testing.T) {
	a := NewChunk(8)
	id := a.ID()
	FreeChunk(a)
	b := NewChunk(8)
	defer FreeChunk(b)
	if b.ID() != id {
		t.Fatalf("freed ID %d should be reused, got %d", id, b.ID())
	}
}

func TestGetChunkNil(t *testing.T) {
	if GetChunk(0) != nil {
		t.Fatal("GetChunk(0) must return nil")
	}
}

func TestAccounting(t *testing.T) {
	base := LiveBytes()
	ResetHighWater()
	c1 := NewChunk(DefaultChunkWords)
	c2 := NewChunk(4 * DefaultChunkWords)
	wantLive := base + int64(5*DefaultChunkWords*8)
	_ = c1
	if LiveBytes() != wantLive {
		t.Fatalf("LiveBytes = %d, want %d", LiveBytes(), wantLive)
	}
	if HighWaterBytes() < wantLive {
		t.Fatalf("HighWaterBytes = %d, want >= %d", HighWaterBytes(), wantLive)
	}
	FreeChunk(c1)
	FreeChunk(c2)
	if LiveBytes() != base {
		t.Fatalf("LiveBytes after free = %d, want %d", LiveBytes(), base)
	}
	if HighWaterBytes() < wantLive {
		t.Fatal("high water must not shrink on free")
	}
}

func TestConcurrentChunkAllocFree(t *testing.T) {
	const goroutines = 8
	const perG = 200
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perG; i++ {
				c := NewChunk(64)
				if GetChunk(c.ID()) != c {
					t.Error("lost chunk in directory")
					return
				}
				FreeChunk(c)
			}
		}()
	}
	wg.Wait()
}

// The high-water mark is exact: one short-lived chunk above the reset
// point must show in it to the byte.
func TestHighWaterIsExact(t *testing.T) {
	ResetHighWater()
	base := HighWaterBytes()
	FreeChunk(NewChunk(MinChunkWords))
	if got, want := HighWaterBytes(), base+MinChunkWords*8; got != want {
		t.Fatalf("HighWaterBytes = %d after one %d-byte chunk, want %d", got, MinChunkWords*8, want)
	}
}
