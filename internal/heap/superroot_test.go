package heap

import (
	"testing"

	"repro/internal/mem"
)

func TestReleaseWholesaleFreesChunksWithoutMerging(t *testing.T) {
	base := mem.ChunksInUse()
	root := NewRoot()
	child := NewChild(root)
	for i := 0; i < 64; i++ {
		child.FreshObj(2, 6, mem.TagTuple)
	}
	if child.NumChunks() == 0 {
		t.Fatal("expected the child to own chunks")
	}
	rootChunksBefore := root.NumChunks()
	wantBytes := child.CapWords() * 8

	got := ReleaseWholesale(nil, root, child)
	if got != wantBytes {
		t.Fatalf("ReleaseWholesale returned %d bytes, want %d", got, wantBytes)
	}
	if root.NumChunks() != rootChunksBefore {
		t.Fatalf("wholesale release must not splice chunks into the root (%d -> %d)",
			rootChunksBefore, root.NumChunks())
	}
	if child.IsAlive() {
		t.Fatal("released child should alias its parent")
	}
	if child.Resolve() != root {
		t.Fatal("released child should resolve to the super-root")
	}
	if mem.ChunksInUse() != base {
		t.Fatalf("chunks leaked: %d in use, want %d", mem.ChunksInUse(), base)
	}
	// Releasing again (now an alias of root) frees nothing.
	if again := ReleaseWholesale(nil, root, child); again != 0 {
		t.Fatalf("second release freed %d bytes, want 0", again)
	}
}

func TestReleaseWholesaleAfterJoinIsNoop(t *testing.T) {
	root := NewRoot()
	child := NewChild(root)
	child.FreshObj(0, 4, mem.TagTuple)
	Join(root, child)
	if n := ReleaseWholesale(nil, root, child); n != 0 {
		t.Fatalf("release after join freed %d bytes, want 0 (chunks belong to the root now)", n)
	}
	FreeChunkList(root.TakeChunks())
}
