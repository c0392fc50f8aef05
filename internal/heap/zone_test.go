package heap

import "testing"

func TestIsAncestorOf(t *testing.T) {
	root := NewRoot()
	mid := NewChild(root)
	leaf := NewChild(mid)
	other := NewChild(root)

	if !root.IsAncestorOf(leaf) || !mid.IsAncestorOf(leaf) || !leaf.IsAncestorOf(leaf) {
		t.Fatal("ancestry chain broken")
	}
	if leaf.IsAncestorOf(mid) || other.IsAncestorOf(leaf) || mid.IsAncestorOf(other) {
		t.Fatal("false ancestry")
	}

	// Joins alias the child into the parent: ancestry must follow.
	Join(mid, leaf)
	if !mid.IsAncestorOf(leaf) || !leaf.IsAncestorOf(mid) {
		t.Fatal("merged heaps must be mutual ancestors")
	}
}
