package heap

// IsAncestorOf reports whether h is an ancestor of d in the hierarchy,
// counting a heap as an ancestor of itself. Both ends are resolved through
// joins first, so a heap that was merged into h counts as h. It backs the
// disentanglement checker's zone-membership queries (core.CheckHeap).
func (h *Heap) IsAncestorOf(d *Heap) bool {
	h = h.Resolve()
	for a := d.Resolve(); a != nil; a = a.Parent() {
		if a == h {
			return true
		}
		if a.Depth() < h.Depth() {
			return false // climbed above h: can only get shallower
		}
	}
	return false
}
