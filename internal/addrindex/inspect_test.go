package addrindex

import (
	"cmp"
	"slices"
)

// Exact-base lookup, ordered traversal and the live count, for the
// package's tests: the logger resolves addresses only through Stab and
// reaches records through Insert, Remove and Move.

// Len returns the number of live ranges.
func (t *Table[V]) Len() int { return t.n }

// Get returns a pointer to the value of the range based exactly at
// base, or nil. The pointer remains valid until the range is removed.
func (t *Table[V]) Get(base uint64) *V {
	if i := t.findExact(base); i != noEntry {
		return &t.arena.At(i).value
	}
	return nil
}

// Walk visits every live range in ascending base order until fn returns
// false. fn must not mutate the table. Walk sorts an index of the arena
// per call: it is for tests and diagnostics, not the hot path.
func (t *Table[V]) Walk(fn func(base, size uint64, value *V) bool) {
	idx := make([]int32, 0, t.n)
	for i := int32(0); i < int32(t.arena.Len()); i++ {
		if t.arena.At(i).live {
			idx = append(idx, i)
		}
	}
	slices.SortFunc(idx, func(a, b int32) int { return cmp.Compare(t.arena.At(a).base, t.arena.At(b).base) })
	for _, i := range idx {
		e := t.arena.At(i)
		if !fn(e.base, e.size, &e.value) {
			return
		}
	}
}
