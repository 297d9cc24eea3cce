// Package arena provides Seg, the append-only segmented array behind
// the per-object arenas of the heap image: the heap graph's adjacency
// sets and the address table's object records.
//
// A plain slice grown by append copies every entry each time it
// doubles and leaves the old backing array to the collector, so a
// growing heap image pays for its records about twice over in copying,
// zeroing and GC work. Seg instead grows by adding one segment. Segment
// k holds 64<<k entries, so entry i lives at a position computed with
// one bits.Len32, nothing is ever copied, each byte is zeroed once (by
// the segment's allocation), and the capacity stays below 2×Len+64.
// A pointer returned by At or Push stays valid until the next Reset.
//
// Reset empties a Seg but keeps its segments, so a heap image rebuilt
// for the next run refills the same memory instead of allocating and
// zeroing it again. Push then zeroes a reused entry itself, and only
// below the previous high-water mark: entries in segments no run has
// reached yet still come zeroed from their allocation.
package arena

import "math/bits"

// firstShift sizes the first segment: 1<<firstShift entries.
const firstShift = 6

// Seg is a segmented array indexed by int32. The zero value is empty
// and ready to use.
type Seg[T any] struct {
	segs  [][]T
	n     int32
	dirty int32 // entries below dirty may hold values from before a Reset
}

// Len returns the number of entries pushed.
func (s *Seg[T]) Len() int { return int(s.n) }

// locate returns the segment and the offset within it of entry i.
// With j = i + 64, the segment is the position of j's top bit above
// the first segment's, and the offset is j without that bit.
func locate(i int32) (seg, off int) {
	j := uint32(i) + 1<<firstShift
	k := bits.Len32(j) - 1
	return k - firstShift, int(j &^ (1 << k))
}

// At returns a pointer to entry i, which must be below Len.
func (s *Seg[T]) At(i int32) *T {
	k, off := locate(i)
	return &s.segs[k][off]
}

// Push appends a zero entry and returns a pointer to it; its index is
// Len()-1. When the last segment is full, Push allocates the next one,
// twice as large, unless a Reset kept it.
func (s *Seg[T]) Push() *T {
	k, off := locate(s.n)
	if k == len(s.segs) {
		s.segs = append(s.segs, make([]T, 1<<(firstShift+k)))
	}
	e := &s.segs[k][off]
	if s.n < s.dirty {
		var zero T
		*e = zero
	}
	s.n++
	return e
}

// Reset empties s and keeps its segments for the entries pushed next.
// Pointers taken before the Reset must not be used after it.
func (s *Seg[T]) Reset() {
	s.dirty = max(s.dirty, s.n)
	s.n = 0
}
