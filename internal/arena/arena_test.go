package arena

import "testing"

type rec struct {
	a, b uint64
	p    *int
}

// TestAtAcrossSegmentBoundaries pushes past several segment boundaries
// (63/64, 191/192, 447/448, …) and checks that every index resolves to
// its own entry.
func TestAtAcrossSegmentBoundaries(t *testing.T) {
	var s Seg[int32]
	const n = 4000
	for i := int32(0); i < n; i++ {
		*s.Push() = i
		if s.Len() != int(i)+1 {
			t.Fatalf("Len after %d pushes = %d", i+1, s.Len())
		}
	}
	for i := int32(0); i < n; i++ {
		if got := *s.At(i); got != i {
			t.Fatalf("At(%d) = %d", i, got)
		}
	}
	for _, c := range []struct{ i, seg, off int32 }{
		{0, 0, 0}, {63, 0, 63}, {64, 1, 0}, {191, 1, 127},
		{192, 2, 0}, {447, 2, 255}, {448, 3, 0}, {959, 3, 511}, {960, 4, 0},
	} {
		if seg, off := locate(c.i); seg != int(c.seg) || off != int(c.off) {
			t.Errorf("locate(%d) = (%d, %d), want (%d, %d)", c.i, seg, off, c.seg, c.off)
		}
	}
	// Capacity bound: below 2×Len+64.
	total := 0
	for _, seg := range s.segs {
		total += len(seg)
	}
	if total >= 2*n+64 {
		t.Errorf("capacity %d for %d entries, want < %d", total, n, 2*n+64)
	}
}

// TestPushZeroed: every pushed entry reads as the zero value, also in
// segments allocated after earlier entries were written.
func TestPushZeroed(t *testing.T) {
	var s Seg[rec]
	x := 7
	for i := 0; i < 1000; i++ {
		r := s.Push()
		if *r != (rec{}) {
			t.Fatalf("entry %d not zero after Push: %+v", i, *r)
		}
		*r = rec{a: ^uint64(0), b: uint64(i), p: &x}
	}
}

// TestPointerStability: pointers taken from Push and At keep addressing
// the same entries however many segments are added later.
func TestPointerStability(t *testing.T) {
	var s Seg[rec]
	var ptrs []*rec
	for i := 0; i < 3000; i++ {
		r := s.Push()
		r.a = uint64(i)
		ptrs = append(ptrs, r)
		if i%97 == 0 {
			for j, p := range ptrs {
				if p != s.At(int32(j)) || p.a != uint64(j) {
					t.Fatalf("after %d pushes, entry %d moved or changed", i+1, j)
				}
			}
		}
	}
	for j, p := range ptrs {
		p.b = uint64(j) * 3
	}
	for j := range ptrs {
		if got := s.At(int32(j)).b; got != uint64(j)*3 {
			t.Fatalf("write through pointer %d not visible via At: %d", j, got)
		}
	}
}

// TestPushAllocations: growth allocates one segment per doubling and
// nothing in between.
func TestPushAllocations(t *testing.T) {
	allocs := testing.AllocsPerRun(1, func() {
		var s Seg[rec]
		for i := 0; i < 64<<4-64; i++ { // exactly four segments
			s.Push()
		}
	})
	// Four segments plus the segment-header slice growing 1 → 2 → 4.
	if allocs > 7 {
		t.Errorf("%v allocations to fill four segments, want <= 7", allocs)
	}
}

// TestResetReusesSegments: after Reset every Push returns a zero entry,
// pointer field included, however dirty the reused entry was; refilling
// to the old length allocates nothing; and entries past the old
// high-water mark, in segments first reached after the Reset, are zero
// too.
func TestResetReusesSegments(t *testing.T) {
	var s Seg[rec]
	x := 7
	fill := func(n int) {
		for i := 0; i < n; i++ {
			r := s.Push()
			if *r != (rec{}) {
				t.Fatalf("entry %d not zero after Push: %+v", i, *r)
			}
			*r = rec{a: ^uint64(0), b: uint64(i), p: &x}
		}
	}
	fill(1000)
	s.Reset()
	if s.Len() != 0 {
		t.Fatalf("Len after Reset = %d", s.Len())
	}
	fill(300) // below the high-water mark
	s.Reset()
	fill(1000) // entries 300–999 still hold the first fill's values
	s.Reset()
	fill(3000) // past the mark: new segments
	s.Reset()
	if allocs := testing.AllocsPerRun(5, func() {
		s.Reset()
		for i := 0; i < 3000; i++ {
			s.Push().p = &x
		}
	}); allocs != 0 {
		t.Errorf("%v allocations to refill a reset Seg, want 0", allocs)
	}
}
