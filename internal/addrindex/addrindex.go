// Package addrindex provides the execution logger's O(1) address
// resolution structure: a page-indexed object table in the style of
// tcmalloc's pagemap and the Go runtime's span index.
//
// The logger resolves two addresses per observed pointer store (the
// written slot and the stored value), so address resolution dominates
// the per-event hot path. The treap behind intervals.Map answers the
// same queries in O(log n) pointer-chasing steps through GC-scanned
// nodes; this table answers them with a couple of array indexes:
//
//	addr ──▶ chunk directory ──▶ page ref list ──▶ object record
//	         (hash, cached)      (binary search)   (arena slot)
//
// Layout. The address space is cut into 4 KiB pages and pages are
// grouped into 512-page (2 MiB) chunks. A chunk holds, per page, the
// list of objects whose [base, base+size) range intersects that page,
// sorted by base. Each ref carries its object's base next to the arena
// index, so the binary search runs over one contiguous list and the
// arena is touched once, for the containment check. Object records
// live in a segmented arena (arena.Seg) with freelist recycling: it
// grows without copying, and steady-state alloc/free traffic performs
// no heap allocation at all. Two single-entry caches make the
// common cases pure array work: a last-hit cache (store bursts into
// one object resolve with one comparison) and a last-chunk cache
// (locality across objects skips the chunk directory hash).
//
// Objects spanning more than maxSpanPages pages would make per-page
// registration arbitrarily expensive (a malformed trace can claim a
// 2^63-byte allocation), so such ranges go to a small linear side
// list instead — semantics are identical, and well-formed workloads
// never hit it.
//
// Semantics match intervals.Map exactly (the treap remains the test
// oracle): ranges are half-open, interior addresses resolve to their
// containing range, a stab at base+size misses, and zero-size ranges
// are Get/Remove-able but transparent to Stab.
package addrindex

import (
	"sort"

	"heapmd/internal/arena"
)

const (
	// PageShift selects the 4 KiB page granularity of the index.
	PageShift = 12
	pageSize  = 1 << PageShift

	// chunkShift groups 512 pages (2 MiB of address space) per chunk.
	chunkShift = 9
	chunkPages = 1 << chunkShift

	// maxSpanPages bounds per-page registration work for one object;
	// larger ranges are kept in the linear huge list.
	maxSpanPages = 1 << 16 // 256 MiB

	noEntry = int32(-1)
)

// entry is one object record in the arena.
type entry[V any] struct {
	base  uint64
	size  uint64
	value V
	live  bool
}

// ref names one object record: its base address and arena index.
type ref struct {
	base uint64
	i    int32
}

// chunk holds the per-page object ref lists for one 2 MiB address
// range. refs[i] lists every live object whose range intersects page
// i, sorted by base. Most pages hold a handful of objects, so the
// lists stay in the small-slice regime.
type chunk struct {
	refs [chunkPages][]ref
}

// Table maps disjoint [base, base+size) ranges to values of type V
// with O(1) expected stabbing queries. The zero Table is not ready to
// use; call New. A Table is single-goroutine, like the logger that
// owns it.
type Table[V any] struct {
	chunks map[uint64]*chunk
	arena  arena.Seg[entry[V]]
	free   []int32
	huge   []ref // ranges wider than maxSpanPages
	n      int

	// lastHits caches the arena indices of recent successful Stabs
	// (noEntry when empty), most recent first. Two entries, because
	// the logger stabs two addresses per store — the written slot and
	// the stored value — and a single entry would thrash between them.
	lastHits  [2]int32
	lastChunk *chunk // chunk of the last directory lookup
	lastKey   uint64
}

// New returns an empty table.
func New[V any]() *Table[V] {
	return &Table[V]{chunks: make(map[uint64]*chunk), lastHits: [2]int32{noEntry, noEntry}}
}

// Len returns the number of live ranges.
func (t *Table[V]) Len() int { return t.n }

// chunkFor returns the chunk covering page, creating it if needed.
func (t *Table[V]) chunkFor(page uint64) *chunk {
	key := page >> chunkShift
	if t.lastChunk != nil && t.lastKey == key {
		return t.lastChunk
	}
	c := t.chunks[key]
	if c == nil {
		c = new(chunk)
		t.chunks[key] = c
	}
	t.lastKey, t.lastChunk = key, c
	return c
}

// lookupChunk returns the chunk covering page without creating it.
func (t *Table[V]) lookupChunk(page uint64) *chunk {
	key := page >> chunkShift
	if t.lastChunk != nil && t.lastKey == key {
		return t.lastChunk
	}
	c := t.chunks[key]
	if c != nil {
		t.lastKey, t.lastChunk = key, c
	}
	return c
}

// pageRange returns the inclusive page span of [base, base+size),
// clamping the degenerate and wrapping cases: a zero-size range
// occupies only its base page (for Get/Remove reachability), and a
// range whose end wraps past the top of the address space is clamped
// to the last page.
func pageRange(base, size uint64) (first, last uint64) {
	first = base >> PageShift
	if size == 0 {
		return first, first
	}
	end := base + size - 1
	if end < base { // wrapped
		end = ^uint64(0)
	}
	return first, end >> PageShift
}

// search returns the position of the first ref in refs whose base is
// at least base (hand rolled: the sort.Search closure is measurable on
// the event hot path).
func search(refs []ref, base uint64) int {
	lo, hi := 0, len(refs)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if refs[mid].base >= base {
			hi = mid
		} else {
			lo = mid + 1
		}
	}
	return lo
}

// insertRef adds r into a sorted ref list.
func insertRef(refs []ref, r ref) []ref {
	pos := search(refs, r.base)
	refs = append(refs, ref{})
	copy(refs[pos+1:], refs[pos:])
	refs[pos] = r
	return refs
}

// removeRef deletes the ref to arena index i from a ref list.
func removeRef(refs []ref, i int32) []ref {
	for k, r := range refs {
		if r.i == i {
			copy(refs[k:], refs[k+1:])
			return refs[:len(refs)-1]
		}
	}
	return refs
}

// Insert adds the range [base, base+size) with the given value. The
// caller must guarantee the range does not overlap an existing one;
// allocators never hand out overlapping live ranges. The returned
// pointer refers to the stored value and remains valid until the range
// is removed.
func (t *Table[V]) Insert(base, size uint64, value V) *V {
	var i int32
	var e *entry[V]
	if k := len(t.free); k > 0 {
		i = t.free[k-1]
		t.free = t.free[:k-1]
		e = t.arena.At(i)
	} else {
		i = int32(t.arena.Len())
		e = t.arena.Push()
	}
	*e = entry[V]{base: base, size: size, value: value, live: true}
	r := ref{base: base, i: i}
	first, last := pageRange(base, size)
	if size > 0 && last-first+1 > maxSpanPages {
		t.huge = append(t.huge, r)
	} else {
		for p := first; ; p++ {
			c := t.chunkFor(p)
			pi := p & (chunkPages - 1)
			c.refs[pi] = insertRef(c.refs[pi], r)
			if p == last {
				break
			}
		}
	}
	t.n++
	return &e.value
}

// findExact returns the arena index of the range based exactly at
// base, or noEntry.
func (t *Table[V]) findExact(base uint64) int32 {
	c := t.lookupChunk(base >> PageShift)
	if c != nil {
		refs := c.refs[(base>>PageShift)&(chunkPages-1)]
		if k := search(refs, base); k < len(refs) && refs[k].base == base {
			return refs[k].i
		}
	}
	for _, r := range t.huge {
		if r.base == base {
			return r.i
		}
	}
	return noEntry
}

// Get returns a pointer to the value of the range based exactly at
// base, or nil. The pointer remains valid until the range is removed.
func (t *Table[V]) Get(base uint64) *V {
	i := t.findExact(base)
	if i == noEntry {
		return nil
	}
	return &t.arena.At(i).value
}

// Remove deletes the range based exactly at base, returning its value
// and whether an entry was removed.
func (t *Table[V]) Remove(base uint64) (V, bool) {
	i := t.findExact(base)
	if i == noEntry {
		var zero V
		return zero, false
	}
	e := t.arena.At(i)
	first, last := pageRange(e.base, e.size)
	if e.size > 0 && last-first+1 > maxSpanPages {
		t.huge = removeRef(t.huge, i)
	} else {
		for p := first; ; p++ {
			c := t.lookupChunk(p)
			if c != nil {
				pi := p & (chunkPages - 1)
				c.refs[pi] = removeRef(c.refs[pi], i)
			}
			if p == last {
				break
			}
		}
	}
	v := e.value
	var zero V
	e.value = zero // release references held by the recycled slot
	e.live = false
	e.size = 0
	t.free = append(t.free, i)
	t.n--
	if t.lastHits[0] == i {
		t.lastHits[0] = noEntry
	}
	if t.lastHits[1] == i {
		t.lastHits[1] = noEntry
	}
	return v, true
}

// remember records arena index i as the most recent Stab hit.
func (t *Table[V]) remember(i int32) {
	if t.lastHits[0] != i {
		t.lastHits[1] = t.lastHits[0]
		t.lastHits[0] = i
	}
}

// Stab returns the base, size and value of the range containing addr.
// Interior addresses resolve to their containing range. The semantics
// are identical to intervals.Map.Stab: half-open ranges, zero-size
// ranges transparent. The value pointer remains valid until the range
// is removed.
func (t *Table[V]) Stab(addr uint64) (base, size uint64, value *V, ok bool) {
	// Last-hit cache: consecutive stores into one object resolve with
	// a single comparison. addr-e.base underflows to a huge value when
	// addr < base, so one unsigned comparison checks both bounds.
	for k, i := range t.lastHits {
		if i == noEntry {
			continue
		}
		e := t.arena.At(i)
		if addr-e.base < e.size {
			if k != 0 {
				t.remember(i)
			}
			return e.base, e.size, &e.value, true
		}
	}
	c := t.lookupChunk(addr >> PageShift)
	if c != nil {
		refs := c.refs[(addr>>PageShift)&(chunkPages-1)]
		// The candidate is the entry with the largest base <= addr.
		// Walking back over non-containing predecessors (instead of
		// testing only the immediate one) makes zero-size entries
		// transparent — they are registered on their base page for
		// Get/Remove but always fail the containment check — and keeps
		// the search robust when a damaged trace registers
		// overlapping ranges. The binary search (first base > addr,
		// hand rolled like search) reads only the ref list; the arena
		// is touched for the containment check alone.
		lo, hi := 0, len(refs)
		for lo < hi {
			mid := int(uint(lo+hi) >> 1)
			if refs[mid].base > addr {
				hi = mid
			} else {
				lo = mid + 1
			}
		}
		for pos := lo - 1; pos >= 0; pos-- {
			r := refs[pos]
			if e := t.arena.At(r.i); addr-r.base < e.size {
				t.remember(r.i)
				return r.base, e.size, &e.value, true
			}
		}
	}
	for _, r := range t.huge {
		if e := t.arena.At(r.i); addr-r.base < e.size {
			t.remember(r.i)
			return r.base, e.size, &e.value, true
		}
	}
	return 0, 0, nil, false
}

// Walk visits every live range in ascending base order; iteration
// stops if fn returns false. fn must not mutate the table. Walk sorts
// an index of the arena per call — it exists for tests and
// diagnostics, not the hot path.
func (t *Table[V]) Walk(fn func(base, size uint64, value *V) bool) {
	idx := make([]int32, 0, t.n)
	for i := int32(0); i < int32(t.arena.Len()); i++ {
		if t.arena.At(i).live {
			idx = append(idx, i)
		}
	}
	sort.Slice(idx, func(a, b int) bool {
		return t.arena.At(idx[a]).base < t.arena.At(idx[b]).base
	})
	for _, i := range idx {
		e := t.arena.At(i)
		if !fn(e.base, e.size, &e.value) {
			return
		}
	}
}
