// Package addrindex provides the execution logger's O(1) address
// resolution structure: a page-indexed object table in the style of
// tcmalloc's pagemap and the Go runtime's span index. The logger
// resolves two addresses per observed pointer store, so this is its
// hottest lookup; the intervals.Map treap answers the same queries in
// O(log n) pointer-chasing steps and remains the test oracle.
//
//	addr ──▶ chunk directory ──▶ page start bitmap ──▶ rank ───────▶ object record
//	         (hash, cached)      (bits.Len64 scan)    (popcount)    (arena slot)
//
// 4 KiB pages are grouped into 512-page (2 MiB) chunks. The first
// object that starts on a page allocates its page record: a one-cache-
// line start bitmap (a bit per 8-byte granule in which an object
// starts) and refs, those objects' arena indices in address order. An
// object's position in refs is its rank, the popcount of the start
// bits below its granule, so Insert and Remove find their slot without
// a search. A page that only lies inside an object costs its chunk one
// cover entry (4 bytes). Object records live in a segmented arena
// (arena.Seg) with a freelist and empty page records are recycled, so
// steady-state churn allocates nothing; Reset keeps all of it for the
// next run. Objects starting in one granule (unaligned or sub-word,
// from damaged raw traces) chain through their records, base
// descending. Zero-size ranges live in a side map, and ranges wider
// than maxSpanPages in a linear huge list.
//
// Semantics match intervals.Map: ranges are half-open, interior
// addresses resolve to their containing range, and zero-size ranges
// are Get/Remove-able but transparent to Stab. Stab takes the live
// range with the largest non-zero-size base <= addr, then checks
// containment; with disjoint ranges that is the only possible hit.
// Overlapping ranges (damaged traces) stay safe: Get and Remove reach
// every base once, and a Stab hit always contains addr and is live.
// But the candidate is then sought on addr's page only, else in the
// page's cover (the last-inserted range reaching it), so such a stab
// may miss or hit where the treap would not.
package addrindex

import (
	"cmp"
	"math/bits"
	"slices"

	"heapmd/internal/arena"
)

const (
	// PageShift selects the 4 KiB page granularity of the index.
	PageShift  = 12
	pageSize   = 1 << PageShift
	chunkShift = 9 // 512 pages (2 MiB) per chunk
	chunkPages = 1 << chunkShift

	// maxSpanPages bounds per-page registration work for one object;
	// larger ranges are kept in the linear huge list.
	maxSpanPages = 1 << 16 // 256 MiB
	noEntry      = int32(-1)
)

// entry is one object record in the arena.
type entry[V any] struct {
	base  uint64
	size  uint64
	value V
	next  int32 // next range of the same granule or zero-size base, by base descending
	live  bool
}

// ref names one huge object record: its base address and arena index.
type ref struct {
	base uint64
	i    int32
}

// page indexes the objects that start in one page.
type page struct {
	starts [8]uint64 // bit g: an object starts in 8-byte granule g (512 per page)
	refs   []int32   // chain heads, one per start bit, in address order
	before [8]uint16 // start bits in the words below each word
}

// granule returns the index of addr's 8-byte granule in its page.
func granule(addr uint64) uint { return uint(addr>>3) & (pageSize/8 - 1) }

// rank returns the number of start bits below granule g.
func (p *page) rank(g uint) int {
	return int(p.before[g>>6]) + bits.OnesCount64(p.starts[g>>6]&(1<<(g&63)-1))
}

// chunk indexes one 2 MiB address range. cover[i] is 1 + the arena index
// of the last range inserted that started on an earlier page and reaches
// page i, or 0. Remove leaves it stale: a freed record has size 0 and
// fails every containment check, and a live range reusing the slot is,
// if it contains the address, the only range that can.
type chunk struct {
	pages [chunkPages]*page
	cover [chunkPages]int32
}

// Table maps disjoint [base, base+size) ranges to values of type V with
// O(1) expected stabbing queries. The zero Table is not ready to use;
// call New. A Table is single-goroutine, like the logger that owns it.
type Table[V any] struct {
	chunks      map[uint64]*chunk
	arena       arena.Seg[entry[V]]
	free        []int32
	spare       []*page          // emptied page records, for reuse
	spareChunks []*chunk         // chunks Reset took out of the directory
	zero        map[uint64]int32 // zero-size ranges: 1 + chain head per base
	huge        []ref            // ranges wider than maxSpanPages
	n           int
	// lastHits caches the arena indices of recent Stab hits (noEntry
	// when empty), most recent first: two, because the logger stabs two
	// addresses per store and a single entry would thrash between them.
	lastHits  [2]int32
	lastChunk *chunk // chunk of the last directory lookup
	lastKey   uint64
}

// New returns an empty table.
func New[V any]() *Table[V] {
	return &Table[V]{chunks: make(map[uint64]*chunk), zero: make(map[uint64]int32),
		lastHits: [2]int32{noEntry, noEntry}}
}

// Len returns the number of live ranges.
func (t *Table[V]) Len() int { return t.n }

// Reset empties the table for reuse, keeping its storage: the arena's
// segments (arena.Seg.Reset), the free list's capacity, every page
// record (emptied, to spare) and every chunk (to spareChunks; zeroed
// when chunkFor takes it back). Chunks leave the directory map, which
// is keyed by address, so what a reset table holds is bounded by one
// run's high-water mark however scattered the next run's addresses.
func (t *Table[V]) Reset() {
	for _, c := range t.chunks {
		for _, p := range c.pages {
			if p != nil {
				*p = page{refs: p.refs[:0]}
				t.spare = append(t.spare, p)
			}
		}
		t.spareChunks = append(t.spareChunks, c)
	}
	clear(t.chunks)
	t.arena.Reset()
	t.free = t.free[:0]
	clear(t.zero)
	t.huge = t.huge[:0]
	t.n = 0
	t.lastHits = [2]int32{noEntry, noEntry}
	t.lastChunk, t.lastKey = nil, 0
}

// chunkFor returns the chunk covering page, creating it if create is
// set, else returning nil when there is none.
func (t *Table[V]) chunkFor(page uint64, create bool) *chunk {
	key := page >> chunkShift
	if t.lastChunk != nil && t.lastKey == key {
		return t.lastChunk
	}
	c := t.chunks[key]
	if c == nil && create {
		if k := len(t.spareChunks); k > 0 {
			c, t.spareChunks = t.spareChunks[k-1], t.spareChunks[:k-1]
			*c = chunk{}
		} else {
			c = new(chunk)
		}
		t.chunks[key] = c
	}
	if c != nil {
		t.lastKey, t.lastChunk = key, c
	}
	return c
}

// pageRange returns the inclusive page span of a non-empty range
// [base, base+size), clamping an end that wraps to the last page.
func pageRange(base, size uint64) (first, last uint64) {
	end := base + size - 1
	if end < base { // wrapped
		end = ^uint64(0)
	}
	return base >> PageShift, end >> PageShift
}

// unlink removes arena index i from the chain starting at *link.
func (t *Table[V]) unlink(link *int32, i int32) {
	for *link != i {
		link = &t.arena.At(*link).next
	}
	*link = t.arena.At(i).next
}

// Insert adds the range [base, base+size) with the given value. Live
// ranges should not overlap (allocators never hand out overlapping
// ones); if a damaged trace makes them, see the package comment. The
// returned pointer refers to the stored value and remains valid until
// the range is removed.
func (t *Table[V]) Insert(base, size uint64, value V) *V {
	p := t.InsertZero(base, size)
	*p = value
	return p
}

// InsertZero is Insert of V's zero value, which it writes in place in
// the record: a caller with a large V fills the record through the
// returned pointer without building a value on the stack and copying
// it in.
func (t *Table[V]) InsertZero(base, size uint64) *V {
	i := int32(t.arena.Len())
	if k := len(t.free); k > 0 {
		i, t.free = t.free[k-1], t.free[:k-1]
	} else {
		t.arena.Push()
	}
	e := t.arena.At(i)
	var zero V
	e.value = zero
	t.n++
	t.place(i, base, size)
	return &e.value
}

// place indexes arena record i as the live range [base, base+size).
func (t *Table[V]) place(i int32, base, size uint64) {
	// Field by field: a composite literal would build the whole record
	// on the stack and copy it in.
	e := t.arena.At(i)
	e.base, e.size, e.next, e.live = base, size, noEntry, true
	first, last := pageRange(base, size)
	switch {
	case size == 0:
		e.next, t.zero[base] = t.zero[base]-1, i+1
		return
	case last-first+1 > maxSpanPages:
		t.huge = append(t.huge, ref{base: base, i: i})
		return
	}
	c := t.chunkFor(first, true)
	p := c.pages[first&(chunkPages-1)]
	if p == nil {
		if k := len(t.spare); k > 0 {
			p, t.spare = t.spare[k-1], t.spare[:k-1]
		} else {
			p = new(page)
		}
		c.pages[first&(chunkPages-1)] = p
	}
	g := granule(base)
	r := p.rank(g)
	if bit := uint64(1) << (g & 63); p.starts[g>>6]&bit == 0 {
		p.starts[g>>6] |= bit
		for w := g>>6 + 1; w < 8; w++ {
			p.before[w]++
		}
		p.refs = slices.Insert(p.refs, r, i)
	} else {
		link := &p.refs[r]
		for *link != noEntry && t.arena.At(*link).base > base {
			link = &t.arena.At(*link).next
		}
		e.next, *link = *link, i
	}
	for q := first + 1; q <= last; q++ {
		t.chunkFor(q, true).cover[q&(chunkPages-1)] = i + 1
	}
}

// findExact returns the arena index of a range based at base, or noEntry.
func (t *Table[V]) findExact(base uint64) int32 {
	if c := t.chunkFor(base>>PageShift, false); c != nil {
		p, g := c.pages[(base>>PageShift)&(chunkPages-1)], granule(base)
		if p != nil && p.starts[g>>6]&(1<<(g&63)) != 0 {
			for i := p.refs[p.rank(g)]; i != noEntry; i = t.arena.At(i).next {
				if t.arena.At(i).base == base {
					return i
				}
			}
		}
	}
	if i := t.zero[base]; i != 0 {
		return i - 1
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
	if i := t.findExact(base); i != noEntry {
		return &t.arena.At(i).value
	}
	return nil
}

// Remove deletes the range based exactly at base, returning a pointer
// to its value and whether an entry was removed. The value is not
// copied out: the pointer stays valid until the next Insert, which may
// reuse the record, and no Stab, cached or not, hits the record before
// that. The value keeps its references until the record is reused.
func (t *Table[V]) Remove(base uint64) (*V, bool) {
	i := t.findExact(base)
	if i == noEntry {
		return nil, false
	}
	t.displace(i, base)
	t.free = append(t.free, i)
	t.n--
	return &t.arena.At(i).value, true
}

// Move re-bases the range based exactly at oldBase to [newBase,
// newBase+newSize), keeping its value in place, and returns a pointer
// to it and whether an entry was moved. The table ends as Remove and
// then Insert of the same value would leave it, record for record.
func (t *Table[V]) Move(oldBase, newBase, newSize uint64) (*V, bool) {
	i := t.findExact(oldBase)
	if i == noEntry {
		return nil, false
	}
	t.displace(i, oldBase)
	t.place(i, newBase, newSize)
	return &t.arena.At(i).value, true
}

// displace takes arena record i, the range based at base, out of the
// index and leaves it a size-0 record that no Stab can hit; its value
// stays.
func (t *Table[V]) displace(i int32, base uint64) {
	e := t.arena.At(i)
	first, last := pageRange(base, e.size)
	switch {
	case e.size == 0:
		head := t.zero[base] - 1
		if t.unlink(&head, i); head == noEntry {
			delete(t.zero, base)
		} else {
			t.zero[base] = head + 1
		}
	case last-first+1 > maxSpanPages:
		t.huge = slices.DeleteFunc(t.huge, func(r ref) bool { return r.i == i })
	default:
		c, pi := t.chunkFor(first, false), first&(chunkPages-1)
		p, g := c.pages[pi], granule(base)
		r := p.rank(g)
		if t.unlink(&p.refs[r], i); p.refs[r] == noEntry {
			p.starts[g>>6] &^= 1 << (g & 63)
			for w := g>>6 + 1; w < 8; w++ {
				p.before[w]--
			}
			if p.refs = slices.Delete(p.refs, r, r+1); len(p.refs) == 0 {
				c.pages[pi] = nil
				t.spare = append(t.spare, p)
			}
		}
	}
	e.base, e.size, e.next, e.live = 0, 0, noEntry, false
}

// remember records arena index i as the most recent Stab hit.
func (t *Table[V]) remember(i int32) {
	if t.lastHits[0] != i {
		t.lastHits[1] = t.lastHits[0]
		t.lastHits[0] = i
	}
}

// candidate returns the arena index of the range with the largest base
// <= addr among those starting on addr's page, else that page's cover,
// or noEntry. It scans the start bitmap down from addr's granule; a
// chain is walked only where several ranges start in one granule.
func (t *Table[V]) candidate(c *chunk, addr uint64) int32 {
	pi := (addr >> PageShift) & (chunkPages - 1)
	if p := c.pages[pi]; p != nil {
		g := granule(addr)
		w, word := g>>6, p.starts[g>>6]&(2<<(g&63)-1) // starts in granules <= g
		for word != 0 || w > 0 {
			if word == 0 {
				w--
				word = p.starts[w]
				continue
			}
			// word's top bit is the granule; the bits below it, its rank.
			for i := p.refs[int(p.before[w])+bits.OnesCount64(word)-1]; i != noEntry; i = t.arena.At(i).next {
				if t.arena.At(i).base <= addr {
					return i
				}
			}
			word &^= 1 << (bits.Len64(word) - 1) // that granule's ranges start above addr
		}
	}
	return c.cover[pi] - 1
}

// Stab returns the base, size and value of the range containing addr,
// by the rule in the package comment. The value pointer remains valid
// until the range is removed.
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
	if c := t.chunkFor(addr>>PageShift, false); c != nil {
		if i := t.candidate(c, addr); i != noEntry {
			if e := t.arena.At(i); addr-e.base < e.size {
				t.remember(i)
				return e.base, e.size, &e.value, true
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
