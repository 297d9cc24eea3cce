package heapgraph

import "math/bits"

// This file implements the small-size-optimized adjacency set used by
// the vertex arena. The paper's degree metrics live almost entirely at
// degrees 0–2 — real heap graphs are dominated by list/tree nodes with
// one or two pointers — so per-vertex hash maps spend their allocation
// and GC cost on a generality the data almost never needs. Each
// direction of each vertex instead holds a fixed inline array of
// (neighbor, multiplicity) pairs; only a vertex that accumulates more
// than inlineNeighbors distinct neighbours spills to an open-addressed
// table, and once spilled it stays spilled (no flapping at the
// boundary).
//
// Spill tables come from the graph's spillPool, one free list per
// power-of-two size class. A removed vertex hands its tables back, and
// so does Reset for every vertex still live, so hub vertices rebuilt
// by the next run — or by the next vertex to take the slot — refill
// storage an earlier one grew instead of allocating it again.
//
// Neighbours are named by arena slot, not VertexID: an entry is 8
// bytes instead of 16, and the graph's walks and tracker searches use
// the slot directly instead of resolving the ID through the index. A
// slot is recycled only after RemoveVertex has dropped it from every
// neighbour's set, so no set ever names a dead or reused slot.

// inlineNeighbors is the spill threshold: vertices with at most this
// many distinct neighbours per direction never spill. It equals
// maxTracked so the whole degree range the histograms distinguish —
// the range real heap objects live in — is served inline; only
// overflow-bucket vertices (hub objects like registries and interners)
// pay for a table.
const inlineNeighbors = maxTracked

// minSpillShift sizes the smallest spill table: 1<<minSpillShift
// entries, room for the inlineNeighbors+1 neighbours that spill a set
// below the load limit.
const minSpillShift = 4

// neighbor is one (vertex slot, edge multiplicity) pair.
type neighbor struct {
	slot int32
	mult int32
}

// adjacency is one direction's neighbour set for one vertex. The zero
// value is an empty set.
type adjacency struct {
	n      int32       // distinct neighbours, inline or spilled
	spill  *spillTable // non-nil once spilled; inline unused from then on
	inline [inlineNeighbors]neighbor
}

// spillTable is an open-addressed, linearly probed neighbour table.
// An entry's key is its slot plus one, so a zeroed entry is empty.
// Deletion shifts the entries behind a hole back, so the table never
// holds tombstones and a probe stops at the first empty entry.
type spillTable struct {
	e     []neighbor // len 1<<(32-shift); slot field holds slot+1
	shift uint32     // 32 minus the table's log2 size
}

// home returns the probe start of slot w: the top bits of w's
// Fibonacci hash, which spread strided slot numbers as well as dense
// ones.
func (t *spillTable) home(w int32) int {
	return int(uint32(w) * 0x9E3779B9 >> t.shift)
}

// find returns the index of slot w's entry, or -1.
func (t *spillTable) find(w int32) int {
	mask := len(t.e) - 1
	for i := t.home(w); ; i = (i + 1) & mask {
		switch t.e[i].slot {
		case w + 1:
			return i
		case 0:
			return -1
		}
	}
}

// put stores a new entry for slot w, which must be absent, at the end
// of its probe run.
func (t *spillTable) put(w, mult int32) {
	mask := len(t.e) - 1
	i := t.home(w)
	for t.e[i].slot != 0 {
		i = (i + 1) & mask
	}
	t.e[i] = neighbor{slot: w + 1, mult: mult}
}

// remove deletes the entry at index i, moving back every later entry
// of the run whose probe start does not lie between the hole and it.
func (t *spillTable) remove(i int) {
	mask := len(t.e) - 1
	for j := i; ; {
		t.e[i] = neighbor{}
		for {
			j = (j + 1) & mask
			if t.e[j].slot == 0 {
				return
			}
			// The entry at j may fill the hole at i unless its home
			// lies cyclically in (i, j].
			if h := t.home(t.e[j].slot - 1); (h-i-1)&mask >= (j-i)&mask {
				break
			}
		}
		t.e[i] = t.e[j]
		i = j
	}
}

// spillPool is the graph's store of spill tables not in use: free[c]
// holds tables of 1<<(minSpillShift+c) entries, zeroed when taken.
type spillPool struct {
	free [][]*spillTable
	out  int // tables handed out and not yet put back
}

// get returns an empty table of 1<<(minSpillShift+c) entries.
func (p *spillPool) get(c int) *spillTable {
	p.out++
	if c < len(p.free) {
		if k := len(p.free[c]); k > 0 {
			t := p.free[c][k-1]
			p.free[c][k-1] = nil
			p.free[c] = p.free[c][:k-1]
			clear(t.e)
			return t
		}
	}
	size := 1 << (minSpillShift + c)
	return &spillTable{e: make([]neighbor, size), shift: uint32(32 - minSpillShift - c)}
}

// put takes t back for a later get of its size class.
func (p *spillPool) put(t *spillTable) {
	p.out--
	c := bits.Len(uint(len(t.e))) - 1 - minSpillShift
	for len(p.free) <= c {
		p.free = append(p.free, nil)
	}
	p.free[c] = append(p.free[c], t)
}

// release empties the set, handing a spill table back to p.
func (a *adjacency) release(p *spillPool) {
	if a.spill != nil {
		p.put(a.spill)
		a.spill = nil
	}
	a.n = 0
}

// get returns the multiplicity of slot w, or 0.
func (a *adjacency) get(w int32) int32 {
	if t := a.spill; t != nil {
		if i := t.find(w); i >= 0 {
			return t.e[i].mult
		}
		return 0
	}
	for i := int32(0); i < a.n; i++ {
		if a.inline[i].slot == w {
			return a.inline[i].mult
		}
	}
	return 0
}

// inc adds one unit of multiplicity for slot w, returning the new
// multiplicity. A new neighbour that outgrows the set's storage takes
// a larger table from p.
func (a *adjacency) inc(w int32, p *spillPool) int32 {
	if t := a.spill; t != nil {
		if i := t.find(w); i >= 0 {
			t.e[i].mult++
			return t.e[i].mult
		}
		// Keep the load at most 2/3, so probe runs stay short.
		if 3*(int(a.n)+1) > 2*len(t.e) {
			a.grow(p)
		}
		a.spill.put(w, 1)
		a.n++
		return 1
	}
	for i := int32(0); i < a.n; i++ {
		if a.inline[i].slot == w {
			a.inline[i].mult++
			return a.inline[i].mult
		}
	}
	if a.n < inlineNeighbors {
		a.inline[a.n] = neighbor{slot: w, mult: 1}
		a.n++
		return 1
	}
	// Distinct neighbour number inlineNeighbors+1: spill the inline
	// entries to a table.
	t := p.get(0)
	for _, e := range a.inline {
		t.put(e.slot, e.mult)
	}
	t.put(w, 1)
	a.spill = t
	a.n++
	return 1
}

// grow moves the spilled entries into a table of the next size class
// and hands the old one back to p.
func (a *adjacency) grow(p *spillPool) {
	old := a.spill
	t := p.get(bits.Len(uint(len(old.e))) - minSpillShift)
	for _, e := range old.e {
		if e.slot != 0 {
			t.put(e.slot-1, e.mult)
		}
	}
	p.put(old)
	a.spill = t
}

// dec removes one unit of multiplicity for slot w, returning the new
// multiplicity. The caller must know the entry is present (checked via
// get); a multiplicity reaching zero removes the entry.
func (a *adjacency) dec(w int32) int32 {
	if t := a.spill; t != nil {
		i := t.find(w)
		if i < 0 {
			return 0
		}
		m := t.e[i].mult - 1
		if m == 0 {
			t.remove(i)
			a.n--
		} else {
			t.e[i].mult = m
		}
		return m
	}
	for i := int32(0); i < a.n; i++ {
		if a.inline[i].slot == w {
			a.inline[i].mult--
			if a.inline[i].mult == 0 {
				a.n--
				a.inline[i] = a.inline[a.n] // swap-remove
				return 0
			}
			return a.inline[i].mult
		}
	}
	return 0
}

// drop removes slot w entirely, regardless of multiplicity (vertex
// removal detaches whole edges, not single units).
func (a *adjacency) drop(w int32) {
	if t := a.spill; t != nil {
		if i := t.find(w); i >= 0 {
			t.remove(i)
			a.n--
		}
		return
	}
	for i := int32(0); i < a.n; i++ {
		if a.inline[i].slot == w {
			a.n--
			a.inline[i] = a.inline[a.n]
			return
		}
	}
}

// distinct returns the number of distinct neighbours.
func (a *adjacency) distinct() int { return int(a.n) }

// each visits every (neighbour, multiplicity) pair; iteration stops if
// fn returns false. Inline entries are visited in insertion order,
// spilled entries in table order. fn must not mutate this adjacency
// set (mutating other vertices' sets is fine — vertex removal relies
// on it).
func (a *adjacency) each(fn func(w, mult int32) bool) {
	if t := a.spill; t != nil {
		for _, e := range t.e {
			if e.slot != 0 && !fn(e.slot-1, e.mult) {
				return
			}
		}
		return
	}
	for i := int32(0); i < a.n; i++ {
		if !fn(a.inline[i].slot, a.inline[i].mult) {
			return
		}
	}
}
