package heapgraph

// This file implements the small-size-optimized adjacency set used by
// the vertex arena. The paper's degree metrics live almost entirely at
// degrees 0–2 — real heap graphs are dominated by list/tree nodes with
// one or two pointers — so per-vertex hash maps spend their allocation
// and GC cost on a generality the data almost never needs. Each
// direction of each vertex instead holds a fixed inline array of
// (neighbor, multiplicity) pairs; only a vertex that accumulates more
// than inlineNeighbors distinct neighbours spills to a map, and once
// spilled it stays spilled (no flapping at the boundary).
//
// Neighbours are named by arena slot, not VertexID: an entry is 8
// bytes instead of 16, and the graph's walks and tracker searches use
// the slot directly instead of resolving the ID through the index. A
// slot is recycled only after RemoveVertex has dropped it from every
// neighbour's set, so no set ever names a dead or reused slot.

// inlineNeighbors is the spill threshold: vertices with at most this
// many distinct neighbours per direction never allocate. It equals
// maxTracked so the whole degree range the histograms distinguish —
// the range real heap objects live in — is served inline; only
// overflow-bucket vertices (hub objects like registries and interners)
// pay for a map.
const inlineNeighbors = maxTracked

// neighbor is one (vertex slot, edge multiplicity) pair.
type neighbor struct {
	slot int32
	mult int32
}

// adjacency is one direction's neighbour set for one vertex. The zero
// value is an empty set.
type adjacency struct {
	n      int32           // inline entries in use; meaningless once spilled
	spill  map[int32]int32 // non-nil once spilled; inline unused from then on
	inline [inlineNeighbors]neighbor
}

// reset empties the set and releases any spill map.
func (a *adjacency) reset() {
	a.n = 0
	a.spill = nil
}

// get returns the multiplicity of slot w, or 0.
func (a *adjacency) get(w int32) int32 {
	if a.spill != nil {
		return a.spill[w]
	}
	for i := int32(0); i < a.n; i++ {
		if a.inline[i].slot == w {
			return a.inline[i].mult
		}
	}
	return 0
}

// inc adds one unit of multiplicity for slot w, returning the new
// multiplicity.
func (a *adjacency) inc(w int32) int32 {
	if a.spill != nil {
		a.spill[w]++
		return a.spill[w]
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
	// entries to a map.
	m := make(map[int32]int32, 2*inlineNeighbors)
	for i := range a.inline {
		m[a.inline[i].slot] = a.inline[i].mult
	}
	m[w] = 1
	a.spill = m
	return 1
}

// dec removes one unit of multiplicity for slot w, returning the new
// multiplicity. The caller must know the entry is present (checked via
// get); a multiplicity reaching zero removes the entry.
func (a *adjacency) dec(w int32) int32 {
	if a.spill != nil {
		m := a.spill[w] - 1
		if m == 0 {
			delete(a.spill, w)
		} else {
			a.spill[w] = m
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
	if a.spill != nil {
		delete(a.spill, w)
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
func (a *adjacency) distinct() int {
	if a.spill != nil {
		return len(a.spill)
	}
	return int(a.n)
}

// each visits every (neighbour, multiplicity) pair; iteration stops if
// fn returns false. Inline entries are visited in insertion order,
// spilled entries in map order. fn must not mutate this adjacency set
// (mutating other vertices' sets is fine — vertex removal relies on
// it).
func (a *adjacency) each(fn func(w, mult int32) bool) {
	if a.spill != nil {
		for w, m := range a.spill {
			if !fn(w, m) {
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
