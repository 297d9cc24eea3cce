package heapgraph

import (
	"strconv"

	"heapmd/internal/arena"
)

// Per-vertex inspection and the bookkeeping check for the package's
// tests. Production code reads the graph only through its counts and
// histograms.

// HasVertex reports whether v names a live vertex.
func (g *Graph) HasVertex(v VertexID) bool {
	return g.slotOf(v) != noSlot
}

// Multiplicity returns the number of parallel edges from u to v.
func (g *Graph) Multiplicity(u, v VertexID) int {
	us, vs := g.slotOf(u), g.slotOf(v)
	if us == noSlot || vs == noSlot {
		return 0
	}
	return int(g.outAdj.At(us).get(vs))
}

// InDegree returns v's indegree (total incoming multiplicity).
func (g *Graph) InDegree(v VertexID) int {
	s := g.slotOf(v)
	if s == noSlot {
		return 0
	}
	return int(g.inDeg[s])
}

// OutDegree returns v's outdegree.
func (g *Graph) OutDegree(v VertexID) int {
	s := g.slotOf(v)
	if s == noSlot {
		return 0
	}
	return int(g.outDeg[s])
}

// Vertices calls fn for every vertex; iteration order is unspecified.
func (g *Graph) Vertices(fn func(VertexID) bool) {
	for s := range g.gen {
		if g.live(s) && !fn(handle(int32(s), g.gen[s])) {
			return
		}
	}
}

// CheckInvariants verifies the incremental bookkeeping against a full
// recomputation: histogram populations, the in==out counter, the edge
// total and the freelist must all match what a fresh scan of the arena
// produces. It returns a non-empty description of the first violation
// found, or "" when consistent. Tests and the fuzzing harness call this
// after mutation sequences.
func (g *Graph) CheckInvariants() string {
	var inHist, outHist [maxTracked + 2]int
	eq, edges, live, retired := 0, 0, 0, 0
	for s := range g.gen {
		if !g.live(s) {
			if g.gen[s] == 0 {
				retired++
			}
			continue
		}
		live++
		v := handle(int32(s), g.gen[s])
		in, out := 0, 0
		violation := ""
		g.inAdj.At(int32(s)).each(func(_, m int32) bool {
			if m <= 0 {
				violation = "non-positive in-multiplicity at vertex " + strconv.FormatUint(uint64(v), 10)
				return false
			}
			in += int(m)
			return true
		})
		if violation != "" {
			return violation
		}
		g.outAdj.At(int32(s)).each(func(_, m int32) bool {
			if m <= 0 {
				violation = "non-positive out-multiplicity at vertex " + strconv.FormatUint(uint64(v), 10)
				return false
			}
			out += int(m)
			return true
		})
		if violation != "" {
			return violation
		}
		if in != int(g.inDeg[s]) {
			return "cached indegree mismatch for vertex " + strconv.FormatUint(uint64(v), 10)
		}
		if out != int(g.outDeg[s]) {
			return "cached outdegree mismatch for vertex " + strconv.FormatUint(uint64(v), 10)
		}
		inHist[bucket(in)]++
		outHist[bucket(out)]++
		if in == out {
			eq++
		}
		edges += out
	}
	if inHist != g.inHist {
		return "indegree histogram mismatch"
	}
	if outHist != g.outHist {
		return "outdegree histogram mismatch"
	}
	if eq != g.eq {
		return "in==out counter mismatch"
	}
	if edges != g.NumEdges() {
		return "edge count mismatch"
	}
	if live != g.NumVertices() {
		return "vertex count mismatch"
	}
	// Arena accounting: every slot is alive, on the freelist exactly
	// once, or retired with its generation wrapped to 0.
	for _, s := range g.freeSlots {
		if g.live(int(s)) || g.gen[s] == 0 {
			return "freelist holds a live or retired slot"
		}
	}
	if live+len(g.freeSlots)+retired != len(g.gen) {
		return "arena slot accounting mismatch"
	}
	// Spill accounting: a dead slot's sets are empty and hold no
	// table, every live set's count matches its entries, and the pool
	// has handed out exactly the tables live sets hold.
	spilled := 0
	for s := range g.gen {
		for _, a := range []*adjacency{g.outAdj.At(int32(s)), g.inAdj.At(int32(s))} {
			n := 0
			a.each(func(_, _ int32) bool { n++; return true })
			switch {
			case !g.live(s) && (a.n != 0 || a.spill != nil):
				return "dead slot " + strconv.Itoa(s) + " keeps an adjacency set"
			case n != a.distinct():
				return "distinct-neighbour count mismatch at slot " + strconv.Itoa(s)
			case a.spill != nil:
				spilled++
			}
		}
	}
	if spilled != g.spills.out {
		return "spill pool accounting mismatch"
	}
	// Symmetry: u's out-multiplicity to v must equal v's
	// in-multiplicity from u, in both directions, and every neighbour
	// slot must be live (a recycled slot would name the wrong vertex).
	for s := range g.gen {
		if !g.live(s) {
			continue
		}
		if msg := g.checkSymmetric(int32(s), g.outAdj.At(int32(s)), &g.inAdj); msg != "" {
			return msg
		}
		if msg := g.checkSymmetric(int32(s), g.inAdj.At(int32(s)), &g.outAdj); msg != "" {
			return msg
		}
	}
	return ""
}

// checkSymmetric checks that every neighbour w in slot s's set a is
// live and lists s in its own set in the mirror direction with the
// same multiplicity.
func (g *Graph) checkSymmetric(s int32, a *adjacency, mirror *arena.Seg[adjacency]) string {
	asym := ""
	a.each(func(w, m int32) bool {
		switch {
		case w < 0 || int(w) >= len(g.gen) || !g.live(int(w)):
			asym = "dead neighbour slot in the adjacency of slot " + strconv.Itoa(int(s))
		case mirror.At(w).get(s) != m:
			asym = "adjacency asymmetry between slots " + strconv.Itoa(int(s)) + " and " + strconv.Itoa(int(w))
		}
		return asym == ""
	})
	return asym
}
