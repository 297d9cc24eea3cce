package heapgraph

// Per-vertex inspection for the package's tests. Production code reads
// the graph only through its counts and histograms.

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
