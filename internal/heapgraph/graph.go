// Package heapgraph maintains the heap-graph image at the core of
// HeapMD (paper Section 2.1): a directed multigraph whose vertices are
// heap-allocated objects and whose edges are pointer values stored in
// one object that refer to another.
//
// The execution logger mutates this graph on every allocation, free and
// pointer write, and samples degree-based metrics at metric computation
// points. To keep sampling O(1) — the paper samples every 100,000th
// function entry in programs with hundreds of megabytes of heap — the
// graph maintains incremental degree histograms: for every mutation it
// updates the population counts of each in/out-degree and the count of
// vertices with indegree == outdegree, so metric evaluation never walks
// the graph.
//
// Edges are multi-edges: two fields of object A pointing at object B
// contribute 2 to B's indegree, matching the "number of pointers"
// reading of degree used by the paper.
//
// Storage. Vertices live in an arena indexed by slot: parallel slices
// for each slot's generation, age stamp and in/out degree
// (struct-of-arrays), and one adjacency set per direction in a
// segmented arena (arena.Seg), which grows by adding a segment and
// never copies the sets already there. Freed slots are recycled
// through a freelist, so steady-state alloc/free traffic performs no
// heap allocation and every per-slot table stays at the peak number of
// live vertices, however many vertices a run adds. The graph names its
// own vertices: AddVertex returns a VertexID handle carrying the slot
// and the slot's generation, so resolving a handle is one bounds check
// and one compare, and there is no index from caller-chosen IDs to
// slots. The generation is odd while the slot holds a vertex and
// advances at every add and removal, so a handle outlives its vertex
// harmlessly: the execution logger's pointer-slot tables keep the
// targets of freed objects, and an edge operation naming one is a
// no-op even after the slot is reused. Adjacency sets name their
// neighbours by slot, inline up to maxTracked (8) distinct neighbours
// per direction and spill to an open-addressed table beyond that (see
// adjacency.go); the paper's heap graphs are dominated by degree 0–2
// vertices, so the tables are rare, and the graph recycles them
// through size-class free lists across vertex removal and Reset.
//
// Component counts for the structure extension metrics come from
// incremental trackers maintained under mutation (incremental.go,
// incremental_scc.go); the whole-graph walks in analysis.go are their
// test oracles.
//
// Concurrency: a Graph belongs to a single goroutine — the one feeding
// the execution logger its event stream. Every method, reads of the
// counts included, must be called from it.
package heapgraph

import (
	"cmp"
	"fmt"
	"slices"

	"heapmd/internal/arena"
)

// VertexID is a handle on a vertex, returned by AddVertex: the
// vertex's arena slot in the low 32 bits and the slot's generation in
// the high 32 bits. Generations start at 1, so no handle is 0. The
// handle of a removed vertex resolves to no vertex, also after its slot
// is reused, so every method given one treats it as absent. Handles
// do not survive Reset.
type VertexID uint64

// handle returns the VertexID of slot s at generation gen.
func handle(s int32, gen uint32) VertexID { return VertexID(gen)<<32 | VertexID(uint32(s)) }

// maxTracked is the largest degree tracked with its own histogram
// bucket; larger degrees share an overflow bucket. The paper's metrics
// only inspect degrees 0..2, but we track a few more for extension
// metrics and diagnostics.
const maxTracked = 8

// minSlots is the vertex arena's first capacity.
const minSlots = 64

// noSlot marks an absent vertex in slot lookups.
const noSlot = int32(-1)

// Graph is the mutable heap-graph image. It is single-goroutine (see
// the package comment).
type Graph struct {
	// The vertex arena, all indexed by slot. gen is the slot's
	// generation, odd while a vertex lives in the slot; age is the
	// vertex's stamp from clock, the number of vertices added so far,
	// so sorting slots by age puts them in the order their vertices
	// were added.
	gen    []uint32
	age    []uint64
	inDeg  []int32 // total incoming multiplicity
	outDeg []int32 // total outgoing multiplicity
	outAdj arena.Seg[adjacency]
	inAdj  arena.Seg[adjacency]
	clock  uint64

	// freeSlots holds the dead slots AddVertex may reuse. A slot whose
	// generation wrapped to 0 is retired instead: reusing it would
	// revive the handles of its first vertex.
	freeSlots []int32

	// spills holds the spill tables of sets that no longer need them,
	// for the next set that spills (adjacency.go).
	spills arena.SizeClasses[neighbor]

	// Degree histograms: inHist[d] (outHist[d]) counts the vertices
	// with indegree (outdegree) d, the last bucket every degree above
	// maxTracked. eq counts vertices with indegree == outdegree.
	inHist  [maxTracked + 2]int
	outHist [maxTracked + 2]int
	eq      int
	nVerts  int
	edges   int // total edge multiplicity

	// Incremental weak (incremental.go) and strong
	// (incremental_scc.go) connectivity trackers; nil until turned on
	// or first queried. Each is exact or stale, and only a count query
	// rebuilds a stale one. srch is the scratch their searches share,
	// allocated with the first tracker search or rebuild. Reset turns
	// the trackers off and parks them in spareWCC and spareSCC, whose
	// slices the next TrackConnectivity and TrackSCC reuse.
	wcc      *wccTracker
	scc      *sccTracker
	srch     *search
	spareWCC *wccTracker
	spareSCC *sccTracker
}

// New returns an empty heap-graph.
func New() *Graph {
	return &Graph{}
}

// Reset empties the graph for reuse as if it were new, keeping the
// storage it has grown: the vertex arena is truncated, the live
// vertices' spill tables go back to the size-class list, the adjacency
// arenas reset (arena.Seg.Reset), and the trackers turned off with
// their slices kept for the next TrackConnectivity or TrackSCC. The
// search scratch stays as it is: its marks are stamped with an epoch
// that only ever advances. Handles taken before Reset must not be used
// after it.
func (g *Graph) Reset() {
	for s := int32(0); g.spills.Out() > 0 && s < int32(len(g.gen)); s++ {
		if g.live(int(s)) {
			g.outAdj.At(s).release(&g.spills)
			g.inAdj.At(s).release(&g.spills)
		}
	}
	g.outAdj.Reset()
	g.inAdj.Reset()
	*g = Graph{
		gen:       g.gen[:0],
		age:       g.age[:0],
		inDeg:     g.inDeg[:0],
		outDeg:    g.outDeg[:0],
		outAdj:    g.outAdj,
		inAdj:     g.inAdj,
		freeSlots: g.freeSlots[:0],
		spills:    g.spills,
		srch:      g.srch,
		spareWCC:  cmp.Or(g.wcc, g.spareWCC),
		spareSCC:  cmp.Or(g.scc, g.spareSCC),
	}
}

// slotOf returns the slot v's handle names, or noSlot when v names no
// live vertex: a stale handle's generation no longer matches its
// slot's, and a live slot's generation is odd.
func (g *Graph) slotOf(v VertexID) int32 {
	s, gen := uint32(v), uint32(v>>32)
	if gen&1 == 0 || s >= uint32(len(g.gen)) || g.gen[s] != gen {
		return noSlot
	}
	return int32(s)
}

// live reports whether slot s holds a vertex.
func (g *Graph) live(s int) bool { return g.gen[s]&1 != 0 }

// newSlot claims an arena slot for a new vertex, recycling from the
// freelist when possible, and stamps it with the next age. The slot's
// adjacency sets are already empty (reset at removal time).
func (g *Graph) newSlot() int32 {
	g.clock++
	if k := len(g.freeSlots); k > 0 {
		s := g.freeSlots[k-1]
		g.freeSlots = g.freeSlots[:k-1]
		g.gen[s]++
		g.age[s] = g.clock
		g.inDeg[s], g.outDeg[s] = 0, 0
		return s
	}
	s := int32(len(g.gen))
	if len(g.gen) == cap(g.gen) {
		// Grow the slot-indexed tables together and by doubling, so a
		// heap of n objects regrows them log2(n/minSlots) times rather
		// than at every step of append's tapering growth.
		c := max(2*cap(g.gen), minSlots)
		g.gen = slices.Grow(g.gen, c-len(g.gen))
		g.age = slices.Grow(g.age, c-len(g.age))
		g.inDeg = slices.Grow(g.inDeg, c-len(g.inDeg))
		g.outDeg = slices.Grow(g.outDeg, c-len(g.outDeg))
	}
	g.gen = append(g.gen, 1)
	g.age = append(g.age, g.clock)
	g.inDeg = append(g.inDeg, 0)
	g.outDeg = append(g.outDeg, 0)
	g.outAdj.Push()
	g.inAdj.Push()
	return s
}

func bucket(d int) int {
	if d > maxTracked {
		return maxTracked + 1
	}
	return d
}

// track updates the histograms and eq counter for a vertex whose
// degrees change from (oldIn, oldOut) to (newIn, newOut).
func (g *Graph) track(oldIn, oldOut, newIn, newOut int) {
	g.inHist[bucket(oldIn)]--
	g.outHist[bucket(oldOut)]--
	g.inHist[bucket(newIn)]++
	g.outHist[bucket(newOut)]++
	if oldIn == oldOut {
		g.eq--
	}
	if newIn == newOut {
		g.eq++
	}
}

// trackIn is track specialized for a change that touches only the
// indegree (a non-self-loop edge mutation changes exactly one degree
// of each endpoint), skipping the unchanged direction's remove/re-add
// pair on the edge hot path.
func (g *Graph) trackIn(oldIn, newIn, out int) {
	if bo, bn := bucket(oldIn), bucket(newIn); bo != bn {
		g.inHist[bo]--
		g.inHist[bn]++
	}
	if oldIn == out {
		g.eq--
	}
	if newIn == out {
		g.eq++
	}
}

// trackOut is trackIn for the outdegree.
func (g *Graph) trackOut(in, oldOut, newOut int) {
	if bo, bn := bucket(oldOut), bucket(newOut); bo != bn {
		g.outHist[bo]--
		g.outHist[bn]++
	}
	if oldOut == in {
		g.eq--
	}
	if newOut == in {
		g.eq++
	}
}

// AddVertex inserts a new isolated vertex and returns its handle.
func (g *Graph) AddVertex() VertexID {
	s := g.newSlot()
	g.inHist[0]++
	g.outHist[0]++
	g.eq++ // 0 == 0
	g.nVerts++
	g.wccAddVertex(s)
	g.sccAddVertex(s)
	return handle(s, g.gen[s])
}

// RemoveVertex deletes v and every incident edge (in both directions),
// adjusting the degrees of its neighbours, and advances the slot's
// generation so that v's handle goes stale. Removing an absent vertex
// is a no-op.
func (g *Graph) RemoveVertex(v VertexID) {
	s := g.slotOf(v)
	if s == noSlot {
		return
	}
	// Classify the removal for the connectivity trackers before the
	// neighbour sets are torn down (they need the original adjacency).
	g.wccRemoveVertex(s)
	g.sccRemoveVertex(s)
	// Detach outgoing edges: each successor loses incoming
	// multiplicity. The callbacks mutate only the neighbours' sets,
	// never slot s's own, which each() permits.
	oa, ia := g.outAdj.At(s), g.inAdj.At(s)
	oa.each(func(ss, mult int32) bool {
		g.edges -= int(mult)
		if ss == s {
			return true // self-loop dies with the vertex
		}
		in, out := int(g.inDeg[ss]), int(g.outDeg[ss])
		g.trackIn(in, in-int(mult), out)
		g.inDeg[ss] -= mult
		g.inAdj.At(ss).drop(s)
		return true
	})
	// Detach incoming edges.
	ia.each(func(ps, mult int32) bool {
		if ps == s {
			return true // self-loop already handled above
		}
		in, out := int(g.inDeg[ps]), int(g.outDeg[ps])
		g.trackOut(in, out, out-int(mult))
		g.outDeg[ps] -= mult
		g.outAdj.At(ps).drop(s)
		g.edges -= int(mult)
		return true
	})
	// Remove v itself from the histograms.
	g.inHist[bucket(int(g.inDeg[s]))]--
	g.outHist[bucket(int(g.outDeg[s]))]--
	if g.inDeg[s] == g.outDeg[s] {
		g.eq--
	}
	// Empty the sets now (not at reuse), handing their spill tables
	// to the next set that spills.
	oa.release(&g.spills)
	ia.release(&g.spills)
	if g.gen[s]++; g.gen[s] != 0 {
		g.freeSlots = append(g.freeSlots, s)
	}
	g.nVerts--
}

// AddEdge adds one unit of edge multiplicity from u to v. Both
// vertices must exist; AddEdge reports whether the edge was added.
// Self-loops are permitted (an object can point to itself).
func (g *Graph) AddEdge(u, v VertexID) bool {
	us := g.slotOf(u)
	if us == noSlot {
		return false
	}
	vs := g.slotOf(v)
	if vs == noSlot {
		return false
	}
	g.outAdj.At(us).inc(vs, &g.spills)
	g.inAdj.At(vs).inc(us, &g.spills)
	if u == v {
		in, out := int(g.inDeg[us]), int(g.outDeg[us])
		g.track(in, out, in+1, out+1)
		g.inDeg[us]++
		g.outDeg[us]++
	} else {
		in, out := int(g.inDeg[us]), int(g.outDeg[us])
		g.trackOut(in, out, out+1)
		g.outDeg[us]++
		in, out = int(g.inDeg[vs]), int(g.outDeg[vs])
		g.trackIn(in, in+1, out)
		g.inDeg[vs]++
		g.wccAddEdge(us, vs)
		g.sccAddEdge(us, vs)
	}
	g.edges++
	return true
}

// RemoveEdge removes one unit of edge multiplicity from u to v,
// reporting whether an edge was present to remove.
func (g *Graph) RemoveEdge(u, v VertexID) bool {
	us, vs := g.slotOf(u), g.slotOf(v)
	if us == noSlot || vs == noSlot {
		return false
	}
	oa := g.outAdj.At(us)
	if oa.get(vs) == 0 {
		return false
	}
	oa.dec(vs)
	g.inAdj.At(vs).dec(us)
	if u == v {
		in, out := int(g.inDeg[us]), int(g.outDeg[us])
		g.track(in, out, in-1, out-1)
		g.inDeg[us]--
		g.outDeg[us]--
	} else {
		in, out := int(g.inDeg[us]), int(g.outDeg[us])
		g.trackOut(in, out, out-1)
		g.outDeg[us]--
		in, out = int(g.inDeg[vs]), int(g.outDeg[vs])
		g.trackIn(in, in-1, out)
		g.inDeg[vs]--
		g.wccRemoveEdge(us, vs)
		g.sccRemoveEdge(us, vs)
	}
	g.edges--
	return true
}

// NumVertices returns the number of vertices.
func (g *Graph) NumVertices() int { return g.nVerts }

// NumEdges returns the total edge multiplicity.
func (g *Graph) NumEdges() int { return g.edges }

// CountInDegree returns the number of vertices with indegree exactly d
// (for d <= maxTracked; larger d values return 0).
func (g *Graph) CountInDegree(d int) int {
	if d < 0 || d > maxTracked {
		return 0
	}
	return g.inHist[d]
}

// CountOutDegree returns the number of vertices with outdegree exactly
// d (d <= maxTracked).
func (g *Graph) CountOutDegree(d int) int {
	if d < 0 || d > maxTracked {
		return 0
	}
	return g.outHist[d]
}

// CountInEqOut returns the number of vertices whose indegree equals
// their outdegree.
func (g *Graph) CountInEqOut() int { return g.eq }

// String summarizes the graph for debugging.
func (g *Graph) String() string {
	return fmt.Sprintf("heapgraph{V=%d E=%d roots=%d leaves=%d in==out=%d}",
		g.NumVertices(), g.NumEdges(), g.CountInDegree(0), g.CountOutDegree(0), g.CountInEqOut())
}
