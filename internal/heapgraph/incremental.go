package heapgraph

// This file implements incremental weak-connectivity tracking (the
// strong-connectivity sibling lives in incremental_scc.go and shares
// the union-find core defined here). Recomputing components with an
// O(V+E) walk at every metric computation point (the reference walk
// in analysis.go) would cap the viable sampling frequency by heap
// *size*; the tracker instead maintains the component count under
// mutation, so a metric point costs O(α) per graph operation since the
// previous point — heap *churn*, not heap size.
//
// Union-find handles vertex and edge additions exactly in O(α)
// amortized. Deletions are where naive union-find gives up (it cannot
// split); the tracker recovers exactness for the overwhelmingly common
// delete shapes and falls back to counting the rest:
//
//   - removing an edge whose endpoints remain directly linked (a
//     parallel edge or the reverse direction) cannot change weak
//     connectivity: exact no-op;
//   - removing an edge that isolates an endpoint detaches that vertex
//     into a fresh singleton via node indirection (below): exact;
//   - removing a vertex with zero or one distinct neighbour removes a
//     singleton or a leaf; a leaf never disconnects anything (every
//     path through it can be shortcut at its sole neighbour): exact;
//   - anything else *may* split a component: the tracker marks itself
//     dirty and counts the delete.
//
// Dirty deletes are amortized by generation-tagged rebuilds: when the
// dirty counter reaches the rebuild threshold the tracker re-unions
// from the live adjacency during the mutation (synchronously — the
// graph is single-goroutine, so there is no background rebuild to race
// with), and a query on a dirty tracker
// rebuilds lazily first. A rebuild is one O(V+E) walk amortized over
// at least `threshold` deletes, and workloads dominated by exact
// shapes (lists, trees, pools — the paper's heaps) never trigger one.
//
// Node indirection. A union-find element cannot be detached from its
// tree without breaking other elements' parent chains through it. The
// tracker therefore separates *vertices* from *union-find nodes*: a
// per-slot table maps each live vertex to a node in a growable node
// arena, and detaching a vertex just points its slot at a fresh
// singleton node, leaving the old node in place as an interior link.
// Abandoned nodes accumulate; when the node arena exceeds ~4x the
// live vertex count a rebuild compacts it (reusing the slices'
// capacity, so steady-state churn performs no allocation).
//
// The tracker maintains Count only. Largest requires knowing, at
// every moment, the size of a component that deletions may have
// silently shrunk — exactly the information union-find cannot keep
// under splits — so Largest is left to the reference walk. The metric
// suite only consumes Count (WCC per 100 vertices).

// DefaultRebuildThreshold is the number of conservatively-counted
// deletes that triggers an amortized re-union. One rebuild is an
// O(V+E) walk; at 64 deletes per rebuild the amortized cost per
// delete stays far below one full walk per metric point even on
// delete-heavy churn.
const DefaultRebuildThreshold = 64

// ufCore is the union-find state shared by the weak-connectivity
// tracker below and the strong-connectivity tracker
// (incremental_scc.go): the node-indirection table, the node arena,
// and the count/dirty/threshold bookkeeping.
type ufCore struct {
	// node maps arena slot → union-find node, parallel to Graph.ids.
	// Entries for dead slots are stale and never read.
	node []int32
	// parent/size form the union-find node arena. size is only
	// meaningful at roots and counts live vertices (not nodes), so
	// detached vertices leave their abandoned nodes uncounted.
	parent []int32
	size   []int32

	count     int // live component count; exact iff valid && dirty == 0
	dirty     int // conservative mutations since the tracker was last exact
	threshold int // dirty level that forces a rebuild during mutation
	valid     bool
}

// newNode appends a fresh singleton node to the node arena.
func (t *ufCore) newNode() int32 {
	n := int32(len(t.parent))
	t.parent = append(t.parent, n)
	t.size = append(t.size, 1)
	return n
}

// find returns x's root, halving the path as it goes.
func (t *ufCore) find(x int32) int32 {
	for t.parent[x] != x {
		t.parent[x] = t.parent[t.parent[x]]
		x = t.parent[x]
	}
	return x
}

// union joins the components of nodes a and b (union by size),
// decrementing the count when they were distinct.
func (t *ufCore) union(a, b int32) {
	ra, rb := t.find(a), t.find(b)
	if ra == rb {
		return
	}
	if t.size[ra] < t.size[rb] {
		ra, rb = rb, ra
	}
	t.parent[rb] = ra
	t.size[ra] += t.size[rb]
	t.count--
}

// wccTracker is the incremental weak-connectivity state: the shared
// union-find core is the whole of it (weak connectivity needs no
// probe or Tarjan scratch).
type wccTracker struct {
	ufCore
}

// detach moves the vertex at slot s (already known to be isolated in
// the graph) out of its component into a fresh singleton node. The old
// node stays behind as an interior link so other vertices' parent
// chains through it remain intact.
func (t *wccTracker) detach(s int32) {
	r := t.find(t.node[s])
	t.size[r]--
	if t.size[r] == 0 {
		t.count-- // the vertex was the component's last member
	}
	t.node[s] = t.newNode()
	t.count++
}

// TrackConnectivity turns on the weak-connectivity tracker with the
// given rebuild threshold (<= 0 selects DefaultRebuildThreshold),
// replacing any tracker already on. The tracker builds itself from the
// live adjacency at the first query, so it may be turned on at any
// time.
func (g *Graph) TrackConnectivity(rebuildThreshold int) {
	if rebuildThreshold <= 0 {
		rebuildThreshold = DefaultRebuildThreshold
	}
	g.wcc = &wccTracker{ufCore: ufCore{threshold: rebuildThreshold}}
}

// ConnectedComponentCount returns the number of weakly connected
// components from the incremental tracker, turning it on at the
// default threshold if it is off and rebuilding it first if it has
// never been built or deletes have dirtied it.
func (g *Graph) ConnectedComponentCount() int {
	if g.wcc == nil {
		g.TrackConnectivity(0)
	}
	t := g.wcc
	if !t.valid || t.dirty > 0 {
		g.rebuildWCC()
	}
	return t.count
}

// rebuildWCC re-unions the tracker from the live adjacency: one fresh
// node per live vertex, one union per distinct out-edge (the symmetry
// invariant makes the in-adjacency redundant). Existing slice capacity
// is reused, so rebuilds after the first allocate only when the arena
// has grown. This is also the compaction path: it resets the node
// arena to exactly one node per live vertex.
func (g *Graph) rebuildWCC() {
	t := g.wcc
	if cap(t.node) < len(g.ids) {
		t.node = make([]int32, len(g.ids))
	} else {
		t.node = t.node[:len(g.ids)]
	}
	t.parent = t.parent[:0]
	t.size = t.size[:0]
	t.count = 0
	for s := range g.ids {
		if !g.alive[s] {
			continue
		}
		t.node[s] = t.newNode()
		t.count++
	}
	for s := range g.ids {
		if !g.alive[s] {
			continue
		}
		self := g.ids[s]
		a := t.node[s]
		g.outAdj[s].each(func(id VertexID, _ int32) bool {
			if id != self {
				t.union(a, t.node[g.slotOf(id)])
			}
			return true
		})
	}
	t.dirty = 0
	t.valid = true
}

// wccMaintain reports whether the tracker is present and exact, i.e.
// mutation hooks should apply precise maintenance.
func (g *Graph) wccMaintain() bool {
	t := g.wcc
	return t != nil && t.valid && t.dirty == 0
}

// wccAddVertex is the AddVertex hook: a new vertex is a new singleton
// component.
func (g *Graph) wccAddVertex(s int32) {
	if !g.wccMaintain() {
		return
	}
	t := g.wcc
	if int(s) >= len(t.node) {
		// The vertex arena grew; mirror it. Amortized like append.
		t.node = append(t.node, 0)
	}
	t.node[s] = t.newNode()
	t.count++
	g.wccMaybeCompact()
}

// wccAddEdge is the AddEdge hook (u != v slots; self-loops never
// change weak connectivity and are filtered by the caller).
func (g *Graph) wccAddEdge(us, vs int32) {
	if !g.wccMaintain() {
		return
	}
	t := g.wcc
	t.union(t.node[us], t.node[vs])
}

// wccRemoveEdge is the RemoveEdge hook, called after the adjacency
// decrement for a non-self-loop edge u→v. Exact cases: the endpoints
// remain directly linked (no-op), or an endpoint lost its last edge
// (detach to singleton). Anything else may have split the component:
// count it toward the rebuild budget.
func (g *Graph) wccRemoveEdge(u, v VertexID, us, vs int32) {
	t := g.wcc
	if t == nil || !t.valid {
		return // never queried yet; the first query builds from scratch
	}
	if t.dirty > 0 {
		t.dirty++
		return
	}
	if g.outAdj[us].get(v) > 0 || g.outAdj[vs].get(u) > 0 {
		return // still directly linked in some direction
	}
	split := true
	if g.distinctNeighbors(us, u, 1) == 0 {
		t.detach(us)
		split = false
	}
	if g.distinctNeighbors(vs, v, 1) == 0 {
		t.detach(vs)
		split = false
	}
	if split {
		t.dirty++
	}
}

// wccRemoveVertex is the RemoveVertex hook. It must run BEFORE the
// edges are detached — the classification needs the vertex's original
// neighbour set. Exact cases: an isolated vertex (singleton removal)
// and a vertex with exactly one distinct neighbour (leaf removal —
// every path through a sole-neighbour vertex shortcuts through that
// neighbour, so the rest of the component stays connected).
func (g *Graph) wccRemoveVertex(v VertexID, s int32) {
	t := g.wcc
	if t == nil || !t.valid {
		return
	}
	if t.dirty > 0 {
		t.dirty++
		return
	}
	switch g.distinctNeighbors(s, v, 2) {
	case 0:
		// Isolated: its component is exactly itself.
		r := t.find(t.node[s])
		t.size[r]--
		t.count--
	case 1:
		// Leaf: the component loses one member, no split.
		r := t.find(t.node[s])
		t.size[r]--
	default:
		t.dirty++
	}
}

// wccSettle runs at the END of a delete mutation: once the dirty
// counter has spent the rebuild budget, re-union now rather than at
// the next query, keeping worst-case query latency flat. It must not
// run mid-mutation — wccRemoveVertex classifies before the edges are
// detached, and a rebuild at that point would capture the
// half-removed vertex.
func (g *Graph) wccSettle() {
	if t := g.wcc; t != nil && t.valid && t.dirty >= t.threshold {
		g.rebuildWCC()
	}
}

// wccMaybeCompact rebuilds when abandoned nodes dominate the node
// arena, bounding its growth under detach-heavy churn and letting
// steady state reuse capacity instead of allocating.
func (g *Graph) wccMaybeCompact() {
	t := g.wcc
	if len(t.parent) > 4*g.NumVertices()+64 {
		g.rebuildWCC()
	}
}

// distinctNeighbors counts the distinct non-self neighbours of the
// vertex at slot s (union of both directions), stopping as soon as
// the count exceeds limit, which keeps the scan O(limit). Only the
// first neighbour found is deduplicated across the two directions, so
// the result is exact for true counts 0 and 1 (the only neighbour is
// the only possible duplicate) and a lower bound of 2 otherwise —
// precisely the classes the delete hooks distinguish.
func (g *Graph) distinctNeighbors(s int32, self VertexID, limit int) int {
	count := 0
	first := VertexID(0)
	scan := func(id VertexID, _ int32) bool {
		if id == self {
			return true
		}
		if count == 0 {
			first = id
			count = 1
			return true
		}
		if id == first {
			return true
		}
		count++
		return count <= limit
	}
	g.outAdj[s].each(scan)
	if count <= limit {
		g.inAdj[s].each(scan)
	}
	return count
}
