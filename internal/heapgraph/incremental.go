package heapgraph

import (
	"cmp"
	"slices"
)

// This file implements incremental weak-connectivity tracking (the
// strong-connectivity sibling lives in incremental_scc.go and shares
// the union-find core and the search scratch defined here).
// Recomputing components with an O(V+E) walk at every metric
// computation point (the reference walk in analysis.go) would cap the
// viable sampling frequency by heap *size*; the tracker instead
// maintains the component count under mutation, so a metric point
// costs the work of the mutations since the previous point — heap
// *churn*, not heap size.
//
// The tracker keeps a spanning forest of the undirected heap graph
// (per-slot forest parents, fpar) next to a union-find over its trees.
// This is the replacement-edge idea of dynamic connectivity (Holm, de
// Lichtenberg & Thorup, JACM 2001) without the levels:
//
//   - a new vertex is a new singleton tree;
//   - a new edge inside one component changes nothing; one between two
//     components becomes a forest edge: the smaller tree is rerooted at
//     its endpoint (a walk no longer than that tree) and hung under the
//     other endpoint, and the union-find joins the two;
//   - losing the last link between two vertices (either direction) that
//     is not a forest edge leaves the forest spanning: exact no-op;
//   - losing a forest edge cuts a tree in two. Both halves are
//     enumerated along forest links in lockstep until the smaller is
//     complete; that half is scanned for an edge leaving it. If one
//     exists it becomes the new forest edge (count unchanged);
//     otherwise the half really split off and moves, whole, to one
//     fresh union-find node (count +1);
//   - removing a vertex with no forest children (a singleton or a
//     forest leaf, however many non-forest edges it carries) or a
//     forest root with one child leaves every tree connected: exact.
//     Removing an interior forest vertex may split several subtrees at
//     once: the tracker goes stale (see Lifecycle below).
//
// The tracker grows with the graph. The logger turns it on over the
// empty heap image, where it is exact at count 0, and every vertex and
// edge after that is one of the exact additions above, so the build of
// a heap costs O(α) per link and no walk. (Turned on over a populated
// graph, it builds itself from the adjacency at once.) It replaced a
// lazy build at the first query, which sorted every vertex by age:
// with it and the SCC trim of incremental_scc.go,
// BenchmarkLoggerStructureExtended/reused went from 405 to 367
// ns/event at 4096 nodes and from 278 to 233 at 8192 (medians of ten
// alternating runs on a shared 2-vCPU VM).
//
// Searches (cut enumerations here, probes and re-splits in the SCC
// tracker) charge every adjacency entry they scan against an allowance
// of V+E+64 entries, refilled at every count query and every rebuild,
// and credited one entry for every vertex and edge the tracker adds,
// so cuts before the first query have a V+E-sized budget too.
//
// Lifecycle. Both trackers are either exact or stale. A tracker goes
// stale in three ways: a search overruns its allowance, a delete shape
// it cannot maintain exactly occurs (here, an interior forest vertex's
// removal), or its node arena outgrows 4·V+64 nodes. A stale tracker's
// mutation hooks return at once and add no nodes, so its memory stays
// bounded. The next count query rebuilds it, and that is the only
// place a rebuild runs: metrics are read only at metric points (paper
// §2.1), so a count between two of them need not be exact, and a query
// interval costs at most one rebuild plus one allowance of search
// work. A rebuild replays the graph's links in vertex-age order — each
// vertex, oldest first, linked to its older neighbours with the same
// rule as an edge insert — so it rebuilds the forest incremental
// maintenance would have grown: a tree's forest is the tree, and a
// cross edge stays a non-forest link whose re-pointing costs nothing.
// (A BFS forest would pick up cross edges, and then every re-pointed
// cross edge is a cut.)
//
// Node indirection. A union-find element cannot be detached from its
// tree without breaking other elements' parent chains through it. The
// trackers therefore separate *vertices* from *union-find nodes*: a
// per-slot table maps each live vertex to a node in a growable node
// arena, and splitting vertices off just points their slots at a fresh
// node, leaving the old nodes in place as interior links. Abandoned
// nodes accumulate until the arena bound makes the tracker stale, and
// the query's rebuild compacts the arena, reusing the slices' capacity,
// so steady-state churn performs no allocation.
//
// The tracker maintains the count only, the one value the metric suite
// reads (WCC per 100 vertices).

// allowanceSlack is the constant part of a tracker's search allowance
// (V+E+allowanceSlack adjacency entries per query interval), so tiny
// graphs still get room for a search or two.
const allowanceSlack = 64

// ufCore is the union-find state shared by the weak-connectivity
// tracker below and the strong-connectivity tracker
// (incremental_scc.go): the node-indirection table, the node arena,
// the count, the stale flag and the search allowance.
type ufCore struct {
	// node maps arena slot → union-find node, parallel to Graph.gen.
	// Entries for dead slots are leftovers and never read.
	node []int32
	// parent/size form the union-find node arena. size is only
	// meaningful at roots and counts live vertices (not nodes), so
	// abandoned nodes stay uncounted.
	parent []int32
	size   []int32

	count int  // live component count; exact unless stale
	stale bool // maintenance given up; the next count query rebuilds

	allow    int // adjacency entries searches may still scan this interval
	allowCap int // test override of the allowance (0 = V+E+allowanceSlack)
	rebuilds int // full rebuilds so far (read by tests)
}

// restart returns an empty core that keeps t's slices, so a tracker
// turned on again over a reset graph does not regrow them.
func (t *ufCore) restart() ufCore {
	return ufCore{node: t.node[:0], parent: t.parent[:0], size: t.size[:0]}
}

// newNode appends a fresh singleton node to the node arena.
func (t *ufCore) newNode() int32 {
	n := int32(len(t.parent))
	t.parent = append(t.parent, n)
	t.size = append(t.size, 1)
	return n
}

// resetArena empties the node arena for a rebuild over n slots,
// keeping room for n nodes and a quarter's headroom so neither the
// rebuild nor the churn after it regrows the arena a step at a time.
func (t *ufCore) resetArena(n int) {
	t.parent = sizeI32(t.parent, n)[:0]
	t.size = sizeI32(t.size, n)[:0]
	t.count = 0
}

// sizeI32 returns a slice of length n, reusing s's capacity when it
// suffices and otherwise growing with a quarter's headroom, so a slowly
// growing graph (one more edge per rebuild) does not reallocate at
// every rebuild. Contents are unspecified; callers overwrite every
// entry they read.
func sizeI32(s []int32, n int) []int32 {
	if cap(s) < n {
		return make([]int32, n, n+n/4)
	}
	return s[:n]
}

// find returns x's root, halving the path as it goes.
func (t *ufCore) find(x int32) int32 {
	for t.parent[x] != x {
		t.parent[x] = t.parent[t.parent[x]]
		x = t.parent[x]
	}
	return x
}

// unite joins the distinct roots ra and rb (union by size) and
// decrements the count.
func (t *ufCore) unite(ra, rb int32) {
	if t.size[ra] < t.size[rb] {
		ra, rb = rb, ra
	}
	t.parent[rb] = ra
	t.size[ra] += t.size[rb]
	t.count--
}

// union joins the components of nodes a and b, decrementing the count
// when they were distinct.
func (t *ufCore) union(a, b int32) {
	if ra, rb := t.find(a), t.find(b); ra != rb {
		t.unite(ra, rb)
	}
}

// refill resets the search allowance for a new query interval.
func (t *ufCore) refill(g *Graph) {
	t.allow = t.allowCap
	if t.allow <= 0 {
		t.allow = g.nVerts + g.edges + allowanceSlack
	}
}

// credit grows the search allowance by one entry for a vertex or edge
// the graph gained, so that the allowance keeps pace with V+E between
// queries (a test override stays fixed).
func (t *ufCore) credit() {
	if t.allowCap <= 0 {
		t.allow++
	}
}

// bound marks the tracker stale once abandoned nodes dominate its node
// arena — more than 4·V+64 nodes over V live vertices — so that the
// next query's rebuild compacts it. Hooks call it after adding nodes
// and when a vertex leaves.
func (t *ufCore) bound(nVerts int) {
	if len(t.parent) > 4*nVerts+64 {
		t.stale = true
	}
}

// Search marks. A mark entry holds the search epoch in its high bits
// and up to three flags in its low bits, so bumping the epoch clears
// every mark at once.
const (
	markA    = 1 << iota // first side of a lockstep search
	markB                // second side
	markR                // second-pass closure / member set
	markBits = 3
)

// search is the scratch every tracker search uses: one per Graph and
// shared by both trackers (searches never nest). The two sides of a
// lockstep search keep their visit lists in qa and qb — each list is
// its own queue, consumed through a head index — and their seeds in sa
// and sb; work is a closure worklist.
type search struct {
	mark   []uint32
	epoch  uint32
	qa, qb []int32
	sa, sb []int32
	work   []int32
}

// beginSearch starts a new search epoch over the current vertex arena
// and empties the lists. The mark array grows with 50% headroom: the
// arena creeps one slot per AddVertex while the heap grows, and an
// exact fit would reallocate on every search of that phase.
func (g *Graph) beginSearch() *search {
	s := g.scratch()
	if n := len(g.gen); len(s.mark) < n {
		s.mark = make([]uint32, n+n/2)
		s.epoch = 0
	}
	if s.epoch == 1<<(32-markBits)-1 {
		clear(s.mark)
		s.epoch = 0
	}
	s.epoch++
	s.qa, s.qb, s.sa, s.sb, s.work = s.qa[:0], s.qb[:0], s.sa[:0], s.sb[:0], s.work[:0]
	return s
}

// scratch returns the graph's search scratch, allocating it on first
// use so that graphs without a tracker do not carry it.
func (g *Graph) scratch() *search {
	if g.srch == nil {
		g.srch = new(search)
	}
	return g.srch
}

// has reports whether slot x carries flag f in this epoch.
func (s *search) has(x int32, f uint32) bool {
	m := s.mark[x]
	return m>>markBits == s.epoch && m&f != 0
}

// set adds flag f to slot x's mark.
func (s *search) set(x int32, f uint32) {
	m := s.mark[x]
	if m>>markBits != s.epoch {
		m = s.epoch << markBits
	}
	s.mark[x] = m | f
}

// wccTracker is the incremental weak-connectivity state: the shared
// union-find core plus the spanning forest.
type wccTracker struct {
	ufCore
	// fpar is the forest parent of each slot (-1 at a tree root),
	// parallel to node. Every forest edge is backed by at least one
	// graph edge between its endpoints, in either direction.
	fpar []int32
}

// reroot makes slot x the root of its forest tree by reversing the
// parent links on its path to the old root.
func (t *wccTracker) reroot(x int32) {
	prev := int32(-1)
	for x >= 0 {
		next := t.fpar[x]
		t.fpar[x] = prev
		prev, x = x, next
	}
}

// link records a graph link between slots a and b. Within one
// component it changes nothing; across two it becomes a forest edge,
// hanging the smaller tree (rerooted at its endpoint) under the other
// endpoint — b's tree on a tie.
func (t *wccTracker) link(a, b int32) {
	ra, rb := t.find(t.node[a]), t.find(t.node[b])
	if ra == rb {
		return
	}
	if t.size[ra] < t.size[rb] {
		t.reroot(a)
		t.fpar[a] = b
	} else {
		t.reroot(b)
		t.fpar[b] = a
	}
	t.unite(ra, rb)
}

// TrackConnectivity turns on the weak-connectivity tracker, replacing
// any tracker already on (whose slices, or those of a tracker parked
// by Reset, the new one reuses). The tracker is exact from the start:
// over an empty graph it starts at count 0 and grows with the graph,
// and over a populated one it builds itself from the live adjacency at
// once (a build, not counted as a rebuild).
func (g *Graph) TrackConnectivity() {
	t := cmp.Or(g.wcc, g.spareWCC)
	if t == nil {
		t = new(wccTracker)
	}
	*t = wccTracker{ufCore: t.restart(), fpar: t.fpar[:0]}
	g.wcc, g.spareWCC = t, nil
	g.rebuildWCC()
	t.rebuilds = 0
}

// ConnectedComponentCount returns the number of weakly connected
// components from the incremental tracker, turning it on if it is off
// and rebuilding it first if it is stale.
func (g *Graph) ConnectedComponentCount() int {
	if g.wcc == nil {
		g.TrackConnectivity()
	}
	t := g.wcc
	if t.stale {
		g.rebuildWCC()
	}
	t.refill(g)
	return t.count
}

// rebuildWCC rebuilds the tracker from the live adjacency: one fresh
// node and one singleton tree per live vertex, then every vertex in
// age order (the order AddVertex added them) linked to its older
// neighbours — in-edges first, since the edge that attached an object
// to the heap is usually the first pointer stored to it. Existing
// slice capacity is reused, so rebuilds after the first allocate only
// when the arena has grown. It runs at a query on a stale tracker,
// which also compacts the node arena to exactly one node per live
// vertex, and once when the tracker is turned on, where over an empty
// graph it only sizes the tables.
func (g *Graph) rebuildWCC() {
	t := g.wcc
	n := len(g.gen)
	t.node = sizeI32(t.node, n)
	t.fpar = sizeI32(t.fpar, n)
	t.resetArena(n)
	sc := g.scratch()
	order := sizeI32(sc.qa, n)[:0] // the search lists are idle during a rebuild
	for s := range g.gen {
		if !g.live(s) {
			continue
		}
		order = append(order, int32(s))
		t.node[s] = t.newNode()
		t.fpar[s] = -1
		t.count++
	}
	slices.SortFunc(order, func(a, b int32) int { return cmp.Compare(g.age[a], g.age[b]) })
	for _, s := range order {
		older := func(w, _ int32) bool {
			if g.age[w] < g.age[s] {
				t.link(w, s)
			}
			return true
		}
		g.inAdj.At(s).each(older)
		g.outAdj.At(s).each(older)
	}
	sc.qa = order
	t.stale = false
	t.rebuilds++
	t.refill(g)
}

// wccMaintain reports whether the tracker is present and exact, i.e.
// mutation hooks should apply precise maintenance.
func (g *Graph) wccMaintain() bool {
	t := g.wcc
	return t != nil && !t.stale
}

// growTables gives the four slot- and node-indexed tables room for c
// entries when the vertex arena has grown to capacity c, so they
// reallocate together with it rather than one append at a time.
func (t *wccTracker) growTables(c int) {
	for _, s := range [...]*[]int32{&t.node, &t.fpar, &t.parent, &t.size} {
		if n := c - len(*s); n > 0 {
			*s = slices.Grow(*s, n)
		}
	}
}

// wccAddVertex is the AddVertex hook: a new vertex is a new singleton
// tree, and one more entry of search allowance.
func (g *Graph) wccAddVertex(s int32) {
	if !g.wccMaintain() {
		return
	}
	t := g.wcc
	if int(s) >= len(t.node) {
		t.growTables(cap(g.gen))
		t.node = t.node[:s+1]
		t.fpar = t.fpar[:s+1]
	}
	t.node[s] = t.newNode()
	t.fpar[s] = -1
	t.count++
	t.credit()
	t.bound(g.nVerts)
}

// wccAddEdge is the AddEdge hook (u != v slots; self-loops never
// change weak connectivity and are filtered by the caller): an O(α)
// link, and one more entry of search allowance.
func (g *Graph) wccAddEdge(us, vs int32) {
	if t := g.wcc; g.wccMaintain() {
		t.link(us, vs)
		t.credit()
	}
}

// wccRemoveEdge is the RemoveEdge hook, called after the adjacency
// decrement for a non-self-loop edge between slots us→vs. While any link between the
// endpoints remains, or the lost link was not a forest edge, the
// forest still spans every component: exact no-op. Losing a forest
// edge runs the cut search.
func (g *Graph) wccRemoveEdge(us, vs int32) {
	if !g.wccMaintain() {
		return
	}
	t := g.wcc
	if g.outAdj.At(us).get(vs) > 0 || g.outAdj.At(vs).get(us) > 0 {
		return // still directly linked in some direction
	}
	switch {
	case t.fpar[us] == vs:
		g.wccCut(us, vs)
	case t.fpar[vs] == us:
		g.wccCut(vs, us)
	}
}

// wccCut handles the loss of the forest edge between slot c and its
// forest parent p: it enumerates c's subtree and p's remaining tree in
// lockstep until one is complete, then looks for a graph edge leaving
// that smaller half. One found becomes the replacement forest edge;
// none means the half is a component of its own, and it moves to one
// fresh union-find node. Running out of allowance makes the tracker
// stale instead.
func (g *Graph) wccCut(c, p int32) {
	t := g.wcc
	t.fpar[c] = -1
	s := g.beginSearch()
	s.set(c, markA)
	s.set(p, markB)
	s.qa = append(s.qa, c)
	s.qb = append(s.qb, p)
	budget := t.allow
	var small []int32
	var flag uint32
	for i := 0; ; i++ {
		if i == len(s.qa) {
			small, flag = s.qa, markA
			break
		}
		if i == len(s.qb) {
			small, flag = s.qb, markB
			break
		}
		s.qa = g.forestExpand(s, s.qa, s.qa[i], markA, &budget)
		s.qb = g.forestExpand(s, s.qb, s.qb[i], markB, &budget)
		if budget < 0 {
			t.stale = true
			return
		}
	}
	// The half is complete; any neighbour without its flag lies in the
	// other half.
	for _, x := range small {
		exit := int32(-1)
		leaves := func(y, _ int32) bool {
			budget--
			if !s.has(y, flag) {
				exit = y
			}
			return exit < 0 && budget >= 0
		}
		g.outAdj.At(x).each(leaves)
		if exit < 0 && budget >= 0 {
			g.inAdj.At(x).each(leaves)
		}
		if budget < 0 {
			t.stale = true
			return
		}
		if exit >= 0 {
			t.reroot(x)
			t.fpar[x] = exit
			t.allow = budget
			return
		}
	}
	t.allow = budget
	old := t.find(t.node[c])
	r := t.newNode()
	t.size[r] = int32(len(small))
	t.size[old] -= int32(len(small))
	for _, x := range small {
		t.node[x] = r
	}
	t.count++
	t.bound(g.nVerts)
}

// forestExpand appends to list the unvisited forest neighbours of slot
// x — its forest parent and every graph neighbour whose forest parent
// is x — marking them with flag and charging each adjacency entry
// scanned to budget.
func (g *Graph) forestExpand(s *search, list []int32, x int32, flag uint32, budget *int) []int32 {
	fpar := g.wcc.fpar
	if p := fpar[x]; p >= 0 && !s.has(p, flag) {
		s.set(p, flag)
		list = append(list, p)
	}
	child := func(y, _ int32) bool {
		*budget--
		if fpar[y] == x && !s.has(y, flag) {
			s.set(y, flag)
			list = append(list, y)
		}
		return *budget >= 0
	}
	g.outAdj.At(x).each(child)
	if *budget >= 0 {
		g.inAdj.At(x).each(child)
	}
	return list
}

// wccRemoveVertex is the RemoveVertex hook. It must run BEFORE the
// edges are detached — finding the vertex's forest children needs its
// adjacency. Exact cases: no forest children (a singleton tree, or a
// forest leaf whose other links are all non-forest edges) and a
// forest root with one child (the child becomes the root). An interior
// forest vertex may split its tree several ways: stale.
func (g *Graph) wccRemoveVertex(s int32) {
	if !g.wccMaintain() {
		return
	}
	t := g.wcc
	child, kids := int32(-1), 0
	count := func(y, _ int32) bool {
		if t.fpar[y] == s && y != child {
			child = y
			kids++
		}
		return kids < 2
	}
	g.outAdj.At(s).each(count)
	if kids < 2 {
		g.inAdj.At(s).each(count)
	}
	r := t.find(t.node[s])
	switch {
	case kids == 0:
		t.size[r]--
		if t.fpar[s] < 0 {
			t.count-- // a childless root: the tree was the vertex alone
		}
	case kids == 1 && t.fpar[s] < 0:
		t.fpar[child] = -1
		t.size[r]--
	default:
		t.stale = true
	}
	t.bound(g.nVerts - 1) // the vertex is not yet uncounted
}
