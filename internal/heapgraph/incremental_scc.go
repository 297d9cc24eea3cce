package heapgraph

import (
	"cmp"

	"heapmd/internal/arena"
)

// This file implements incremental strong-connectivity tracking, the
// SCC sibling of the weak-connectivity tracker in incremental.go. It
// shares the union-find core (node indirection, growable node arena,
// stale flag, search allowance), the exact-or-stale lifecycle and the
// search scratch, and keeps the extended metric suite free of O(V+E)
// walks: with both trackers on, a metric point costs O(churn), never
// O(heap).
//
// Edge inserts. Adding u→v merges SCCs exactly when v already reaches
// u; every SCC on a v⇝u path joins u's SCC. The probe (sccProbe) runs
// a forward search from v that never expands members of SCC(u) in
// lockstep with a backward search from u that never expands members
// of SCC(v), and stops as soon as either side's closure is complete:
//
//   - forward complete: v reaches u iff some visited vertex has an edge
//     into SCC(u) (a seed). The merge set is every visited vertex that
//     reaches a seed — a backward closure over in-edges restricted to
//     the visited set F;
//   - backward complete: the mirror image — v reaches u iff some
//     visited vertex has an edge from SCC(v), and the merge set is a
//     forward closure over out-edges restricted to the visited set B.
//
// The result is exact, not heuristic: in the condensation DAG a path
// SCC(v) ⇝ SCC(u) cannot pass through either end SCC as an
// intermediate (the DAG is acyclic), so refusing to expand them hides
// no merge candidate. The lockstep makes the probe cost about twice
// the smaller closure: inserting an edge below a large subtree costs
// the few ancestors the backward side sees, not the subtree.
//
// Deletes.
//
//   - removing an edge with a parallel edge remaining: no-op;
//   - removing a CROSS-SCC edge: exact no-op — a cycle through the
//     edge would have put its endpoints in one SCC already;
//   - removing an INTRA-SCC edge u→v: the SCC survives iff u still
//     reaches v, and any such path stays inside the SCC. A lockstep
//     forward search from u and backward search from v, both confined
//     to the SCC's union-find class, settle it: if they meet, no-op;
//     if either completes first, the SCC splits. Every member still
//     reaches u (a simple path into u never uses an edge out of u), so
//     the backward closure of u within the class enumerates the old
//     SCC, and Tarjan over those members alone re-splits it, each new
//     SCC on a fresh union-find node;
//   - removing a vertex whose SCC has size 1: exact count decrement —
//     no cycle passes through it (this covers every chain, tree and DAG
//     vertex regardless of degree);
//   - removing a member of a multi-vertex SCC: the same local re-split
//     over the SCC's other members.
//
// Every shape above is exact, so this tracker goes stale only when a
// probe, cut search or re-split overruns the allowance shared with the
// file comment of incremental.go (V+E+64 adjacency entries per query
// interval), or when its node arena outgrows 4·V+64 nodes; the next
// query rebuilds it. The rebuild is the same iterative Tarjan as the
// local re-split. It runs only over the live vertices with both in-
// and out-edges, along the edges between them: any other vertex lies
// on no cycle and becomes a singleton SCC directly. On a tree that
// leaves out every leaf and the root, and every edge into a leaf. All
// Tarjan scratch is tracker-owned and capacity-reused, so steady-state
// rebuilds and re-splits allocate nothing.
//
// Unlike the WCC tracker, this one is not grown with the graph: it is
// turned on stale, so its first query builds it. The build phase of a
// heap inserts thousands of edges, and each would run a probe. One
// prototype measured a tracker
// grown from the empty graph slower on
// BenchmarkLoggerStructureExtended/reused, 333 → 387 ns/event; against
// the trimmed first build, sixteen alternating runs each at 4096 and
// 8192 nodes found the two level (medians within the spread), so
// growing it would buy nothing for the probes it adds.
//
// Like the WCC tracker, it maintains the count only (the suite reads
// SCC per 100 vertices).

// sccFrame is one iterative-Tarjan stack frame: a vertex slot, the
// next unexplored position within its CSR edge range, and the range
// end.
type sccFrame struct {
	v, pos, end int32
}

// sccTracker is the incremental strong-connectivity state.
type sccTracker struct {
	ufCore

	// Tarjan scratch (rebuildSCC and the local re-split), indexed by
	// slot: a CSR copy of the members' out-edges — offs[s] points at a
	// header entry in targets holding s's edge count, followed by the
	// edges — and the iterative-Tarjan arrays.
	offs    []int32
	targets []int32
	index   []int32
	low     []int32
	onStack []bool
	frames  []sccFrame
	stack   []int32
}

// TrackSCC turns on the strong-connectivity tracker, replacing any
// tracker already on. Like TrackConnectivity, it reuses the slices of
// the tracker it replaces or that Reset parked; unlike it, the tracker
// starts stale, so the first query builds it (see the file comment).
func (g *Graph) TrackSCC() {
	t := cmp.Or(g.scc, g.spareSCC)
	if t == nil {
		t = new(sccTracker)
	}
	*t = sccTracker{
		ufCore:  t.restart(),
		offs:    t.offs[:0],
		targets: t.targets[:0],
		index:   t.index[:0],
		low:     t.low[:0],
		onStack: t.onStack[:0],
		frames:  t.frames[:0],
		stack:   t.stack[:0],
	}
	t.stale = true
	g.scc, g.spareSCC = t, nil
}

// StronglyConnectedComponentCount returns the number of strongly
// connected components from the incremental tracker, turning it on if
// it is off and rebuilding it first if it is stale.
func (g *Graph) StronglyConnectedComponentCount() int {
	if g.scc == nil {
		g.TrackSCC()
	}
	t := g.scc
	if t.stale {
		g.rebuildSCC()
	}
	t.refill(g)
	return t.count
}

// sccMaintain reports whether the tracker is present and exact.
func (g *Graph) sccMaintain() bool {
	t := g.scc
	return t != nil && !t.stale
}

// sccAddVertex is the AddVertex hook: a new vertex is a new singleton
// SCC.
func (g *Graph) sccAddVertex(s int32) {
	if !g.sccMaintain() {
		return
	}
	t := g.scc
	if int(s) >= len(t.node) {
		t.node = append(t.node, 0)
	}
	t.node[s] = t.newNode()
	t.count++
	t.bound(g.nVerts)
}

// sccAddEdge is the AddEdge hook (u != v slots; a self-loop never
// changes the SCC partition and is filtered by the caller). If u and v
// are already strongly connected the insert is a no-op; otherwise the
// probe decides exactly which SCCs the new edge merges.
func (g *Graph) sccAddEdge(us, vs int32) {
	if !g.sccMaintain() {
		return
	}
	t := g.scc
	ru, rv := t.find(t.node[us]), t.find(t.node[vs])
	if ru != rv {
		g.sccProbe(us, vs, ru, rv)
	}
}

// sccProbe is the lockstep insert probe for a new edge u→v between
// distinct SCCs (roots ru, rv). See the file comment for the exactness
// argument.
func (g *Graph) sccProbe(us, vs, ru, rv int32) {
	t := g.scc
	s := g.beginSearch()
	s.set(vs, markA)
	s.set(us, markB)
	s.qa = append(s.qa, vs)
	s.qb = append(s.qb, us)
	budget := t.allow
	for i := 0; i < len(s.qa) && i < len(s.qb); i++ {
		g.probeStep(s, &s.qa, &s.sa, s.qa[i], markA, &g.outAdj, ru, &budget)
		g.probeStep(s, &s.qb, &s.sb, s.qb[i], markB, &g.inAdj, rv, &budget)
		if budget < 0 {
			t.stale = true
			return
		}
	}
	// The shorter list is the complete side (the lockstep stopped
	// when the first one ran out).
	side, list, seeds, back := uint32(markA), s.qa, s.sa, &g.inAdj
	if len(s.qb) < len(s.qa) {
		side, list, seeds, back = markB, s.qb, s.sb, &g.outAdj
	}
	if len(seeds) == 0 {
		t.allow = budget
		return // v does not reach u: no cycle, exact no-op
	}
	g.closure(s, seeds, side, back, &budget)
	if budget < 0 {
		t.stale = true
		return
	}
	t.allow = budget
	// Every marked vertex is on a v⇝u path and now shares a cycle with
	// u through the new edge.
	for _, x := range list {
		if s.has(x, markR) {
			t.union(t.node[x], t.node[us])
		}
	}
	t.union(t.node[vs], t.node[us])
}

// probeStep expands slot x on one side of the insert probe: a
// neighbour along adj in the far endpoint's SCC (root stop) makes x a
// seed and is not expanded; any other unvisited neighbour joins the
// side's list.
func (g *Graph) probeStep(s *search, list, seeds *[]int32, x int32, flag uint32, adj *arena.Seg[adjacency], stop int32, budget *int) {
	t := g.scc
	seed := false
	adj.At(x).each(func(w, _ int32) bool {
		*budget--
		switch {
		case s.has(w, flag):
		case t.find(t.node[w]) == stop:
			seed = true
		default:
			s.set(w, flag)
			*list = append(*list, w)
		}
		return *budget >= 0
	})
	if seed {
		*seeds = append(*seeds, x)
	}
}

// closure marks with markR every slot carrying flag within that
// reaches one of seeds along adj, staying inside the within set.
func (g *Graph) closure(s *search, seeds []int32, within uint32, adj *arena.Seg[adjacency], budget *int) {
	work := s.work[:0]
	for _, x := range seeds {
		s.set(x, markR)
		work = append(work, x)
	}
	for len(work) > 0 && *budget >= 0 {
		x := work[len(work)-1]
		work = work[:len(work)-1]
		adj.At(x).each(func(w, _ int32) bool {
			*budget--
			if s.has(w, within) && !s.has(w, markR) {
				s.set(w, markR)
				work = append(work, w)
			}
			return *budget >= 0
		})
	}
	s.work = work
}

// sccRemoveEdge is the RemoveEdge hook, called after the adjacency
// decrement for a non-self-loop edge between slots us→vs. Exact no-ops:
// a parallel edge remains, or the edge was cross-SCC (losing it cannot
// split any cycle). An intra-SCC edge runs the cut search.
func (g *Graph) sccRemoveEdge(us, vs int32) {
	if !g.sccMaintain() {
		return
	}
	t := g.scc
	if g.outAdj.At(us).get(vs) > 0 {
		return // parallel edge remains: same reachability
	}
	if r := t.find(t.node[us]); r == t.find(t.node[vs]) {
		g.sccCut(us, vs, r)
	}
}

// sccCut handles the loss of the last u→v edge inside the SCC with
// root r: a lockstep u⇝v check confined to the class, then, if u no
// longer reaches v, a re-split of the old SCC.
func (g *Graph) sccCut(us, vs, r int32) {
	t := g.scc
	s := g.beginSearch()
	s.set(us, markA)
	s.set(vs, markB)
	s.qa = append(s.qa, us)
	s.qb = append(s.qb, vs)
	budget := t.allow
	met := false
	for i := 0; !met && i < len(s.qa) && i < len(s.qb); i++ {
		met = g.cutStep(s, &s.qa, s.qa[i], markA, markB, &g.outAdj, r, &budget) ||
			g.cutStep(s, &s.qb, s.qb[i], markB, markA, &g.inAdj, r, &budget)
		if budget < 0 {
			t.stale = true
			return
		}
	}
	if !met {
		members := g.sccClass(s, us, r, &budget)
		g.sccResplit(members, &budget)
		t.bound(g.nVerts)
		return
	}
	t.allow = budget
}

// cutStep expands slot x on one side of the cut search, within the
// class with root r: it reports a meeting with the other side, and
// otherwise appends the class's unvisited neighbours along adj to the
// side's list.
func (g *Graph) cutStep(s *search, list *[]int32, x int32, flag, other uint32, adj *arena.Seg[adjacency], r int32, budget *int) bool {
	t := g.scc
	met := false
	adj.At(x).each(func(w, _ int32) bool {
		*budget--
		switch {
		case s.has(w, other):
			met = true
		case !s.has(w, flag) && t.find(t.node[w]) == r:
			s.set(w, flag)
			*list = append(*list, w)
		}
		return !met && *budget >= 0
	})
	return met
}

// sccClass enumerates, marking them with markR, the members of the
// class with root r that reach slot x — the whole SCC, since all its
// members reach each other.
func (g *Graph) sccClass(s *search, x, r int32, budget *int) []int32 {
	t := g.scc
	list := append(s.work[:0], x)
	s.set(x, markR)
	for i := 0; i < len(list) && *budget >= 0; i++ {
		g.inAdj.At(list[i]).each(func(w, _ int32) bool {
			*budget--
			if !s.has(w, markR) && t.find(t.node[w]) == r {
				s.set(w, markR)
				list = append(list, w)
			}
			return *budget >= 0
		})
	}
	s.work = list
	return list
}

// sccResplit replaces one SCC by the SCCs Tarjan finds among members
// (the slots marked markR), following only edges between members. Out
// of allowance, it makes the tracker stale instead.
func (g *Graph) sccResplit(members []int32, budget *int) {
	t := g.scc
	if *budget < 0 || !g.sccCSR(members, true, budget) {
		t.stale = true
		return
	}
	t.allow = *budget
	t.count--
	g.tarjan(members)
}

// sccRemoveVertex is the RemoveVertex hook. It must run BEFORE the
// edges are detached (the slot's SCC and adjacency are what is
// classified). A vertex that is its own SCC lies on no cycle, so every
// other SCC survives intact and the count just drops by one. Removing
// a member of a larger SCC breaks the cycles through it: the other
// members are re-split locally.
func (g *Graph) sccRemoveVertex(x int32) {
	if !g.sccMaintain() {
		return
	}
	t := g.scc
	if r := t.find(t.node[x]); t.size[r] == 1 {
		t.size[r] = 0
		t.count--
	} else {
		s := g.beginSearch()
		budget := t.allow
		members := g.sccClass(s, x, r, &budget)
		s.mark[x] &^= markR // x heads the list; the re-split leaves it out
		g.sccResplit(members[1:], &budget)
	}
	t.bound(g.nVerts - 1) // x is not yet uncounted
}

// rebuildSCC recomputes the tracker from the live adjacency. A vertex
// with no in-edges or no out-edges lies on no cycle, so it becomes a
// singleton SCC directly and stays out of the CSR and Tarjan; one
// Tarjan pass over the other live vertices, along the edges between
// them, gives each remaining SCC one union-find node. It runs at a
// query on a stale tracker (the first query included, since TrackSCC
// turns the tracker on stale), and it is also the compaction path.
func (g *Graph) rebuildSCC() {
	t := g.scc
	n := len(g.ids)
	t.node = sizeI32(t.node, n)
	t.resetArena(n)
	sc := g.scratch()
	members := sizeI32(sc.qa, n)[:0] // the search lists are idle during a rebuild
	for s := 0; s < n; s++ {
		switch {
		case !g.alive[s]:
		case g.inDeg[s] == 0 || g.outDeg[s] == 0:
			t.node[s] = t.newNode()
			t.count++
		default:
			members = append(members, int32(s))
		}
	}
	sc.qa = members
	g.sccCSR(members, false, nil)
	g.tarjan(members)
	t.stale = false
	t.rebuilds++
	t.refill(g)
}

// sccCSR copies the out-edges of members into the tracker's CSR. A
// local copy keeps only edges to slots marked markR and charges the
// copied adjacency to budget, reporting false, with nothing copied, if
// that overdraws it; a rebuild keeps every edge to another member — a
// vertex with out-edges, since its in-edge is the one being copied —
// without a budget.
func (g *Graph) sccCSR(members []int32, local bool, budget *int) bool {
	t := g.scc
	total := 0
	for _, x := range members {
		total += 1 + g.outAdj.At(x).distinct()
	}
	if local {
		if *budget -= total; *budget < 0 {
			return false
		}
	}
	t.offs = sizeI32(t.offs, len(g.ids))
	t.targets = sizeI32(t.targets, total)
	s := g.srch // set up by the search that collected a local member set
	i := int32(0)
	for _, x := range members {
		head := i
		t.offs[x] = head
		i++
		g.outAdj.At(x).each(func(w, _ int32) bool {
			if local && s.has(w, markR) || !local && g.outDeg[w] > 0 {
				t.targets[i] = w
				i++
			}
			return true
		})
		t.targets[head] = i - head - 1
	}
	return true
}

// tarjan runs iterative Tarjan over members along the CSR copy, giving
// every SCC found a fresh union-find node and counting it.
func (g *Graph) tarjan(members []int32) {
	t := g.scc
	n := len(g.ids)
	t.index = sizeI32(t.index, n)
	t.low = sizeI32(t.low, n)
	if cap(t.onStack) < n {
		t.onStack = make([]bool, n, n+n/4)
	} else {
		t.onStack = t.onStack[:n]
	}
	for _, s := range members {
		t.index[s] = 0
		t.onStack[s] = false
	}
	next := int32(1)
	visit := func(w int32) {
		t.index[w] = next
		t.low[w] = next
		next++
		t.stack = append(t.stack, w)
		t.onStack[w] = true
		head := t.offs[w]
		t.frames = append(t.frames, sccFrame{v: w, pos: head + 1, end: head + 1 + t.targets[head]})
	}
	t.stack = t.stack[:0]
	t.frames = t.frames[:0]
	for _, root := range members {
		if t.index[root] != 0 {
			continue
		}
		visit(root)
		for len(t.frames) > 0 {
			f := &t.frames[len(t.frames)-1]
			if f.pos < f.end {
				w := t.targets[f.pos]
				f.pos++
				if t.index[w] == 0 {
					visit(w)
				} else if t.onStack[w] && t.index[w] < t.low[f.v] {
					t.low[f.v] = t.index[w]
				}
				continue
			}
			v := f.v
			t.frames = t.frames[:len(t.frames)-1]
			if len(t.frames) > 0 {
				if p := &t.frames[len(t.frames)-1]; t.low[v] < t.low[p.v] {
					t.low[p.v] = t.low[v]
				}
			}
			if t.low[v] == t.index[v] {
				r := t.newNode()
				sz := int32(0)
				for {
					w := t.stack[len(t.stack)-1]
					t.stack = t.stack[:len(t.stack)-1]
					t.onStack[w] = false
					t.node[w] = r
					sz++
					if w == v {
						break
					}
				}
				t.size[r] = sz
				t.count++
			}
		}
	}
}
