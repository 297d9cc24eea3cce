package heapgraph

// This file implements incremental strong-connectivity tracking, the
// SCC sibling of the weak-connectivity tracker in incremental.go. It
// shares the union-find core (node indirection, growable node arena,
// dirty/threshold bookkeeping) and keeps the extended metric suite
// free of O(V+E) walks: with both trackers on, a metric point costs
// O(churn), never O(heap).
//
// Strong connectivity is harder than weak on both mutation kinds:
//
// Edge inserts. Adding u→v merges SCCs exactly when v already reaches
// u; every SCC on a v⇝u path joins u's SCC. The tracker answers this
// with a bounded two-pass probe (sccAddEdge): a forward search from v
// that treats SCC(u) as a single super-node — members of SCC(u) are
// recorded as hits but never expanded — collecting the visited set F,
// then a backward closure over in-edges restricted to F from the
// vertices that touched SCC(u). Every vertex in F that reaches SCC(u)
// lies on a v⇝u path and is merged into SCC(u). The result is EXACT,
// not heuristic: in the condensation DAG a path from SCC(v) to SCC(u)
// cannot pass through SCC(u) as an intermediate (the DAG is acyclic),
// so refusing to expand SCC(u) members cannot hide any merge
// candidate. The probe charges every adjacency entry it scans against
// a budget (DefaultSCCProbeBudget); exceeding it abandons the probe
// and marks the tracker dirty — the common fast paths (edge into a
// fresh object, edge inside an existing SCC) complete in O(1)-ish
// work, and pathological hub fan-outs degrade to the amortized
// rebuild instead of an unbounded walk on the mutation path.
//
// Deletes. Union-find cannot split, so deletes use an exact-shape
// taxonomy mirroring the WCC tracker's, with different shapes:
//
//   - removing an edge with a parallel edge remaining: no-op;
//   - removing a CROSS-SCC edge: exact no-op — a cycle through the
//     edge would have put its endpoints in one SCC already, so no
//     cycle dies and no SCC can merge by losing an edge;
//   - removing an INTRA-SCC edge may split the SCC: dirty;
//   - removing a vertex whose SCC has size 1: exact count decrement —
//     no cycle passes through a singleton-SCC vertex, so every other
//     SCC keeps its internal cycles intact (this covers isolated
//     vertices and, unlike the WCC taxonomy, every chain/tree/DAG
//     vertex regardless of degree);
//   - removing a member of a multi-vertex SCC: dirty.
//
// Dirty states amortize exactly like the WCC tracker: the dirty
// counter forces a rebuild at the configured threshold during
// mutation (sccSettle — note AddEdge also settles, because probe
// bailouts dirty on *insert*), and queries on a dirty tracker rebuild
// lazily first. The rebuild is an iterative Tarjan walk over the live
// adjacency using tracker-owned scratch (a CSR copy of the out-edges
// plus index/lowlink/stack arrays). Isolated vertices become singleton
// SCCs directly, without Tarjan frames, and steady-state rebuilds
// reuse capacity and allocate nothing.
//
// Like the WCC tracker, only Count is maintained (the suite consumes
// SCC per 100 vertices); Largest is left to the reference walk.

// DefaultSCCProbeBudget caps the adjacency entries one edge-insert
// probe may scan (both passes combined) before giving up and marking
// the tracker dirty. The budget bounds the mutation-path cost at hub
// vertices; the overwhelmingly common insert shapes (fresh target,
// intra-SCC edge, short cycle closure) complete well under it.
const DefaultSCCProbeBudget = 128

// sccFrame is one iterative-Tarjan stack frame: a vertex slot and the
// next unexplored position within its CSR edge range.
type sccFrame struct {
	v   int32
	pos int32
}

// sccTracker is the incremental strong-connectivity state.
type sccTracker struct {
	ufCore

	budget int // probe budget (adjacency entries per insert probe)

	// Probe scratch (sccAddEdge). visit/reach are stamp arrays indexed
	// by slot: visit marks membership in the forward set F, reach marks
	// the backward closure. One stamp increment invalidates both.
	visit []uint32
	reach []uint32
	stamp uint32
	queue []int32 // BFS worklist, reused by both passes
	fset  []int32 // the forward set F, in visit order
	seeds []int32 // F members with an edge into SCC(u)

	// Rebuild scratch (rebuildSCC): a CSR copy of the live out-edges
	// and the iterative-Tarjan arrays.
	offs    []int32
	targets []int32
	index   []int32
	low     []int32
	onStack []bool
	frames  []sccFrame
	stack   []int32
}

// TrackSCC turns on the strong-connectivity tracker with the given
// rebuild threshold (<= 0 selects DefaultRebuildThreshold) and the
// default probe budget, replacing any tracker already on. Like
// TrackConnectivity, the tracker builds itself at the first query.
func (g *Graph) TrackSCC(rebuildThreshold int) {
	if rebuildThreshold <= 0 {
		rebuildThreshold = DefaultRebuildThreshold
	}
	g.scc = &sccTracker{
		ufCore: ufCore{threshold: rebuildThreshold},
		budget: DefaultSCCProbeBudget,
	}
}

// SetSCCProbeBudget overrides the edge-insert probe budget (<= 0
// restores DefaultSCCProbeBudget). No-op while the tracker is off.
// Exposed for tests and tuning; the default is right for the paper's
// heap shapes.
func (g *Graph) SetSCCProbeBudget(n int) {
	if g.scc == nil {
		return
	}
	if n <= 0 {
		n = DefaultSCCProbeBudget
	}
	g.scc.budget = n
}

// StronglyConnectedComponentCount returns the number of strongly
// connected components from the incremental tracker, turning it on at
// the default threshold if it is off and rebuilding it first if it has
// never been built or mutations have dirtied it.
func (g *Graph) StronglyConnectedComponentCount() int {
	if g.scc == nil {
		g.TrackSCC(0)
	}
	t := g.scc
	if !t.valid || t.dirty > 0 {
		g.rebuildSCC()
	}
	return t.count
}

// sccMaintain reports whether the tracker is present and exact.
func (g *Graph) sccMaintain() bool {
	t := g.scc
	return t != nil && t.valid && t.dirty == 0
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
	g.sccMaybeCompact()
}

// sccAddEdge is the AddEdge hook (u != v slots; a self-loop never
// changes the SCC partition and is filtered by the caller). If u and v
// are already strongly connected the insert is a no-op; otherwise the
// bounded probe decides exactly which SCCs the new edge merges, or
// dirties the tracker when the probe budget runs out.
func (g *Graph) sccAddEdge(us, vs int32) {
	if !g.sccMaintain() {
		return
	}
	t := g.scc
	ru := t.find(t.node[us])
	if ru == t.find(t.node[vs]) {
		return // intra-SCC edge: partition unchanged
	}
	g.sccProbe(us, vs, ru)
}

// sccProbe implements the two-pass reverse-reachability probe for a
// new edge u→v whose endpoints are in distinct SCCs (ru = root of
// SCC(u)). See the file comment for the exactness argument.
func (g *Graph) sccProbe(us, vs, ru int32) {
	t := g.scc
	t.ensureProbeScratch(len(g.ids))
	t.stamp++
	work, budget := 0, t.budget
	hit, bail := false, false

	// Pass 1: forward search from v over out-edges, never expanding
	// members of SCC(u). F = every visited vertex outside SCC(u).
	t.queue = append(t.queue[:0], vs)
	t.fset = append(t.fset[:0], vs)
	t.seeds = t.seeds[:0]
	t.visit[vs] = t.stamp
	for len(t.queue) > 0 && !bail {
		s := t.queue[len(t.queue)-1]
		t.queue = t.queue[:len(t.queue)-1]
		self := g.ids[s]
		touched := false
		g.outAdj[s].each(func(id VertexID, _ int32) bool {
			if work++; work > budget {
				bail = true
				return false
			}
			if id == self {
				return true
			}
			ws := g.slotOf(id)
			if t.visit[ws] == t.stamp {
				return true
			}
			if t.find(t.node[ws]) == ru {
				hit = true
				touched = true // s has an edge into SCC(u)
				return true
			}
			t.visit[ws] = t.stamp
			t.queue = append(t.queue, ws)
			t.fset = append(t.fset, ws)
			return true
		})
		if touched {
			t.seeds = append(t.seeds, s)
		}
	}
	if bail {
		t.dirty++
		return
	}
	if !hit {
		return // v does not reach u: no cycle, exact no-op
	}

	// Pass 2: backward closure inside F from the seeds. A vertex of F
	// reaches SCC(u) iff some F-path leads from it to a seed, because
	// the forward pass made F closed under out-edges (modulo edges
	// into SCC(u), which the seeds account for).
	t.queue = t.queue[:0]
	for _, s := range t.seeds {
		if t.reach[s] != t.stamp {
			t.reach[s] = t.stamp
			t.queue = append(t.queue, s)
		}
	}
	for len(t.queue) > 0 && !bail {
		s := t.queue[len(t.queue)-1]
		t.queue = t.queue[:len(t.queue)-1]
		g.inAdj[s].each(func(id VertexID, _ int32) bool {
			if work++; work > budget {
				bail = true
				return false
			}
			ws := g.slotOf(id)
			if t.visit[ws] == t.stamp && t.reach[ws] != t.stamp {
				t.reach[ws] = t.stamp
				t.queue = append(t.queue, ws)
			}
			return true
		})
	}
	if bail {
		t.dirty++
		return
	}

	// Merge: every F vertex that reaches SCC(u) is on a v⇝u path and
	// now shares a cycle with u through the new edge.
	for _, s := range t.fset {
		if t.reach[s] == t.stamp {
			t.union(t.node[s], t.node[us])
		}
	}
}

// ensureProbeScratch sizes the stamp arrays to the vertex arena and
// handles stamp wraparound. Called at probe start, so growth never
// invalidates in-flight marks. Growth takes 50% headroom: the arena
// creeps one slot per AddVertex while the heap grows, and exact-fit
// arrays would reallocate megabytes on every mutation of that phase.
func (t *sccTracker) ensureProbeScratch(n int) {
	if len(t.visit) < n {
		c := n + n/2
		t.visit = make([]uint32, c)
		t.reach = make([]uint32, c)
		t.stamp = 0
	}
	if t.stamp == ^uint32(0) {
		for i := range t.visit {
			t.visit[i] = 0
			t.reach[i] = 0
		}
		t.stamp = 0
	}
}

// sccRemoveEdge is the RemoveEdge hook, called after the adjacency
// decrement for a non-self-loop edge u→v (slots us→vs). Exact cases: a
// parallel edge remains, or the edge was cross-SCC (losing it cannot
// split any cycle). An intra-SCC edge may have been the cycle's back
// edge: count it toward the rebuild budget.
func (g *Graph) sccRemoveEdge(v VertexID, us, vs int32) {
	t := g.scc
	if t == nil || !t.valid {
		return // never queried yet; the first query builds from scratch
	}
	if t.dirty > 0 {
		t.dirty++
		return
	}
	if g.outAdj[us].get(v) > 0 {
		return // parallel edge remains: same reachability
	}
	if t.find(t.node[us]) != t.find(t.node[vs]) {
		return // cross-SCC edge: no cycle passed through it
	}
	t.dirty++
}

// sccRemoveVertex is the RemoveVertex hook. It must run BEFORE the
// edges are detached (the slot's node entry and SCC size are what is
// classified). Exact case: the vertex is its own SCC — no cycle runs
// through it, so every other SCC survives intact and the count just
// drops by one. Removing a member of a multi-vertex SCC shatters it
// unpredictably: dirty.
func (g *Graph) sccRemoveVertex(s int32) {
	t := g.scc
	if t == nil || !t.valid {
		return
	}
	if t.dirty > 0 {
		t.dirty++
		return
	}
	r := t.find(t.node[s])
	if t.size[r] == 1 {
		t.size[r] = 0
		t.count--
		return
	}
	t.dirty++
}

// sccSettle runs at the end of a mutation (deletes AND inserts — a
// probe bailout dirties on insert): once the dirty counter has spent
// the rebuild budget, rebuild now rather than at the next query,
// keeping worst-case query latency flat. Like wccSettle it must not
// run mid-mutation.
func (g *Graph) sccSettle() {
	if t := g.scc; t != nil && t.valid && t.dirty >= t.threshold {
		g.rebuildSCC()
	}
}

// sccMaybeCompact rebuilds when abandoned nodes dominate the node
// arena, bounding its growth under churn (the rebuild resets to one
// node per SCC).
func (g *Graph) sccMaybeCompact() {
	t := g.scc
	if len(t.parent) > 4*g.NumVertices()+64 {
		g.rebuildSCC()
	}
}

// rebuildSCC recomputes the tracker from the live adjacency with an
// iterative Tarjan walk: one union-find node per SCC, every member
// slot pointing at it. Isolated vertices (no edges in either
// direction) shortcut to singleton nodes without entering Tarjan. All scratch — the CSR edge copy and the
// Tarjan arrays — is tracker-owned and capacity-reused, so rebuilds
// after the first allocate only when the graph has grown. This is
// also the compaction path.
func (g *Graph) rebuildSCC() {
	t := g.scc
	n := len(g.ids)
	if cap(t.node) < n {
		t.node = make([]int32, n)
	} else {
		t.node = t.node[:n]
	}
	t.parent = t.parent[:0]
	t.size = t.size[:0]
	t.count = 0

	t.offs = sizeI32(t.offs, n+1)
	t.index = sizeI32(t.index, n)
	t.low = sizeI32(t.low, n)
	if cap(t.onStack) < n {
		t.onStack = make([]bool, n)
	} else {
		t.onStack = t.onStack[:n]
	}
	for s := 0; s < n; s++ {
		t.index[s] = 0
		t.onStack[s] = false
	}

	// CSR copy of the out-edges of live, non-isolated vertices (dead
	// and isolated slots get empty ranges). Targets of a live edge are
	// never isolated, so the reduced graph is closed.
	live := func(s int) bool {
		return g.alive[s] && (g.inDeg[s] != 0 || g.outDeg[s] != 0)
	}
	total := int32(0)
	for s := 0; s < n; s++ {
		t.offs[s] = total
		if live(s) {
			total += int32(g.outAdj[s].distinct())
		}
	}
	t.offs[n] = total
	t.targets = sizeI32(t.targets, int(total))
	for s := 0; s < n; s++ {
		if !live(s) {
			continue
		}
		i := t.offs[s]
		g.outAdj[s].each(func(id VertexID, _ int32) bool {
			t.targets[i] = g.slotOf(id)
			i++
			return true
		})
	}

	// Isolated vertices: singleton SCCs, no Tarjan.
	for s := 0; s < n; s++ {
		if g.alive[s] && g.inDeg[s] == 0 && g.outDeg[s] == 0 {
			t.node[s] = t.newNode()
			t.count++
		}
	}

	// Iterative Tarjan over the CSR reduction.
	next := int32(1)
	t.stack = t.stack[:0]
	t.frames = t.frames[:0]
	for root := 0; root < n; root++ {
		if !live(root) || t.index[root] != 0 {
			continue
		}
		t.index[root] = next
		t.low[root] = next
		next++
		t.stack = append(t.stack, int32(root))
		t.onStack[root] = true
		t.frames = append(t.frames, sccFrame{v: int32(root)})
		for len(t.frames) > 0 {
			f := &t.frames[len(t.frames)-1]
			if base := t.offs[f.v]; base+f.pos < t.offs[f.v+1] {
				w := t.targets[base+f.pos]
				f.pos++
				if t.index[w] == 0 {
					t.index[w] = next
					t.low[w] = next
					next++
					t.stack = append(t.stack, w)
					t.onStack[w] = true
					t.frames = append(t.frames, sccFrame{v: w})
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
	t.dirty = 0
	t.valid = true
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
