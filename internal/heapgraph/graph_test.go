package heapgraph

import (
	"math"
	"math/rand"
	"slices"
	"testing"
	"testing/quick"
)

// addVertices adds n vertices to g and returns their handles in the
// order added.
func addVertices(g *Graph, n int) []VertexID {
	v := make([]VertexID, n)
	for i := range v {
		v[i] = g.AddVertex()
	}
	return v
}

func TestAddVertex(t *testing.T) {
	g := New()
	a, b := g.AddVertex(), g.AddVertex()
	if a == 0 || b == 0 || a == b || !g.HasVertex(a) || !g.HasVertex(b) {
		t.Fatalf("handles %#x and %#x: want two distinct, non-zero live handles", a, b)
	}
	if g.NumVertices() != 2 {
		t.Fatalf("NumVertices = %d, want 2", g.NumVertices())
	}
	if g.CountInDegree(0) != 2 || g.CountOutDegree(0) != 2 {
		t.Errorf("isolated vertices should all have degree 0")
	}
	if g.CountInEqOut() != 2 {
		t.Errorf("CountInEqOut = %d, want 2", g.CountInEqOut())
	}
}

func TestAddEdgeDegrees(t *testing.T) {
	g := New()
	var v [3]VertexID
	v[1] = g.AddVertex()
	v[2] = g.AddVertex()
	if !g.AddEdge(v[1], v[2]) {
		t.Fatal("AddEdge failed")
	}
	if g.InDegree(v[2]) != 1 || g.OutDegree(v[1]) != 1 {
		t.Errorf("degrees: in(2)=%d out(1)=%d", g.InDegree(v[2]), g.OutDegree(v[1]))
	}
	if g.CountInDegree(1) != 1 || g.CountOutDegree(1) != 1 {
		t.Errorf("histograms wrong after edge")
	}
	// 1 has (in=0,out=1), 2 has (in=1,out=0): neither has in==out.
	if g.CountInEqOut() != 0 {
		t.Errorf("CountInEqOut = %d, want 0", g.CountInEqOut())
	}
	if g.NumEdges() != 1 {
		t.Errorf("NumEdges = %d, want 1", g.NumEdges())
	}
}

func TestAddEdgeMissingVertex(t *testing.T) {
	g := New()
	v := g.AddVertex()
	var missing VertexID // names no vertex
	if g.AddEdge(v, missing) {
		t.Error("AddEdge to missing vertex should fail")
	}
	if g.AddEdge(missing, v) {
		t.Error("AddEdge from missing vertex should fail")
	}
	if g.NumEdges() != 0 {
		t.Error("failed AddEdge should not count")
	}
}

func TestMultiEdges(t *testing.T) {
	g := New()
	var v [3]VertexID
	v[1] = g.AddVertex()
	v[2] = g.AddVertex()
	g.AddEdge(v[1], v[2])
	g.AddEdge(v[1], v[2])
	if g.Multiplicity(v[1], v[2]) != 2 {
		t.Fatalf("Multiplicity = %d, want 2", g.Multiplicity(v[1], v[2]))
	}
	if g.InDegree(v[2]) != 2 {
		t.Errorf("multi-edge indegree = %d, want 2", g.InDegree(v[2]))
	}
	if g.CountInDegree(2) != 1 {
		t.Errorf("CountInDegree(2) = %d, want 1", g.CountInDegree(2))
	}
	g.RemoveEdge(v[1], v[2])
	if g.Multiplicity(v[1], v[2]) != 1 || g.InDegree(v[2]) != 1 {
		t.Errorf("after removing one multi-edge: mult=%d in=%d", g.Multiplicity(v[1], v[2]), g.InDegree(v[2]))
	}
}

func TestSelfLoop(t *testing.T) {
	g := New()
	v := g.AddVertex()
	g.AddEdge(v, v)
	if g.InDegree(v) != 1 || g.OutDegree(v) != 1 {
		t.Errorf("self-loop degrees = (%d,%d), want (1,1)", g.InDegree(v), g.OutDegree(v))
	}
	if g.CountInEqOut() != 1 {
		t.Errorf("self-loop vertex should have in==out")
	}
	if msg := g.CheckInvariants(); msg != "" {
		t.Errorf("invariants: %s", msg)
	}
	g.RemoveVertex(v)
	if g.NumEdges() != 0 || g.NumVertices() != 0 {
		t.Errorf("graph not empty after removing self-loop vertex: %s", g)
	}
	if msg := g.CheckInvariants(); msg != "" {
		t.Errorf("invariants after removal: %s", msg)
	}
}

func TestRemoveEdge(t *testing.T) {
	g := New()
	var v [3]VertexID
	v[1] = g.AddVertex()
	v[2] = g.AddVertex()
	if g.RemoveEdge(v[1], v[2]) {
		t.Error("RemoveEdge of absent edge should report false")
	}
	g.AddEdge(v[1], v[2])
	if !g.RemoveEdge(v[1], v[2]) {
		t.Error("RemoveEdge of present edge should report true")
	}
	if g.NumEdges() != 0 || g.InDegree(v[2]) != 0 {
		t.Error("edge removal did not restore degrees")
	}
	if g.CountInEqOut() != 2 {
		t.Errorf("CountInEqOut = %d, want 2", g.CountInEqOut())
	}
}

func TestRemoveVertexDetachesEdges(t *testing.T) {
	// hub with incoming and outgoing edges
	g := New()
	var v [6]VertexID
	for i := 1; i <= 5; i++ {
		v[i] = g.AddVertex()
	}
	g.AddEdge(v[1], v[3]) // into hub
	g.AddEdge(v[2], v[3])
	g.AddEdge(v[3], v[4]) // out of hub
	g.AddEdge(v[3], v[5])
	g.RemoveVertex(v[3])
	if g.NumVertices() != 4 || g.NumEdges() != 0 {
		t.Fatalf("after hub removal: %s", g)
	}
	for _, i := range []int{1, 2, 4, 5} {
		if g.InDegree(v[i]) != 0 || g.OutDegree(v[i]) != 0 {
			t.Errorf("vertex %d degrees not restored", i)
		}
	}
	if msg := g.CheckInvariants(); msg != "" {
		t.Errorf("invariants: %s", msg)
	}
}

// TestStaleHandleAfterSlotReuse: once a vertex is removed and a new
// vertex reuses its slot, the old handle names no vertex, and every
// operation given it leaves the new vertex alone.
func TestStaleHandleAfterSlotReuse(t *testing.T) {
	g := New()
	old, other := g.AddVertex(), g.AddVertex()
	g.AddEdge(old, other)
	g.RemoveVertex(old)
	reused := g.AddVertex()
	if g.slotOf(reused) != int32(uint32(old)) || reused == old {
		t.Fatalf("handle %#x after removing %#x: want the same slot at a new generation", reused, old)
	}
	g.AddEdge(reused, other)
	if g.HasVertex(old) || g.AddEdge(old, other) || g.AddEdge(other, old) || g.RemoveEdge(old, other) ||
		g.Multiplicity(old, other) != 0 || g.InDegree(old) != 0 || g.OutDegree(old) != 0 {
		t.Fatal("a stale handle resolved to the vertex that reused its slot")
	}
	g.RemoveVertex(old)
	if !g.HasVertex(reused) || g.Multiplicity(reused, other) != 1 || g.NumEdges() != 1 {
		t.Fatalf("removing the stale handle changed the graph: %s", g)
	}
	if msg := g.CheckInvariants(); msg != "" {
		t.Fatal(msg)
	}
}

// TestGenerationWrapRetiresSlot seeds a live slot's generation two
// short of the largest odd value: one more reuse reaches it, and the
// removal after that would wrap the generation to 0, after which a
// reuse would hand out generation 1 again and revive the slot's first
// handle. The slot must be retired instead — never reused, while the
// graph stays consistent — until Reset.
func TestGenerationWrapRetiresSlot(t *testing.T) {
	g := New()
	first, other := g.AddVertex(), g.AddVertex()
	g.AddEdge(first, other)
	s := g.slotOf(first)
	g.gen[s] = math.MaxUint32 - 2
	seeded := handle(s, g.gen[s])
	g.RemoveVertex(seeded)
	last := g.AddVertex()
	if g.slotOf(last) != s || uint32(last>>32) != math.MaxUint32 {
		t.Fatalf("handle %#x, want slot %d at generation %#x", last, s, uint32(math.MaxUint32))
	}
	g.AddEdge(other, last)
	g.RemoveVertex(last)
	if g.gen[s] != 0 || slices.Contains(g.freeSlots, s) {
		t.Fatalf("after the wrap: generation %d, freelist %v; want the slot retired", g.gen[s], g.freeSlots)
	}
	next := g.AddVertex()
	if g.slotOf(next) == s {
		t.Fatal("a retired slot was reused")
	}
	for _, h := range []VertexID{first, seeded, last} {
		if g.HasVertex(h) || g.AddEdge(h, next) || g.AddEdge(next, h) {
			t.Fatalf("handle %#x of the retired slot resolved", h)
		}
	}
	if msg := g.CheckInvariants(); msg != "" {
		t.Fatal(msg)
	}
	if g.NumVertices() != 2 || g.NumEdges() != 0 {
		t.Fatalf("graph %s, want the two live vertices and no edges", g)
	}
	g.Reset()
	if v := g.AddVertex(); g.slotOf(v) != 0 {
		t.Fatalf("after Reset the first vertex is in slot %d, want 0", g.slotOf(v))
	}
}

func TestRemoveAbsentVertex(t *testing.T) {
	g := New()
	g.RemoveVertex(42) // names no vertex; must not panic
	if g.NumVertices() != 0 {
		t.Error("phantom vertex appeared")
	}
}

func TestDegreeOverflowBucket(t *testing.T) {
	g := New()
	hub := g.AddVertex()
	for i := 1; i <= 20; i++ {
		g.AddEdge(g.AddVertex(), hub)
	}
	if g.InDegree(hub) != 20 {
		t.Fatalf("InDegree = %d", g.InDegree(hub))
	}
	if g.CountInDegree(20) != 0 {
		t.Error("degrees beyond maxTracked must not appear in exact buckets")
	}
	if g.CountInDegreeOverflow() != 1 {
		t.Errorf("overflow bucket = %d, want 1", g.CountInDegreeOverflow())
	}
	if msg := g.CheckInvariants(); msg != "" {
		t.Errorf("invariants: %s", msg)
	}
}

func TestSuccessorsPredecessors(t *testing.T) {
	g := New()
	var v [4]VertexID
	v[1] = g.AddVertex()
	v[2] = g.AddVertex()
	v[3] = g.AddVertex()
	g.AddEdge(v[1], v[2])
	g.AddEdge(v[1], v[3])
	g.AddEdge(v[1], v[3])
	succ := map[VertexID]int{}
	g.Successors(v[1], func(s VertexID, m int) bool {
		succ[s] = m
		return true
	})
	if len(succ) != 2 || succ[v[2]] != 1 || succ[v[3]] != 2 {
		t.Errorf("Successors = %v", succ)
	}
	pred := map[VertexID]int{}
	g.Predecessors(v[3], func(p VertexID, m int) bool {
		pred[p] = m
		return true
	})
	if len(pred) != 1 || pred[v[1]] != 2 {
		t.Errorf("Predecessors = %v", pred)
	}
}

// buildList creates a singly linked list of n new vertices, each
// pointing to the one added after it.
func buildList(g *Graph, n int) {
	v := addVertices(g, n)
	for i := 0; i+1 < n; i++ {
		g.AddEdge(v[i], v[i+1])
	}
}

func TestWeaklyConnectedComponents(t *testing.T) {
	g := New()
	if n := g.WeaklyConnectedComponents(); n != 0 {
		t.Errorf("empty graph components = %d", n)
	}
	buildList(g, 10)
	buildList(g, 5)
	g.AddVertex() // isolated singleton
	if n := g.WeaklyConnectedComponents(); n != 3 {
		t.Errorf("count = %d, want 3", n)
	}
}

func TestSCCList(t *testing.T) {
	g := New()
	buildList(g, 100)
	// A list is acyclic: every vertex is its own SCC.
	if n := g.StronglyConnectedComponents(); n != 100 {
		t.Errorf("list SCCs = %d, want 100", n)
	}
}

func TestSCCCycle(t *testing.T) {
	g := New()
	const n = 50
	v := addVertices(g, n)
	for i := 0; i < n; i++ {
		g.AddEdge(v[i], v[(i+1)%n])
	}
	if got := g.StronglyConnectedComponents(); got != 1 {
		t.Errorf("cycle SCCs = %d, want 1", got)
	}
}

func TestSCCMixed(t *testing.T) {
	// A 3-cycle feeding a 2-chain: SCCs = {3-cycle}, {a}, {b}.
	g := New()
	v := addVertices(g, 5)
	g.AddEdge(v[0], v[1])
	g.AddEdge(v[1], v[2])
	g.AddEdge(v[2], v[0])
	g.AddEdge(v[2], v[3])
	g.AddEdge(v[3], v[4])
	if n := g.StronglyConnectedComponents(); n != 3 {
		t.Errorf("mixed SCCs = %d, want 3", n)
	}
}

func TestSCCDeepListNoOverflow(t *testing.T) {
	// The iterative Tarjan must survive a path deep enough to kill a
	// recursive version.
	g := New()
	const n = 300000
	buildList(g, n)
	if got := g.StronglyConnectedComponents(); got != n {
		t.Errorf("deep list SCC count = %d, want %d", got, n)
	}
}

// mutation encodes a random graph operation for property testing.
type mutation struct {
	Op   byte
	U, V uint8
}

// names maps the small integers a random or fuzzed mutation program
// names vertices by to the handles AddVertex returned for them. A
// removed vertex's name keeps its stale handle, which every graph
// operation must treat as absent, also once the slot is reused.
type names []VertexID

// add gives name u a new vertex unless it names a live one.
func (n names) add(g *Graph, u int) {
	if !g.HasVertex(n[u]) {
		n[u] = g.AddVertex()
	}
}

// TestGraphInvariantsUnderRandomMutation applies random operation
// sequences and validates the incremental histograms against full
// recomputation via CheckInvariants.
func TestGraphInvariantsUnderRandomMutation(t *testing.T) {
	f := func(muts []mutation) bool {
		g := New()
		n := make(names, 32)
		for _, m := range muts {
			u, v := n[m.U%32], n[m.V%32]
			switch m.Op % 4 {
			case 0:
				n.add(g, int(m.U%32))
			case 1:
				g.RemoveVertex(u)
			case 2:
				g.AddEdge(u, v)
			case 3:
				g.RemoveEdge(u, v)
			}
		}
		return g.CheckInvariants() == ""
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// TestGraphMetricsMatchBruteForce compares histogram-based counts with
// a brute-force degree scan on random graphs.
func TestGraphMetricsMatchBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	g := New()
	v := addVertices(g, 200)
	for i := 0; i < 600; i++ {
		g.AddEdge(v[rng.Intn(200)], v[rng.Intn(200)])
	}
	for i := 0; i < 50; i++ {
		g.RemoveVertex(v[rng.Intn(200)])
	}
	for d := 0; d <= maxTracked; d++ {
		wantIn, wantOut := 0, 0
		g.Vertices(func(v VertexID) bool {
			if g.InDegree(v) == d {
				wantIn++
			}
			if g.OutDegree(v) == d {
				wantOut++
			}
			return true
		})
		if g.CountInDegree(d) != wantIn {
			t.Errorf("CountInDegree(%d) = %d, want %d", d, g.CountInDegree(d), wantIn)
		}
		if g.CountOutDegree(d) != wantOut {
			t.Errorf("CountOutDegree(%d) = %d, want %d", d, g.CountOutDegree(d), wantOut)
		}
	}
	wantEq := 0
	g.Vertices(func(v VertexID) bool {
		if g.InDegree(v) == g.OutDegree(v) {
			wantEq++
		}
		return true
	})
	if g.CountInEqOut() != wantEq {
		t.Errorf("CountInEqOut = %d, want %d", g.CountInEqOut(), wantEq)
	}
}

// TestStructureSelfLoopAndMultiEdge: self-loops (their own SCC of
// size 1, no effect on WCC) and multi-edges must not disturb the
// reference walks or the incremental trackers, and removing one copy
// of a multi-edge must keep the endpoints connected.
func TestStructureSelfLoopAndMultiEdge(t *testing.T) {
	g := New()
	var v [3]VertexID
	g.TrackConnectivity()
	g.TrackSCC()
	v[1] = g.AddVertex()
	v[2] = g.AddVertex()
	g.AddEdge(v[1], v[1]) // self-loop
	g.AddEdge(v[1], v[2])
	g.AddEdge(v[1], v[2]) // multi-edge
	if got := g.WeaklyConnectedComponents(); got != 1 {
		t.Errorf("WCC = %d, want 1", got)
	}
	if got := g.StronglyConnectedComponents(); got != 2 {
		t.Errorf("SCC = %d, want 2 singletons", got)
	}
	if msg := g.CheckComponents(); msg != "" {
		t.Fatal(msg)
	}
	g.RemoveEdge(v[1], v[2])
	g.RemoveEdge(v[1], v[1])
	if g.ConnectedComponentCount() != 1 {
		t.Errorf("WCC count = %d after dropping one multi-edge copy, want 1", g.ConnectedComponentCount())
	}
	if msg := g.CheckComponents(); msg != "" {
		t.Fatal(msg)
	}
}

func BenchmarkAddRemoveEdge(b *testing.B) {
	g := New()
	v := addVertices(g, 1000)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		u, w := v[i%1000], v[(i*7)%1000]
		g.AddEdge(u, w)
		g.RemoveEdge(u, w)
	}
}

func BenchmarkDegreeCounts(b *testing.B) {
	g := New()
	rng := rand.New(rand.NewSource(1))
	v := addVertices(g, 10000)
	for i := 0; i < 30000; i++ {
		g.AddEdge(v[rng.Intn(10000)], v[rng.Intn(10000)])
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = g.CountInDegree(0) + g.CountInDegree(1) + g.CountInDegree(2) +
			g.CountOutDegree(0) + g.CountOutDegree(1) + g.CountOutDegree(2) +
			g.CountInEqOut()
	}
}

func BenchmarkSCC(b *testing.B) {
	g := New()
	rng := rand.New(rand.NewSource(1))
	v := addVertices(g, 5000)
	for i := 0; i < 15000; i++ {
		g.AddEdge(v[rng.Intn(5000)], v[rng.Intn(5000)])
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		g.StronglyConnectedComponents()
	}
}
