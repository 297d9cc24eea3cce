package heapgraph

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestAddVertex(t *testing.T) {
	g := New()
	g.AddVertex(1)
	g.AddVertex(2)
	g.AddVertex(1) // duplicate is a no-op
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
	g.AddVertex(1)
	g.AddVertex(2)
	if !g.AddEdge(1, 2) {
		t.Fatal("AddEdge failed")
	}
	if g.InDegree(2) != 1 || g.OutDegree(1) != 1 {
		t.Errorf("degrees: in(2)=%d out(1)=%d", g.InDegree(2), g.OutDegree(1))
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
	g.AddVertex(1)
	if g.AddEdge(1, 99) {
		t.Error("AddEdge to missing vertex should fail")
	}
	if g.AddEdge(99, 1) {
		t.Error("AddEdge from missing vertex should fail")
	}
	if g.NumEdges() != 0 {
		t.Error("failed AddEdge should not count")
	}
}

func TestMultiEdges(t *testing.T) {
	g := New()
	g.AddVertex(1)
	g.AddVertex(2)
	g.AddEdge(1, 2)
	g.AddEdge(1, 2)
	if g.Multiplicity(1, 2) != 2 {
		t.Fatalf("Multiplicity = %d, want 2", g.Multiplicity(1, 2))
	}
	if g.InDegree(2) != 2 {
		t.Errorf("multi-edge indegree = %d, want 2", g.InDegree(2))
	}
	if g.CountInDegree(2) != 1 {
		t.Errorf("CountInDegree(2) = %d, want 1", g.CountInDegree(2))
	}
	g.RemoveEdge(1, 2)
	if g.Multiplicity(1, 2) != 1 || g.InDegree(2) != 1 {
		t.Errorf("after removing one multi-edge: mult=%d in=%d", g.Multiplicity(1, 2), g.InDegree(2))
	}
}

func TestSelfLoop(t *testing.T) {
	g := New()
	g.AddVertex(5)
	g.AddEdge(5, 5)
	if g.InDegree(5) != 1 || g.OutDegree(5) != 1 {
		t.Errorf("self-loop degrees = (%d,%d), want (1,1)", g.InDegree(5), g.OutDegree(5))
	}
	if g.CountInEqOut() != 1 {
		t.Errorf("self-loop vertex should have in==out")
	}
	if msg := g.CheckInvariants(); msg != "" {
		t.Errorf("invariants: %s", msg)
	}
	g.RemoveVertex(5)
	if g.NumEdges() != 0 || g.NumVertices() != 0 {
		t.Errorf("graph not empty after removing self-loop vertex: %s", g)
	}
	if msg := g.CheckInvariants(); msg != "" {
		t.Errorf("invariants after removal: %s", msg)
	}
}

func TestRemoveEdge(t *testing.T) {
	g := New()
	g.AddVertex(1)
	g.AddVertex(2)
	if g.RemoveEdge(1, 2) {
		t.Error("RemoveEdge of absent edge should report false")
	}
	g.AddEdge(1, 2)
	if !g.RemoveEdge(1, 2) {
		t.Error("RemoveEdge of present edge should report true")
	}
	if g.NumEdges() != 0 || g.InDegree(2) != 0 {
		t.Error("edge removal did not restore degrees")
	}
	if g.CountInEqOut() != 2 {
		t.Errorf("CountInEqOut = %d, want 2", g.CountInEqOut())
	}
}

func TestRemoveVertexDetachesEdges(t *testing.T) {
	// hub with incoming and outgoing edges
	g := New()
	for v := VertexID(1); v <= 5; v++ {
		g.AddVertex(v)
	}
	g.AddEdge(1, 3) // into hub
	g.AddEdge(2, 3)
	g.AddEdge(3, 4) // out of hub
	g.AddEdge(3, 5)
	g.RemoveVertex(3)
	if g.NumVertices() != 4 || g.NumEdges() != 0 {
		t.Fatalf("after hub removal: %s", g)
	}
	for _, v := range []VertexID{1, 2, 4, 5} {
		if g.InDegree(v) != 0 || g.OutDegree(v) != 0 {
			t.Errorf("vertex %d degrees not restored", v)
		}
	}
	if msg := g.CheckInvariants(); msg != "" {
		t.Errorf("invariants: %s", msg)
	}
}

func TestRemoveAbsentVertex(t *testing.T) {
	g := New()
	g.RemoveVertex(42) // must not panic
	if g.NumVertices() != 0 {
		t.Error("phantom vertex appeared")
	}
}

func TestDegreeOverflowBucket(t *testing.T) {
	g := New()
	g.AddVertex(0)
	for v := VertexID(1); v <= 20; v++ {
		g.AddVertex(v)
		g.AddEdge(v, 0)
	}
	if g.InDegree(0) != 20 {
		t.Fatalf("InDegree = %d", g.InDegree(0))
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
	g.AddVertex(1)
	g.AddVertex(2)
	g.AddVertex(3)
	g.AddEdge(1, 2)
	g.AddEdge(1, 3)
	g.AddEdge(1, 3)
	succ := map[VertexID]int{}
	g.Successors(1, func(s VertexID, m int) bool {
		succ[s] = m
		return true
	})
	if len(succ) != 2 || succ[2] != 1 || succ[3] != 2 {
		t.Errorf("Successors = %v", succ)
	}
	pred := map[VertexID]int{}
	g.Predecessors(3, func(p VertexID, m int) bool {
		pred[p] = m
		return true
	})
	if len(pred) != 1 || pred[1] != 2 {
		t.Errorf("Predecessors = %v", pred)
	}
}

// buildList creates a singly linked list of n vertices starting at
// base: base -> base+1 -> ... -> base+n-1.
func buildList(g *Graph, base VertexID, n int) {
	for i := 0; i < n; i++ {
		g.AddVertex(base + VertexID(i))
	}
	for i := 0; i+1 < n; i++ {
		g.AddEdge(base+VertexID(i), base+VertexID(i+1))
	}
}

func TestWeaklyConnectedComponents(t *testing.T) {
	g := New()
	if n := g.WeaklyConnectedComponents(); n != 0 {
		t.Errorf("empty graph components = %d", n)
	}
	buildList(g, 0, 10)
	buildList(g, 100, 5)
	g.AddVertex(999) // isolated singleton
	if n := g.WeaklyConnectedComponents(); n != 3 {
		t.Errorf("count = %d, want 3", n)
	}
}

func TestSCCList(t *testing.T) {
	g := New()
	buildList(g, 0, 100)
	// A list is acyclic: every vertex is its own SCC.
	if n := g.StronglyConnectedComponents(); n != 100 {
		t.Errorf("list SCCs = %d, want 100", n)
	}
}

func TestSCCCycle(t *testing.T) {
	g := New()
	const n = 50
	for i := 0; i < n; i++ {
		g.AddVertex(VertexID(i))
	}
	for i := 0; i < n; i++ {
		g.AddEdge(VertexID(i), VertexID((i+1)%n))
	}
	if got := g.StronglyConnectedComponents(); got != 1 {
		t.Errorf("cycle SCCs = %d, want 1", got)
	}
}

func TestSCCMixed(t *testing.T) {
	// A 3-cycle feeding a 2-chain: SCCs = {3-cycle}, {a}, {b}.
	g := New()
	for i := 0; i < 5; i++ {
		g.AddVertex(VertexID(i))
	}
	g.AddEdge(0, 1)
	g.AddEdge(1, 2)
	g.AddEdge(2, 0)
	g.AddEdge(2, 3)
	g.AddEdge(3, 4)
	if n := g.StronglyConnectedComponents(); n != 3 {
		t.Errorf("mixed SCCs = %d, want 3", n)
	}
}

func TestSCCDeepListNoOverflow(t *testing.T) {
	// The iterative Tarjan must survive a path deep enough to kill a
	// recursive version.
	g := New()
	const n = 300000
	buildList(g, 0, n)
	if got := g.StronglyConnectedComponents(); got != n {
		t.Errorf("deep list SCC count = %d, want %d", got, n)
	}
}

// mutation encodes a random graph operation for property testing.
type mutation struct {
	Op   byte
	U, V uint8
}

// TestGraphInvariantsUnderRandomMutation applies random operation
// sequences and validates the incremental histograms against full
// recomputation via CheckInvariants.
func TestGraphInvariantsUnderRandomMutation(t *testing.T) {
	f := func(muts []mutation) bool {
		g := New()
		for _, m := range muts {
			u, v := VertexID(m.U%32), VertexID(m.V%32)
			switch m.Op % 4 {
			case 0:
				g.AddVertex(u)
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
	for i := 0; i < 200; i++ {
		g.AddVertex(VertexID(i))
	}
	for i := 0; i < 600; i++ {
		g.AddEdge(VertexID(rng.Intn(200)), VertexID(rng.Intn(200)))
	}
	for i := 0; i < 50; i++ {
		g.RemoveVertex(VertexID(rng.Intn(200)))
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
	g.TrackConnectivity()
	g.TrackSCC()
	g.AddVertex(1)
	g.AddVertex(2)
	g.AddEdge(1, 1) // self-loop
	g.AddEdge(1, 2)
	g.AddEdge(1, 2) // multi-edge
	if got := g.WeaklyConnectedComponents(); got != 1 {
		t.Errorf("WCC = %d, want 1", got)
	}
	if got := g.StronglyConnectedComponents(); got != 2 {
		t.Errorf("SCC = %d, want 2 singletons", got)
	}
	if msg := g.CheckComponents(); msg != "" {
		t.Fatal(msg)
	}
	g.RemoveEdge(1, 2)
	g.RemoveEdge(1, 1)
	if g.ConnectedComponentCount() != 1 {
		t.Errorf("WCC count = %d after dropping one multi-edge copy, want 1", g.ConnectedComponentCount())
	}
	if msg := g.CheckComponents(); msg != "" {
		t.Fatal(msg)
	}
}

func BenchmarkAddRemoveEdge(b *testing.B) {
	g := New()
	for i := 0; i < 1000; i++ {
		g.AddVertex(VertexID(i))
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		u := VertexID(i % 1000)
		v := VertexID((i * 7) % 1000)
		g.AddEdge(u, v)
		g.RemoveEdge(u, v)
	}
}

func BenchmarkDegreeCounts(b *testing.B) {
	g := New()
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 10000; i++ {
		g.AddVertex(VertexID(i))
	}
	for i := 0; i < 30000; i++ {
		g.AddEdge(VertexID(rng.Intn(10000)), VertexID(rng.Intn(10000)))
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
	for i := 0; i < 5000; i++ {
		g.AddVertex(VertexID(i))
	}
	for i := 0; i < 15000; i++ {
		g.AddEdge(VertexID(rng.Intn(5000)), VertexID(rng.Intn(5000)))
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		g.StronglyConnectedComponents()
	}
}
