package metrics

import (
	"math"
	"testing"
	"testing/quick"

	"heapmd/internal/heapgraph"
)

func TestIDString(t *testing.T) {
	if Roots.String() != "Roots" || OutDeg1.String() != "Outdeg=1" || InEqOut.String() != "In=Out" {
		t.Errorf("unexpected names: %s %s %s", Roots, OutDeg1, InEqOut)
	}
	if got := ID(-1).String(); got != "metrics.ID(-1)" {
		t.Errorf("invalid ID name = %q", got)
	}
}

func TestParseIDRoundTrip(t *testing.T) {
	for id := ID(0); id < numIDs; id++ {
		got, err := ParseID(id.String())
		if err != nil {
			t.Fatalf("ParseID(%q): %v", id.String(), err)
		}
		if got != id {
			t.Errorf("ParseID(%q) = %v, want %v", id.String(), got, id)
		}
	}
	if _, err := ParseID("bogus"); err == nil {
		t.Error("ParseID of unknown name should fail")
	}
}

func TestNewSuiteDeduplicates(t *testing.T) {
	s := NewSuite(Roots, Roots, Leaves, ID(-3), ID(999))
	if s.Len() != 2 {
		t.Fatalf("Len = %d, want 2", s.Len())
	}
	if s.Index(Roots) != 0 || s.Index(Leaves) != 1 || s.Index(InDeg1) != -1 {
		t.Error("suite ordering/index wrong")
	}
}

func TestDefaultSuite(t *testing.T) {
	s := DefaultSuite()
	if s.Len() != 7 {
		t.Fatalf("default suite has %d metrics, want 7", s.Len())
	}
	if s.Index(Components) >= 0 || s.Index(SCCs) >= 0 {
		t.Error("default suite contains a structure extension metric")
	}
}

func TestComputeEmptyGraph(t *testing.T) {
	g := heapgraph.New()
	snap := DefaultSuite().Compute(g, 3, []float64{1, 2, 3, 4, 5, 6, 7}) // stale values are overwritten
	if snap.Tick != 3 || snap.Vertices != 0 {
		t.Fatalf("snapshot header = %+v", snap)
	}
	for i, v := range snap.Values {
		if v != 0 {
			t.Errorf("metric %d on empty graph = %v, want 0", i, v)
		}
	}
}

// compute evaluates s against g into a fresh values slice.
func compute(s Suite, g *heapgraph.Graph, tick uint64) Snapshot {
	return s.Compute(g, tick, make([]float64, s.Len()))
}

// linkedListGraph builds the canonical k-node singly linked list used
// in the paper's Figure 3 discussion.
func linkedListGraph(k int) *heapgraph.Graph {
	g := heapgraph.New()
	v := make([]heapgraph.VertexID, k)
	for i := range v {
		v[i] = g.AddVertex()
	}
	for i := 0; i+1 < k; i++ {
		g.AddEdge(v[i], v[i+1])
	}
	return g
}

func TestComputeLinkedList(t *testing.T) {
	// For a 10-node list at object granularity: 1 root, 9 nodes with
	// indegree 1, 1 leaf, 9 with outdegree 1, and 8 interior nodes
	// with in==out (the head has 0/1, the tail 1/0).
	g := linkedListGraph(10)
	s := DefaultSuite()
	snap := compute(s, g, 0)
	want := map[ID]float64{
		Roots:   10,
		InDeg1:  90,
		InDeg2:  0,
		Leaves:  10,
		OutDeg1: 90,
		OutDeg2: 0,
		InEqOut: 80,
	}
	for id, w := range want {
		got := snap.Values[s.Index(id)]
		if math.Abs(got-w) > 1e-9 {
			t.Errorf("%v = %v, want %v", id, got, w)
		}
	}
}

func TestComputeExtended(t *testing.T) {
	// Two disjoint 5-node lists: 2 WCCs over 10 vertices = 20 per
	// 100 vertices; 10 SCCs (acyclic) = 100 per 100 vertices.
	g := heapgraph.New()
	var v [10]heapgraph.VertexID
	for i := range v {
		v[i] = g.AddVertex()
	}
	for i := 0; i < 4; i++ {
		g.AddEdge(v[i], v[i+1])
		g.AddEdge(v[5+i], v[6+i])
	}
	s := ExtendedSuite()
	snap := compute(s, g, 0)
	if got := snap.Values[s.Index(Components)]; math.Abs(got-20) > 1e-9 {
		t.Errorf("Components = %v, want 20", got)
	}
	if got := snap.Values[s.Index(SCCs)]; math.Abs(got-100) > 1e-9 {
		t.Errorf("SCCs = %v, want 100", got)
	}
}

// TestPercentagesSumProperties checks cross-metric consistency on
// random graphs: every percentage is within [0,100], and the indegree
// buckets 0,1,2 plus the rest account for all vertices.
func TestPercentagesSumProperties(t *testing.T) {
	type edge struct{ U, V uint8 }
	f := func(edges []edge, nSeed uint8) bool {
		n := int(nSeed%50) + 1
		g := heapgraph.New()
		v := make([]heapgraph.VertexID, n)
		for i := range v {
			v[i] = g.AddVertex()
		}
		for _, e := range edges {
			g.AddEdge(v[int(e.U)%n], v[int(e.V)%n])
		}
		s := DefaultSuite()
		snap := compute(s, g, 0)
		for _, v := range snap.Values {
			if v < 0 || v > 100+1e-9 {
				return false
			}
		}
		in012 := snap.Values[s.Index(Roots)] + snap.Values[s.Index(InDeg1)] + snap.Values[s.Index(InDeg2)]
		return in012 <= 100+1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestSeries(t *testing.T) {
	s := DefaultSuite()
	g := linkedListGraph(4)
	snaps := []Snapshot{compute(s, g, 0)}
	g.AddVertex() // new isolated root+leaf
	snaps = append(snaps, compute(s, g, 1))
	series := AppendSeries(nil, snaps, s.Index(Roots))
	if len(series) != 2 {
		t.Fatalf("series length = %d", len(series))
	}
	if series[0] != 25 || series[1] != 40 {
		t.Errorf("Roots series = %v, want [25 40]", series)
	}
	// The series lands after what dst already holds.
	if got := AppendSeries([]float64{7}, snaps, s.Index(Roots)); len(got) != 3 || got[0] != 7 || got[2] != 40 {
		t.Errorf("AppendSeries onto [7] = %v, want [7 25 40]", got)
	}
}

func BenchmarkComputeDefault(b *testing.B) {
	g := linkedListGraph(100000)
	s := DefaultSuite()
	values := make([]float64, s.Len())
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Compute(g, uint64(i), values)
	}
}

func BenchmarkComputeExtended(b *testing.B) {
	g := linkedListGraph(10000)
	s := ExtendedSuite()
	values := make([]float64, s.Len())
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Compute(g, uint64(i), values)
	}
}

// TestSeriesSkipsNarrowSnapshots: indexing an extended suite into
// snapshots recorded with the narrower v1 suite must skip them, not
// panic.
func TestSeriesSkipsNarrowSnapshots(t *testing.T) {
	ext := ExtendedSuite()
	narrowW := DefaultSuite().Len() // 7
	snaps := []Snapshot{
		{Tick: 1, Values: make([]float64, narrowW)},
		{Tick: 2, Values: make([]float64, ext.Len())},
		{Tick: 3, Values: make([]float64, narrowW)},
		{Tick: 4, Values: make([]float64, ext.Len())},
	}
	snaps[1].Values[ext.Index(Components)] = 42
	snaps[3].Values[ext.Index(Components)] = 43

	series := AppendSeries(nil, snaps, ext.Index(Components))
	if len(series) != 2 || series[0] != 42 || series[1] != 43 {
		t.Errorf("series = %v, want [42 43]", series)
	}

	// A metric that fits inside the narrow width sees every snapshot.
	if all := AppendSeries(nil, snaps, ext.Index(Roots)); len(all) != len(snaps) {
		t.Errorf("cheap metric: len=%d, want %d", len(all), len(snaps))
	}
}

// TestComputeExtendedMatchesReference drives the extended suite
// through a mutating graph and checks every sample's component metrics
// against the reference walks at the same point.
func TestComputeExtendedMatchesReference(t *testing.T) {
	suite := ExtendedSuite()
	wcc, scc := suite.Index(Components), suite.Index(SCCs)
	g := heapgraph.New()
	var v []heapgraph.VertexID // in the order added
	for tick := uint64(1); tick <= 40; tick++ {
		// Grow a few linked chains, occasionally closing cycles.
		for i := 0; i < 5; i++ {
			v = append(v, g.AddVertex())
			if n := len(v); n > 1 {
				g.AddEdge(v[n-2], v[n-1])
			}
		}
		k := len(v)
		if tick%7 == 0 {
			g.AddEdge(v[k-1], v[k-4])
		}
		if tick%11 == 0 {
			g.RemoveVertex(v[k-2])
		}
		snap := compute(suite, g, tick)
		n := float64(g.NumVertices())
		if want := float64(g.WeaklyConnectedComponents()) / n * 100; snap.Values[wcc] != want {
			t.Fatalf("tick %d: %v = %v, reference %v", tick, Components, snap.Values[wcc], want)
		}
		if want := float64(g.StronglyConnectedComponents()) / n * 100; snap.Values[scc] != want {
			t.Fatalf("tick %d: %v = %v, reference %v", tick, SCCs, snap.Values[scc], want)
		}
	}
}
