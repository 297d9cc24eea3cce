package heapgraph

import (
	"math/rand"
	"slices"
	"strconv"
	"strings"
	"testing"
)

// sccOracleCheck asserts the incremental SCC count matches a
// from-scratch Tarjan walk and that graph invariants hold.
func sccOracleCheck(t *testing.T, g *Graph) {
	t.Helper()
	got := g.StronglyConnectedComponentCount()
	want := g.StronglyConnectedComponents()
	if got != want {
		t.Fatalf("StronglyConnectedComponentCount = %d, oracle = %d (V=%d E=%d)",
			got, want, g.NumVertices(), g.NumEdges())
	}
	if msg := g.CheckInvariants(); msg != "" {
		t.Fatalf("invariants violated: %s", msg)
	}
}

// sccRandomMix drives one randomized mutation sequence against the
// tracker, oracle-checking every few steps. Shared by the differential
// test and the fuzz target's seed corpus replay.
func sccRandomMix(t *testing.T, g *Graph, rng *rand.Rand, steps, idSpace int) {
	t.Helper()
	n := make(names, idSpace)
	for step := 0; step < steps; step++ {
		ui := rng.Intn(idSpace)
		u, v := n[ui], n[rng.Intn(idSpace)]
		switch rng.Intn(10) {
		case 0, 1:
			n.add(g, ui)
		case 2, 3, 4:
			// Edge adds matter more for SCC than WCC: they exercise
			// the probe (cycle closure and budget bailout paths).
			g.AddEdge(u, v)
		case 5, 6:
			g.RemoveEdge(u, v)
		case 7, 8:
			g.RemoveVertex(u)
		case 9:
			g.AddEdge(u, u) // self-loop: must not disturb the tracker
		}
		if step%3 == 0 {
			sccOracleCheck(t, g)
		}
	}
	sccOracleCheck(t, g)
}

// TestIncrementalSCCMatchesSnapshotRandom drives a random mutation mix
// against the incremental tracker at two search allowances (budget=2:
// nearly every probe, cut search and re-split bails out and the
// tracker goes stale; budget=128: searches mostly complete), checking
// the count against the Tarjan walk after every few operations.
func TestIncrementalSCCMatchesSnapshotRandom(t *testing.T) {
	for _, budget := range []int{2, 128} {
		t.Run("budget="+strconv.Itoa(budget), func(t *testing.T) {
			rng := rand.New(rand.NewSource(int64(budget)*13 + 29))
			g := New()
			g.TrackSCC()
			g.setAllowance(budget)
			sccRandomMix(t, g, rng, 4000, 48)
		})
	}
}

// TestIncrementalSCCWithWCCRandom runs both incremental trackers at
// once — the configuration the extended suite uses when every metric
// point is O(churn) — and oracle-checks both counts.
func TestIncrementalSCCWithWCCRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(4242))
	g := New()
	g.TrackConnectivity()
	g.TrackSCC()
	n := make(names, 40)
	for step := 0; step < 3000; step++ {
		ui := rng.Intn(40)
		u, v := n[ui], n[rng.Intn(40)]
		switch rng.Intn(9) {
		case 0, 1:
			n.add(g, ui)
		case 2, 3, 4:
			g.AddEdge(u, v)
		case 5, 6:
			g.RemoveEdge(u, v)
		case 7, 8:
			g.RemoveVertex(u)
		}
		if step%5 == 0 {
			oracleCheck(t, g)
			sccOracleCheck(t, g)
		}
	}
	oracleCheck(t, g)
	sccOracleCheck(t, g)
}

// TestIncrementalSCCVerifyMode runs a mutation mix with the
// CheckComponents oracle (the tracker against the reference Tarjan
// walk) at every query point.
func TestIncrementalSCCVerifyMode(t *testing.T) {
	rng := rand.New(rand.NewSource(177))
	g := New()
	g.TrackSCC()
	verify := func(step int) {
		if msg := g.CheckComponents(); msg != "" {
			t.Fatalf("step %d: %s", step, msg)
		}
	}
	n := make(names, 32)
	for step := 0; step < 2000; step++ {
		ui := rng.Intn(32)
		u, v := n[ui], n[rng.Intn(32)]
		switch rng.Intn(8) {
		case 0:
			n.add(g, ui)
		case 1, 2:
			g.AddEdge(u, v)
		case 3, 4:
			g.RemoveEdge(u, v)
		case 5, 6:
			g.RemoveVertex(u)
		case 7:
			verify(step)
		}
	}
	verify(2000)
}

// TestCheckComponentsReportsSCCDivergence corrupts the tracker's count
// in-package and checks the oracle actually trips.
func TestCheckComponentsReportsSCCDivergence(t *testing.T) {
	g := New()
	var v [3]VertexID
	g.TrackSCC()
	v[1] = g.AddVertex()
	v[2] = g.AddVertex()
	g.AddEdge(v[1], v[2])
	if msg := g.CheckComponents(); msg != "" {
		t.Fatalf("clean tracker reported: %s", msg)
	}
	g.scc.count += 3 // inject divergence
	if msg := g.CheckComponents(); !strings.Contains(msg, "strong components: incremental=5 reference=2") {
		t.Fatalf("CheckComponents = %q, want the strong divergence", msg)
	}
}

// TestIncrementalSCCExactShapes pins the mutation shapes the tracker
// claims to handle exactly: after each, a tracker built by an earlier
// query must still be exact (not stale, so no rebuild pending) and
// correct. The shapes differ from the WCC tracker's — any
// singleton-SCC vertex removal is exact here, and intra-SCC deletes
// re-split the one SCC they touch.
func TestIncrementalSCCExactShapes(t *testing.T) {
	clean := func(t *testing.T, g *Graph, wantCount int) {
		t.Helper()
		if g.scc.stale && g.scc.rebuilds > 0 {
			t.Fatal("tracker stale after an exact-shape mutation")
		}
		if got := g.StronglyConnectedComponentCount(); got != wantCount {
			t.Fatalf("count = %d, want %d", got, wantCount)
		}
		sccOracleCheck(t, g)
	}

	t.Run("edge into fresh target", func(t *testing.T) {
		g := New()
		var v [3]VertexID
		g.TrackSCC()
		v[1] = g.AddVertex()
		v[2] = g.AddVertex()
		clean(t, g, 2)
		g.AddEdge(v[1], v[2]) // 2 has no out-edges: probe finds no path back
		clean(t, g, 2)
	})

	t.Run("two-cycle closure", func(t *testing.T) {
		g := New()
		var v [3]VertexID
		g.TrackSCC()
		v[1] = g.AddVertex()
		v[2] = g.AddVertex()
		g.AddEdge(v[1], v[2])
		clean(t, g, 2)
		g.AddEdge(v[2], v[1]) // closes the cycle: exact merge
		clean(t, g, 1)
	})

	t.Run("long-cycle closure", func(t *testing.T) {
		g := New()
		var v [7]VertexID
		g.TrackSCC()
		for i := 1; i <= 6; i++ {
			v[i] = g.AddVertex()
			if i > 1 {
				g.AddEdge(v[i-1], v[i])
			}
		}
		clean(t, g, 6)
		g.AddEdge(v[6], v[1]) // every chain vertex joins one SCC
		clean(t, g, 1)
	})

	t.Run("multi-path merge", func(t *testing.T) {
		// Two disjoint v⇝u paths: closing u→v must merge the SCCs on
		// BOTH paths, which a naive single-path union would miss.
		g := New()
		var v [5]VertexID
		g.TrackSCC()
		for i := 1; i <= 4; i++ {
			v[i] = g.AddVertex()
		}
		// u = 1, v = 2; paths 2→3→1 and 2→4→1.
		g.AddEdge(v[2], v[3])
		g.AddEdge(v[3], v[1])
		g.AddEdge(v[2], v[4])
		g.AddEdge(v[4], v[1])
		clean(t, g, 4)
		g.AddEdge(v[1], v[2])
		clean(t, g, 1)
	})

	t.Run("intra-SCC edge add", func(t *testing.T) {
		g := New()
		var v [3]VertexID
		g.TrackSCC()
		v[1] = g.AddVertex()
		v[2] = g.AddVertex()
		g.AddEdge(v[1], v[2])
		g.AddEdge(v[2], v[1])
		clean(t, g, 1)
		g.AddEdge(v[1], v[2]) // endpoints already strongly connected: no-op
		clean(t, g, 1)
	})

	t.Run("edge into existing SCC", func(t *testing.T) {
		// A fresh vertex pointing INTO a cycle reaches it but is not
		// reached back: exact no-merge.
		g := New()
		var v [5]VertexID
		g.TrackSCC()
		for i := 1; i <= 4; i++ {
			v[i] = g.AddVertex()
		}
		g.AddEdge(v[1], v[2])
		g.AddEdge(v[2], v[3])
		g.AddEdge(v[3], v[1])
		clean(t, g, 2)
		g.AddEdge(v[4], v[1]) // probe walks the cycle as a super-node, no hit
		clean(t, g, 2)
	})

	t.Run("cross-SCC edge removal", func(t *testing.T) {
		g := New()
		var v [4]VertexID
		g.TrackSCC()
		for i := 1; i <= 3; i++ {
			v[i] = g.AddVertex()
		}
		g.AddEdge(v[1], v[2])
		g.AddEdge(v[2], v[3])
		clean(t, g, 3)
		g.RemoveEdge(v[1], v[2]) // no cycle through a cross-SCC edge: no-op
		clean(t, g, 3)
	})

	t.Run("parallel intra-SCC edge removal", func(t *testing.T) {
		g := New()
		var v [3]VertexID
		g.TrackSCC()
		v[1] = g.AddVertex()
		v[2] = g.AddVertex()
		g.AddEdge(v[1], v[2])
		g.AddEdge(v[1], v[2])
		g.AddEdge(v[2], v[1])
		clean(t, g, 1)
		g.RemoveEdge(v[1], v[2]) // a copy remains: reachability unchanged
		clean(t, g, 1)
	})

	t.Run("self-loop add and removal", func(t *testing.T) {
		g := New()
		var v [2]VertexID
		g.TrackSCC()
		v[1] = g.AddVertex()
		g.AddEdge(v[1], v[1])
		clean(t, g, 1)
		g.RemoveEdge(v[1], v[1])
		clean(t, g, 1)
	})

	t.Run("isolated vertex removal", func(t *testing.T) {
		g := New()
		var v [3]VertexID
		g.TrackSCC()
		v[1] = g.AddVertex()
		v[2] = g.AddVertex()
		clean(t, g, 2)
		g.RemoveVertex(v[2])
		clean(t, g, 1)
	})

	t.Run("interior singleton-SCC vertex removal", func(t *testing.T) {
		// The shape the WCC taxonomy goes stale on but the SCC
		// taxonomy handles exactly: a chain interior is its own SCC,
		// so removing it just drops the count by one.
		g := New()
		var v [4]VertexID
		g.TrackSCC()
		for i := 1; i <= 3; i++ {
			v[i] = g.AddVertex()
		}
		g.AddEdge(v[1], v[2])
		g.AddEdge(v[2], v[3])
		clean(t, g, 3)
		g.RemoveVertex(v[2])
		clean(t, g, 2)
	})

	t.Run("self-loop vertex removal", func(t *testing.T) {
		g := New()
		var v [3]VertexID
		g.TrackSCC()
		v[1] = g.AddVertex()
		v[2] = g.AddVertex()
		g.AddEdge(v[1], v[1])
		g.AddEdge(v[1], v[2])
		clean(t, g, 2)
		g.RemoveVertex(v[1]) // self-loop SCC still has size 1: exact
		clean(t, g, 1)
	})

	t.Run("intra-SCC edge delete the SCC survives", func(t *testing.T) {
		g := New()
		var v [4]VertexID
		g.TrackSCC()
		for i := 1; i <= 3; i++ {
			v[i] = g.AddVertex()
		}
		g.AddEdge(v[1], v[2])
		g.AddEdge(v[2], v[1])
		g.AddEdge(v[1], v[3])
		g.AddEdge(v[3], v[2])
		clean(t, g, 1)
		g.RemoveEdge(v[1], v[2]) // 1 still reaches 2 through 3: no-op
		clean(t, g, 1)
	})

	t.Run("intra-SCC edge removal re-splits locally", func(t *testing.T) {
		g := New()
		var v [3]VertexID
		g.TrackSCC()
		v[1] = g.AddVertex()
		v[2] = g.AddVertex()
		g.AddEdge(v[1], v[2])
		g.AddEdge(v[2], v[1])
		clean(t, g, 1)
		g.RemoveEdge(v[2], v[1]) // breaks the only cycle
		clean(t, g, 2)
	})

	t.Run("intra-SCC delete splits into sub-SCCs", func(t *testing.T) {
		// Two 2-cycles {1,2} and {3,4} joined into one SCC by 2→3 and
		// 4→1, beside an unrelated cycle {5,6}.
		g := New()
		var v [7]VertexID
		g.TrackSCC()
		for i := 1; i <= 6; i++ {
			v[i] = g.AddVertex()
		}
		for _, e := range [][2]int{{1, 2}, {2, 1}, {3, 4}, {4, 3}, {5, 6}, {6, 5}, {2, 3}} {
			g.AddEdge(v[e[0]], v[e[1]])
		}
		clean(t, g, 3)
		g.AddEdge(v[4], v[1]) // merges {1,2} and {3,4}
		clean(t, g, 2)
		g.RemoveEdge(v[4], v[1]) // and the re-split separates them again
		clean(t, g, 3)
		g.AddEdge(v[4], v[1])
		clean(t, g, 2)
	})

	t.Run("multi-member SCC vertex removal", func(t *testing.T) {
		g := New()
		var v [5]VertexID
		g.TrackSCC()
		for i := 1; i <= 4; i++ {
			v[i] = g.AddVertex()
		}
		g.AddEdge(v[1], v[2])
		g.AddEdge(v[2], v[3])
		g.AddEdge(v[3], v[1])
		g.AddEdge(v[3], v[4])
		g.AddEdge(v[4], v[3])
		clean(t, g, 1)
		g.RemoveVertex(v[2]) // shatters the 3-cycle; 3↔4 survives
		clean(t, g, 2)
		g.RemoveVertex(v[4])
		clean(t, g, 2)
	})

	t.Run("backward-complete probe, no merge", func(t *testing.T) {
		// v heads a 20-vertex chain; u has no predecessors, so the
		// backward side completes at once. An allowance of 8 entries
		// would not let the forward side finish.
		g := New()
		var v [30]VertexID
		g.TrackSCC()
		v[1] = g.AddVertex()
		for i := 10; i < 30; i++ {
			v[i] = g.AddVertex()
			if i > 10 {
				g.AddEdge(v[i-1], v[i])
			}
		}
		clean(t, g, 21)
		g.setAllowance(8)
		g.AddEdge(v[1], v[10])
		clean(t, g, 21)
	})

	t.Run("backward-complete probe with a merge", func(t *testing.T) {
		// v = 10 reaches u = 1 through 11, and also heads a 20-vertex
		// chain that the forward side would have to exhaust; u's only
		// predecessor is 11.
		g := New()
		var v [40]VertexID
		g.TrackSCC()
		v[1] = g.AddVertex()
		v[10] = g.AddVertex()
		v[11] = g.AddVertex()
		g.AddEdge(v[10], v[11])
		g.AddEdge(v[11], v[1])
		for i := 20; i < 40; i++ {
			v[i] = g.AddVertex()
			if i == 20 {
				g.AddEdge(v[10], v[20])
			} else {
				g.AddEdge(v[i-1], v[i])
			}
		}
		clean(t, g, 23)
		g.setAllowance(10)
		g.AddEdge(v[1], v[10]) // closes 1→10→11→1
		clean(t, g, 21)
	})

	t.Run("over-allowance cut goes conservative", func(t *testing.T) {
		g := New()
		var v [16]VertexID
		g.TrackSCC()
		const n = 16
		for i := 0; i < n; i++ {
			v[i] = g.AddVertex()
		}
		for i := 0; i < n; i++ {
			g.AddEdge(v[i], v[(i+1)%n])
		}
		if g.StronglyConnectedComponentCount() != 1 {
			t.Fatal("setup")
		}
		g.setAllowance(2)
		g.RemoveEdge(v[7], v[8]) // the u⇝v check needs far more than 2 entries
		if !g.scc.stale {
			t.Fatal("an over-allowance cut search did not make the tracker stale")
		}
		if got := g.StronglyConnectedComponentCount(); got != n {
			t.Fatalf("count after rebuild = %d, want %d", got, n)
		}
		sccOracleCheck(t, g)
	})
}

// TestSCCRebuildTrimsDegreeZero pins the rebuild's trim on a
// hand-built graph: a vertex with no in-edges or no out-edges lies on
// no cycle, so the rebuild makes it a singleton SCC and leaves it out
// of the CSR and Tarjan, along with every edge into it. The graph has
// a source-only vertex feeding a 2-cycle (1→3, 3⇄4), a sink-only
// vertex (4→2, 7→2), an isolated vertex (6), a source-only vertex
// feeding only a sink (7), a vertex with only a self-loop (5), and a
// chain feeding the cycle (9→8→3), whose middle vertex has edges both
// ways and so stays in Tarjan as a singleton. Counts are checked
// against the Tarjan walk after the first build and after mutations
// that pull trimmed vertices into a cycle and out again. Each subtest
// caps the search allowance at its threshold, the number of adjacency
// entries a search may scan before it gives up and leaves the tracker
// stale: at 1 the merge probe overruns and the next query rebuilds, at
// 1<<30 every mutation is maintained in place, and 64 lies between.
func TestSCCRebuildTrimsDegreeZero(t *testing.T) {
	for _, th := range []int{1, 64, 1 << 30} {
		t.Run("threshold="+strconv.Itoa(th), func(t *testing.T) {
			g := New()
			g.TrackSCC()
			g.setAllowance(th)
			var v [10]VertexID
			for i := 1; i <= 9; i++ {
				v[i] = g.AddVertex()
			}
			for _, e := range [][2]int{{1, 3}, {3, 4}, {4, 3}, {4, 2}, {7, 2}, {5, 5}, {9, 8}, {8, 3}} {
				g.AddEdge(v[e[0]], v[e[1]])
			}
			sccOracleCheck(t, g)
			if got := g.StronglyConnectedComponentCount(); got != 8 {
				t.Fatalf("count = %d, want 8: {3,4} and seven singletons", got)
			}
			// The rebuild leaves its member list in the search scratch:
			// only 3, 4, 5 and 8 have edges both ways.
			var members []int
			for _, s := range g.srch.qa {
				members = append(members, slices.Index(v[:], handle(s, g.gen[s])))
			}
			slices.Sort(members)
			if want := []int{3, 4, 5, 8}; !slices.Equal(members, want) {
				t.Fatalf("rebuild ran Tarjan over %v, want %v", members, want)
			}
			tr := g.scc
			for _, i := range []int{1, 2, 6, 7, 9} {
				if r := tr.find(tr.node[g.slotOf(v[i])]); tr.size[r] != 1 {
					t.Fatalf("trimmed vertex %d shares a union-find class of size %d", i, tr.size[r])
				}
			}
			// Close a cycle through the sink and the source (2→1 makes
			// 1→3→4→2→1), then open it again and rebuild from scratch.
			// The merge probe scans more than one entry, so only the
			// lowest threshold sends it to a rebuild; at the highest
			// every mutation is maintained in place.
			g.AddEdge(v[2], v[1])
			if g.scc.stale != (th == 1) {
				t.Fatalf("after the merge probe stale = %v", g.scc.stale)
			}
			sccOracleCheck(t, g)
			for _, step := range []func(){
				func() { g.AddEdge(v[2], v[7]) },
				func() { g.RemoveEdge(v[4], v[2]) },
				func() { g.RemoveVertex(v[3]) },
			} {
				step()
				if th == 1<<30 && g.scc.stale {
					t.Fatal("a mutation within an unbounded allowance made the tracker stale")
				}
				sccOracleCheck(t, g)
			}
			g.rebuildSCC()
			sccOracleCheck(t, g)
		})
	}
}

// TestIncrementalSCCProbeBudgetBailout forces a probe past its budget:
// the tracker must go stale (not walk unboundedly, not miss the merge)
// and the next query must recover exactness via rebuild.
func TestIncrementalSCCProbeBudgetBailout(t *testing.T) {
	g := New()
	var v [32]VertexID
	g.TrackSCC()
	g.setAllowance(3)
	const n = 32
	for i := 0; i < n; i++ {
		v[i] = g.AddVertex()
		if i > 0 {
			g.AddEdge(v[i-1], v[i])
		}
	}
	if g.StronglyConnectedComponentCount() != n {
		t.Fatal("setup")
	}
	g.AddEdge(v[n-1], v[0]) // probe must traverse 31 hops; budget is 3
	if !g.scc.stale {
		t.Fatal("over-budget probe did not make the tracker stale")
	}
	if got := g.StronglyConnectedComponentCount(); got != 1 {
		t.Fatalf("count after rebuild = %d, want 1", got)
	}
	sccOracleCheck(t, g)
}

// TestIncrementalSCCSlotReuse recycles vertex slots through the
// freelist while the tracker is live: a reused slot must come back as
// a fresh singleton SCC, not inherit the dead vertex's component.
func TestIncrementalSCCSlotReuse(t *testing.T) {
	g := New()
	var v [12]VertexID
	g.TrackSCC()
	const n = 12
	for i := 0; i < n; i++ {
		v[i] = g.AddVertex()
		g.AddEdge(v[i], v[(i+1)%n]) // targets may not exist yet
	}
	for i := 0; i < n; i++ {
		g.AddEdge(v[i], v[(i+1)%n]) // now they all do
	}
	sccOracleCheck(t, g)
	for round := 0; round < 20; round++ {
		victim := round % n
		g.RemoveVertex(v[victim])
		sccOracleCheck(t, g)
		fresh := g.AddVertex()
		sccOracleCheck(t, g) // fresh vertex must be its own SCC
		v[victim] = g.AddVertex()
		g.AddEdge(v[victim], fresh)
		g.AddEdge(fresh, v[victim])
		sccOracleCheck(t, g)
		g.RemoveVertex(fresh)
		sccOracleCheck(t, g)
	}
}

// TestIncrementalSCCSwitchModes turns the tracker on over a graph
// that mutated untracked, and replaces a live tracker: both must
// rebuild from the live adjacency rather than trust stale state.
func TestIncrementalSCCSwitchModes(t *testing.T) {
	g := New()
	var v [8]VertexID
	for i := 0; i < 8; i++ {
		v[i] = g.AddVertex()
		if i > 0 {
			g.AddEdge(v[i-1], v[i])
		}
	}
	g.AddEdge(v[7], v[0])
	g.RemoveVertex(v[3]) // mutate while untracked
	if g.scc != nil {
		t.Fatal("tracker on before anything asked for it")
	}
	sccOracleCheck(t, g) // the first query turns the tracker on
	g.AddEdge(v[2], v[1])
	g.TrackSCC()
	sccOracleCheck(t, g)
	g.RemoveEdge(v[1], v[2])
	sccOracleCheck(t, g)
}

// TestIncrementalSCCAllocs is the steady-state allocation gate: once
// the scratch arrays have hit their high-water marks, churn — probe
// completions, probe-driven unions, cut searches, local re-splits after
// edge and vertex removals, singleton removals, and the stale→query
// rebuild every round forces — must reuse capacity. Wired into CI
// without -race (race instrumentation allocates).
func TestIncrementalSCCAllocs(t *testing.T) {
	g := New()
	g.TrackSCC()
	const chain = 256
	v := addVertices(g, chain)
	for i := 1; i < chain; i++ {
		g.AddEdge(v[i-1], v[i])
	}
	var pendants [16]VertexID
	g.StronglyConnectedComponentCount()

	round := func() {
		// Stale churn: a probe out of allowance makes the tracker
		// stale, the edge's removal is ignored, and the query
		// rebuilds.
		g.setAllowance(1)
		g.AddEdge(v[chain-1], v[0])
		g.setAllowance(0)
		g.RemoveEdge(v[chain-1], v[0])
		g.StronglyConnectedComponentCount()
		// Cycle churn: closing the tail cycle exercises the probe's
		// merge path; breaking it is an intra-SCC removal whose cut
		// search fails and whose SCC is re-split locally.
		for k := 0; k < 16; k++ {
			g.AddEdge(v[chain-1], v[chain-6])
			g.RemoveEdge(v[chain-1], v[chain-6])
			g.StronglyConnectedComponentCount()
		}
		// Vertex re-split churn: a vertex closing a 4-cycle on the
		// chain, removed again.
		for k := 0; k < 8; k++ {
			w := g.AddVertex()
			g.AddEdge(v[chain-30], w)
			g.AddEdge(w, v[chain-32])
			g.RemoveVertex(w)
			g.StronglyConnectedComponentCount()
		}
		// Vertex churn: pendants on distinct hosts (so the inline
		// adjacency never spills), removed as singleton SCCs — the
		// exact delete path plus freelist slot reuse.
		for k := range pendants {
			pendants[k] = g.AddVertex()
			g.AddEdge(v[k*8%200], pendants[k])
		}
		for k := 15; k >= 0; k-- {
			g.RemoveVertex(pendants[k])
		}
		g.StronglyConnectedComponentCount()
	}
	for i := 0; i < 64; i++ {
		round()
	}
	const runs = 50 // AllocsPerRun adds one warm-up round
	before := g.scc.rebuilds
	if avg := testing.AllocsPerRun(runs, round); avg != 0 {
		t.Fatalf("steady-state churn allocates: %.1f allocs/round, want 0", avg)
	}
	if n := g.scc.rebuilds - before; n != runs+1 {
		t.Fatalf("%d rebuilds over %d rounds; each round rebuilds once, at its stale query", n, runs+1)
	}
}

// FuzzIncrementalSCC feeds arbitrary byte programs to the tracker as
// mutation sequences and diffs the maintained count against the
// Tarjan oracle and the graph against a reference multigraph, at two
// search allowances (the default, and 2 entries: nearly every search
// bails and the tracker goes stale). Two bytes encode one operation:
// an opcode and two 4-bit vertex operands.
func FuzzIncrementalSCC(f *testing.F) {
	f.Add([]byte{0x00, 0x01, 0x00, 0x02, 0x02, 0x12, 0x02, 0x21})
	f.Add([]byte{0x00, 0x01, 0x01, 0x11, 0x03, 0x11, 0x04, 0x01})
	seed := make([]byte, 128)
	rng := rand.New(rand.NewSource(7))
	rng.Read(seed)
	f.Add(seed)
	// Stale handles: vertex 1 is removed and vertex 3 reuses its slot,
	// then edges to, from and on the old handle must fail, and removing
	// it again must leave vertex 3 alone.
	f.Add([]byte{
		0x00, 0x10, 0x00, 0x20, 0x01, 0x12, 0x01, 0x21, 0x03, 0x10,
		0x00, 0x30, 0x01, 0x13, 0x01, 0x31, 0x01, 0x21, 0x04, 0x10,
		0x02, 0x12, 0x03, 0x10, 0x01, 0x32, 0x01, 0x23,
	})
	f.Fuzz(func(t *testing.T, data []byte) {
		for _, budget := range []int{2, 0} {
			g := New()
			g.TrackSCC()
			g.setAllowance(budget)
			p := newProgram(t, g)
			for i := 0; i+1 < len(data); i += 2 {
				u, v := int(data[i+1]>>4), int(data[i+1]&0x0f)
				switch data[i] % 5 {
				case 0:
					p.addVertex(u)
				case 1:
					p.addEdge(u, v)
				case 2:
					p.removeEdge(u, v)
				case 3:
					p.removeVertex(u)
				case 4:
					p.addEdge(u, u)
				}
				if i%8 == 0 {
					p.check()
				}
			}
			p.check()
		}
	})
}
