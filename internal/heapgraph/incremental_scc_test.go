package heapgraph

import (
	"math/rand"
	"slices"
	"strings"
	"testing"
)

// sccOracleCheck asserts the incremental SCC count matches a
// from-scratch Tarjan walk and that graph invariants hold.
func sccOracleCheck(t *testing.T, g *Graph) {
	t.Helper()
	got := g.StronglyConnectedComponentCount()
	want := g.StronglyConnectedComponents().Count
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
	for step := 0; step < steps; step++ {
		u := VertexID(rng.Intn(idSpace))
		v := VertexID(rng.Intn(idSpace))
		switch rng.Intn(10) {
		case 0, 1:
			g.AddVertex(u)
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
// against the incremental tracker at several rebuild thresholds (1 =
// rebuild on every dirtying mutation, 1<<30 = only lazy query
// rebuilds) and search allowances (budget=2: nearly every probe, cut
// search and re-split bails out, forcing the dirty path; budget=128:
// searches mostly complete), checking the count against the Tarjan walk
// after every few operations.
func TestIncrementalSCCMatchesSnapshotRandom(t *testing.T) {
	for _, th := range []int{1, 4, DefaultRebuildThreshold, 1 << 30} {
		for _, budget := range []int{2, 128} {
			th, budget := th, budget
			t.Run("threshold="+itoa(uint64(th))+"/budget="+itoa(uint64(budget)), func(t *testing.T) {
				rng := rand.New(rand.NewSource(int64(th)*7919 + int64(budget)*13 + 29))
				g := New()
				g.TrackSCC(th)
				g.setAllowance(budget)
				sccRandomMix(t, g, rng, 4000, 48)
			})
		}
	}
}

// TestIncrementalSCCWithWCCRandom runs both incremental trackers at
// once — the configuration the extended suite uses when every metric
// point is O(churn) — and oracle-checks both counts.
func TestIncrementalSCCWithWCCRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(4242))
	g := New()
	g.TrackConnectivity(4)
	g.TrackSCC(4)
	for step := 0; step < 3000; step++ {
		u := VertexID(rng.Intn(40))
		v := VertexID(rng.Intn(40))
		switch rng.Intn(9) {
		case 0, 1:
			g.AddVertex(u)
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
	g.TrackSCC(2)
	verify := func(step int) {
		if msg := g.CheckComponents(); msg != "" {
			t.Fatalf("step %d: %s", step, msg)
		}
	}
	for step := 0; step < 2000; step++ {
		u := VertexID(rng.Intn(32))
		v := VertexID(rng.Intn(32))
		switch rng.Intn(8) {
		case 0:
			g.AddVertex(u)
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
	g.TrackSCC(0)
	g.AddVertex(1)
	g.AddVertex(2)
	g.AddEdge(1, 2)
	if msg := g.CheckComponents(); msg != "" {
		t.Fatalf("clean tracker reported: %s", msg)
	}
	g.scc.count += 3 // inject divergence
	if msg := g.CheckComponents(); !strings.Contains(msg, "strong components: incremental=5 reference=2") {
		t.Fatalf("CheckComponents = %q, want the strong divergence", msg)
	}
}

// TestIncrementalSCCExactShapes pins the mutation shapes the tracker
// claims to handle exactly: after each, the tracker must still be
// clean (no dirty rebuild pending) and correct. The shapes differ
// from the WCC tracker's — any singleton-SCC vertex removal is exact
// here, and intra-SCC deletes re-split the one SCC they touch.
func TestIncrementalSCCExactShapes(t *testing.T) {
	clean := func(t *testing.T, g *Graph, wantCount int) {
		t.Helper()
		if got := g.StronglyConnectedComponentCount(); got != wantCount {
			t.Fatalf("count = %d, want %d", got, wantCount)
		}
		if g.scc.dirty != 0 {
			t.Fatalf("tracker dirty = %d after an exact shape", g.scc.dirty)
		}
		sccOracleCheck(t, g)
	}

	t.Run("edge into fresh target", func(t *testing.T) {
		g := New()
		g.TrackSCC(0)
		g.AddVertex(1)
		g.AddVertex(2)
		clean(t, g, 2)
		g.AddEdge(1, 2) // 2 has no out-edges: probe finds no path back
		clean(t, g, 2)
	})

	t.Run("two-cycle closure", func(t *testing.T) {
		g := New()
		g.TrackSCC(0)
		g.AddVertex(1)
		g.AddVertex(2)
		g.AddEdge(1, 2)
		clean(t, g, 2)
		g.AddEdge(2, 1) // closes the cycle: exact merge
		clean(t, g, 1)
	})

	t.Run("long-cycle closure", func(t *testing.T) {
		g := New()
		g.TrackSCC(0)
		for i := 1; i <= 6; i++ {
			g.AddVertex(VertexID(i))
			if i > 1 {
				g.AddEdge(VertexID(i-1), VertexID(i))
			}
		}
		clean(t, g, 6)
		g.AddEdge(6, 1) // every chain vertex joins one SCC
		clean(t, g, 1)
	})

	t.Run("multi-path merge", func(t *testing.T) {
		// Two disjoint v⇝u paths: closing u→v must merge the SCCs on
		// BOTH paths, which a naive single-path union would miss.
		g := New()
		g.TrackSCC(0)
		for i := 1; i <= 4; i++ {
			g.AddVertex(VertexID(i))
		}
		// u = 1, v = 2; paths 2→3→1 and 2→4→1.
		g.AddEdge(2, 3)
		g.AddEdge(3, 1)
		g.AddEdge(2, 4)
		g.AddEdge(4, 1)
		clean(t, g, 4)
		g.AddEdge(1, 2)
		clean(t, g, 1)
	})

	t.Run("intra-SCC edge add", func(t *testing.T) {
		g := New()
		g.TrackSCC(0)
		g.AddVertex(1)
		g.AddVertex(2)
		g.AddEdge(1, 2)
		g.AddEdge(2, 1)
		clean(t, g, 1)
		g.AddEdge(1, 2) // endpoints already strongly connected: no-op
		clean(t, g, 1)
	})

	t.Run("edge into existing SCC", func(t *testing.T) {
		// A fresh vertex pointing INTO a cycle reaches it but is not
		// reached back: exact no-merge.
		g := New()
		g.TrackSCC(0)
		for i := 1; i <= 4; i++ {
			g.AddVertex(VertexID(i))
		}
		g.AddEdge(1, 2)
		g.AddEdge(2, 3)
		g.AddEdge(3, 1)
		clean(t, g, 2)
		g.AddEdge(4, 1) // probe walks the cycle as a super-node, no hit
		clean(t, g, 2)
	})

	t.Run("cross-SCC edge removal", func(t *testing.T) {
		g := New()
		g.TrackSCC(0)
		for i := 1; i <= 3; i++ {
			g.AddVertex(VertexID(i))
		}
		g.AddEdge(1, 2)
		g.AddEdge(2, 3)
		clean(t, g, 3)
		g.RemoveEdge(1, 2) // no cycle through a cross-SCC edge: no-op
		clean(t, g, 3)
	})

	t.Run("parallel intra-SCC edge removal", func(t *testing.T) {
		g := New()
		g.TrackSCC(0)
		g.AddVertex(1)
		g.AddVertex(2)
		g.AddEdge(1, 2)
		g.AddEdge(1, 2)
		g.AddEdge(2, 1)
		clean(t, g, 1)
		g.RemoveEdge(1, 2) // a copy remains: reachability unchanged
		clean(t, g, 1)
	})

	t.Run("self-loop add and removal", func(t *testing.T) {
		g := New()
		g.TrackSCC(0)
		g.AddVertex(1)
		g.AddEdge(1, 1)
		clean(t, g, 1)
		g.RemoveEdge(1, 1)
		clean(t, g, 1)
	})

	t.Run("isolated vertex removal", func(t *testing.T) {
		g := New()
		g.TrackSCC(0)
		g.AddVertex(1)
		g.AddVertex(2)
		clean(t, g, 2)
		g.RemoveVertex(2)
		clean(t, g, 1)
	})

	t.Run("interior singleton-SCC vertex removal", func(t *testing.T) {
		// The shape the WCC taxonomy must dirty on but the SCC
		// taxonomy handles exactly: a chain interior is its own SCC,
		// so removing it just drops the count by one.
		g := New()
		g.TrackSCC(1 << 30)
		for i := 1; i <= 3; i++ {
			g.AddVertex(VertexID(i))
		}
		g.AddEdge(1, 2)
		g.AddEdge(2, 3)
		clean(t, g, 3)
		g.RemoveVertex(2)
		clean(t, g, 2)
	})

	t.Run("self-loop vertex removal", func(t *testing.T) {
		g := New()
		g.TrackSCC(0)
		g.AddVertex(1)
		g.AddVertex(2)
		g.AddEdge(1, 1)
		g.AddEdge(1, 2)
		clean(t, g, 2)
		g.RemoveVertex(1) // self-loop SCC still has size 1: exact
		clean(t, g, 1)
	})

	t.Run("intra-SCC edge delete the SCC survives", func(t *testing.T) {
		g := New()
		g.TrackSCC(0)
		for i := 1; i <= 3; i++ {
			g.AddVertex(VertexID(i))
		}
		g.AddEdge(1, 2)
		g.AddEdge(2, 1)
		g.AddEdge(1, 3)
		g.AddEdge(3, 2)
		clean(t, g, 1)
		g.RemoveEdge(1, 2) // 1 still reaches 2 through 3: no-op
		clean(t, g, 1)
	})

	t.Run("intra-SCC edge removal re-splits locally", func(t *testing.T) {
		g := New()
		g.TrackSCC(1 << 30)
		g.AddVertex(1)
		g.AddVertex(2)
		g.AddEdge(1, 2)
		g.AddEdge(2, 1)
		clean(t, g, 1)
		g.RemoveEdge(2, 1) // breaks the only cycle
		clean(t, g, 2)
	})

	t.Run("intra-SCC delete splits into sub-SCCs", func(t *testing.T) {
		// Two 2-cycles {1,2} and {3,4} joined into one SCC by 2→3 and
		// 4→1, beside an unrelated cycle {5,6}.
		g := New()
		g.TrackSCC(1 << 30)
		for i := 1; i <= 6; i++ {
			g.AddVertex(VertexID(i))
		}
		for _, e := range [][2]VertexID{{1, 2}, {2, 1}, {3, 4}, {4, 3}, {5, 6}, {6, 5}, {2, 3}} {
			g.AddEdge(e[0], e[1])
		}
		clean(t, g, 3)
		g.AddEdge(4, 1) // merges {1,2} and {3,4}
		clean(t, g, 2)
		g.RemoveEdge(4, 1) // and the re-split separates them again
		clean(t, g, 3)
		g.AddEdge(4, 1)
		clean(t, g, 2)
	})

	t.Run("multi-member SCC vertex removal", func(t *testing.T) {
		g := New()
		g.TrackSCC(1 << 30)
		for i := 1; i <= 4; i++ {
			g.AddVertex(VertexID(i))
		}
		g.AddEdge(1, 2)
		g.AddEdge(2, 3)
		g.AddEdge(3, 1)
		g.AddEdge(3, 4)
		g.AddEdge(4, 3)
		clean(t, g, 1)
		g.RemoveVertex(2) // shatters the 3-cycle; 3↔4 survives
		clean(t, g, 2)
		g.RemoveVertex(4)
		clean(t, g, 2)
	})

	t.Run("backward-complete probe, no merge", func(t *testing.T) {
		// v heads a 20-vertex chain; u has no predecessors, so the
		// backward side completes at once. An allowance of 8 entries
		// would not let the forward side finish.
		g := New()
		g.TrackSCC(1 << 30)
		g.AddVertex(1)
		for i := 10; i < 30; i++ {
			g.AddVertex(VertexID(i))
			if i > 10 {
				g.AddEdge(VertexID(i-1), VertexID(i))
			}
		}
		clean(t, g, 21)
		g.setAllowance(8)
		g.AddEdge(1, 10)
		clean(t, g, 21)
	})

	t.Run("backward-complete probe with a merge", func(t *testing.T) {
		// v = 10 reaches u = 1 through 11, and also heads a 20-vertex
		// chain that the forward side would have to exhaust; u's only
		// predecessor is 11.
		g := New()
		g.TrackSCC(1 << 30)
		g.AddVertex(1)
		g.AddVertex(10)
		g.AddVertex(11)
		g.AddEdge(10, 11)
		g.AddEdge(11, 1)
		for i := 20; i < 40; i++ {
			g.AddVertex(VertexID(i))
			if i == 20 {
				g.AddEdge(10, 20)
			} else {
				g.AddEdge(VertexID(i-1), VertexID(i))
			}
		}
		clean(t, g, 23)
		g.setAllowance(10)
		g.AddEdge(1, 10) // closes 1→10→11→1
		clean(t, g, 21)
	})

	t.Run("over-allowance cut goes conservative", func(t *testing.T) {
		g := New()
		g.TrackSCC(1 << 30)
		const n = 16
		for i := 0; i < n; i++ {
			g.AddVertex(VertexID(i))
		}
		for i := 0; i < n; i++ {
			g.AddEdge(VertexID(i), VertexID((i+1)%n))
		}
		if g.StronglyConnectedComponentCount() != 1 {
			t.Fatal("setup")
		}
		g.setAllowance(2)
		g.RemoveEdge(7, 8) // the u⇝v check needs far more than 2 entries
		if g.scc.dirty == 0 {
			t.Fatal("an over-allowance cut search did not mark the tracker dirty")
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
// against the Tarjan walk at rebuild thresholds 1, default and 2^30,
// after the first build and after mutations that pull trimmed
// vertices into a cycle and out again.
func TestSCCRebuildTrimsDegreeZero(t *testing.T) {
	for _, th := range []int{1, DefaultRebuildThreshold, 1 << 30} {
		t.Run("threshold="+itoa(uint64(th)), func(t *testing.T) {
			g := New()
			g.TrackSCC(th)
			for v := VertexID(1); v <= 9; v++ {
				g.AddVertex(v)
			}
			for _, e := range [][2]VertexID{{1, 3}, {3, 4}, {4, 3}, {4, 2}, {7, 2}, {5, 5}, {9, 8}, {8, 3}} {
				g.AddEdge(e[0], e[1])
			}
			sccOracleCheck(t, g)
			if got := g.StronglyConnectedComponentCount(); got != 8 {
				t.Fatalf("count = %d, want 8: {3,4} and seven singletons", got)
			}
			// The rebuild leaves its member list in the search scratch:
			// only 3, 4, 5 and 8 have edges both ways.
			var members []VertexID
			for _, s := range g.srch.qa {
				members = append(members, g.ids[s])
			}
			slices.Sort(members)
			if want := []VertexID{3, 4, 5, 8}; !slices.Equal(members, want) {
				t.Fatalf("rebuild ran Tarjan over %v, want %v", members, want)
			}
			tr := g.scc
			for _, v := range []VertexID{1, 2, 6, 7, 9} {
				if r := tr.find(tr.node[g.slotOf(v)]); tr.size[r] != 1 {
					t.Fatalf("trimmed vertex %d shares a union-find class of size %d", v, tr.size[r])
				}
			}
			// Close a cycle through the sink and the source (2→1 makes
			// 1→3→4→2→1), then open it again and rebuild from scratch.
			g.AddEdge(2, 1)
			sccOracleCheck(t, g)
			g.AddEdge(2, 7)
			sccOracleCheck(t, g)
			g.RemoveEdge(4, 2)
			sccOracleCheck(t, g)
			g.RemoveVertex(3)
			sccOracleCheck(t, g)
			g.rebuildSCC()
			sccOracleCheck(t, g)
		})
	}
}

// TestIncrementalSCCProbeBudgetBailout forces a probe past its budget:
// the tracker must dirty (not walk unboundedly, not miss the merge)
// and the next query must recover exactness via rebuild.
func TestIncrementalSCCProbeBudgetBailout(t *testing.T) {
	g := New()
	g.TrackSCC(1 << 30)
	g.setAllowance(3)
	const n = 32
	for i := 0; i < n; i++ {
		g.AddVertex(VertexID(i))
		if i > 0 {
			g.AddEdge(VertexID(i-1), VertexID(i))
		}
	}
	if g.StronglyConnectedComponentCount() != n {
		t.Fatal("setup")
	}
	g.AddEdge(n-1, 0) // probe must traverse 31 hops; budget is 3
	if g.scc.dirty == 0 {
		t.Fatal("over-budget probe did not mark the tracker dirty")
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
	g.TrackSCC(1 << 30)
	const n = 12
	for i := 0; i < n; i++ {
		g.AddVertex(VertexID(i))
		g.AddEdge(VertexID(i), VertexID((i+1)%n)) // targets may not exist yet
	}
	for i := 0; i < n; i++ {
		g.AddEdge(VertexID(i), VertexID((i+1)%n)) // now they all do
	}
	sccOracleCheck(t, g)
	for round := 0; round < 20; round++ {
		victim := VertexID(round % n)
		g.RemoveVertex(victim)
		sccOracleCheck(t, g)
		fresh := VertexID(1000 + round)
		g.AddVertex(fresh)
		sccOracleCheck(t, g) // fresh vertex must be its own SCC
		g.AddVertex(victim)
		g.AddEdge(victim, fresh)
		g.AddEdge(fresh, victim)
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
	for i := 0; i < 8; i++ {
		g.AddVertex(VertexID(i))
		if i > 0 {
			g.AddEdge(VertexID(i-1), VertexID(i))
		}
	}
	g.AddEdge(7, 0)
	g.RemoveVertex(3) // mutate while untracked
	if g.scc != nil {
		t.Fatal("tracker on before anything asked for it")
	}
	sccOracleCheck(t, g) // the first query turns the tracker on
	g.AddEdge(2, 1)
	g.TrackSCC(0)
	sccOracleCheck(t, g)
	g.RemoveEdge(1, 2)
	sccOracleCheck(t, g)
}

// TestIncrementalSCCAllocs is the steady-state allocation gate: once
// the scratch arrays have hit their high-water marks, churn — probe
// completions, probe-driven unions, cut searches, local re-splits after
// edge and vertex removals, singleton removals and the rebuilds they
// may force — must reuse capacity. Wired into CI without -race (race
// instrumentation allocates).
func TestIncrementalSCCAllocs(t *testing.T) {
	g := New()
	g.TrackSCC(8)
	const chain = 256
	for i := 0; i < chain; i++ {
		g.AddVertex(VertexID(i))
		if i > 0 {
			g.AddEdge(VertexID(i-1), VertexID(i))
		}
	}
	g.StronglyConnectedComponentCount()

	round := func() {
		// Cycle churn: closing the tail cycle exercises the probe's
		// merge path; breaking it is an intra-SCC removal whose cut
		// search fails and whose SCC is re-split locally.
		for k := 0; k < 16; k++ {
			g.AddEdge(chain-1, chain-6)
			g.RemoveEdge(chain-1, chain-6)
			g.StronglyConnectedComponentCount()
		}
		// Vertex re-split churn: a vertex closing a 4-cycle on the
		// chain, removed again.
		for k := 0; k < 8; k++ {
			g.AddVertex(2000)
			g.AddEdge(chain-30, 2000)
			g.AddEdge(2000, chain-32)
			g.RemoveVertex(2000)
			g.StronglyConnectedComponentCount()
		}
		// Vertex churn: pendants on distinct hosts (so the inline
		// adjacency never spills), removed as singleton SCCs — the
		// exact delete path plus freelist slot reuse.
		for k := 0; k < 16; k++ {
			id := VertexID(1000 + k)
			g.AddVertex(id)
			g.AddEdge(VertexID(k*8%200), id)
		}
		for k := 15; k >= 0; k-- {
			g.RemoveVertex(VertexID(1000 + k))
		}
		g.StronglyConnectedComponentCount()
	}
	for i := 0; i < 64; i++ {
		round()
	}
	if avg := testing.AllocsPerRun(50, round); avg != 0 {
		t.Fatalf("steady-state churn allocates: %.1f allocs/round, want 0", avg)
	}
}

// FuzzIncrementalSCC feeds arbitrary byte programs to the tracker as
// mutation sequences and diffs the maintained count against the
// Tarjan oracle, across the rebuild thresholds and two search
// allowances (the default, and 2 entries: nearly every search bails).
// Two bytes encode one operation: an opcode and two 4-bit vertex
// operands.
func FuzzIncrementalSCC(f *testing.F) {
	f.Add([]byte{0x00, 0x01, 0x00, 0x02, 0x02, 0x12, 0x02, 0x21})
	f.Add([]byte{0x00, 0x01, 0x01, 0x11, 0x03, 0x11, 0x04, 0x01})
	seed := make([]byte, 128)
	rng := rand.New(rand.NewSource(7))
	rng.Read(seed)
	f.Add(seed)
	f.Fuzz(func(t *testing.T, data []byte) {
		for _, th := range []int{1, 4, DefaultRebuildThreshold, 1 << 30} {
			for _, budget := range []int{2, 0} {
				g := New()
				g.TrackSCC(th)
				g.setAllowance(budget)
				for i := 0; i+1 < len(data); i += 2 {
					u := VertexID(data[i+1] >> 4)
					v := VertexID(data[i+1] & 0x0f)
					switch data[i] % 5 {
					case 0:
						g.AddVertex(u)
					case 1:
						g.AddEdge(u, v)
					case 2:
						g.RemoveEdge(u, v)
					case 3:
						g.RemoveVertex(u)
					case 4:
						g.AddEdge(u, u)
					}
					if i%8 == 0 {
						sccOracleCheck(t, g)
					}
				}
				sccOracleCheck(t, g)
			}
		}
	})
}
