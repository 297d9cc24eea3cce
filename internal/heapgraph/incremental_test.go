package heapgraph

import (
	"math/rand"
	"strconv"
	"strings"
	"testing"
)

// oracleCheck asserts the incremental count matches a from-scratch
// component walk and that graph invariants hold.
func oracleCheck(t *testing.T, g *Graph) {
	t.Helper()
	got := g.ConnectedComponentCount()
	want := g.WeaklyConnectedComponents()
	if got != want {
		t.Fatalf("ConnectedComponentCount = %d, oracle = %d (V=%d E=%d)",
			got, want, g.NumVertices(), g.NumEdges())
	}
	if msg := g.CheckInvariants(); msg != "" {
		t.Fatalf("invariants violated: %s", msg)
	}
}

// TestIncrementalWCCMatchesSnapshotRandom drives a delete-heavy random
// mutation mix against the incremental tracker at two search
// allowances (budget=2: nearly every cut search bails out and the
// tracker goes stale; budget=128: searches mostly complete) and checks
// the count against the reference walk after every few operations.
func TestIncrementalWCCMatchesSnapshotRandom(t *testing.T) {
	for _, budget := range []int{2, 128} {
		t.Run("budget="+strconv.Itoa(budget), func(t *testing.T) {
			rng := rand.New(rand.NewSource(int64(budget)*13 + 17))
			g := New()
			g.TrackConnectivity()
			g.setAllowance(budget)
			const idSpace = 48
			n := make(names, idSpace)
			for step := 0; step < 4000; step++ {
				ui := rng.Intn(idSpace)
				u, v := n[ui], n[rng.Intn(idSpace)]
				// Delete-heavy: the exact-maintenance paths are the add
				// hooks; the delete classification is what needs soak.
				switch rng.Intn(10) {
				case 0, 1:
					n.add(g, ui)
				case 2, 3, 4:
					g.AddEdge(u, v)
				case 5, 6:
					g.RemoveEdge(u, v)
				case 7, 8:
					g.RemoveVertex(u)
				case 9:
					g.AddEdge(u, u) // self-loop: must not disturb the tracker
				}
				if step%3 == 0 {
					oracleCheck(t, g)
				}
			}
			oracleCheck(t, g)
		})
	}
}

// TestIncrementalWCCVerifyMode runs the same mutation mix with the
// CheckComponents oracle (the tracker against the reference walk) at
// every query point.
func TestIncrementalWCCVerifyMode(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	g := New()
	g.TrackConnectivity()
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

// TestCheckComponentsReportsWCCDivergence corrupts the tracker's count
// in-package and checks the oracle actually trips.
func TestCheckComponentsReportsWCCDivergence(t *testing.T) {
	g := New()
	var v [3]VertexID
	g.TrackConnectivity()
	v[1] = g.AddVertex()
	v[2] = g.AddVertex()
	g.AddEdge(v[1], v[2])
	if msg := g.CheckComponents(); msg != "" {
		t.Fatalf("clean tracker reported: %s", msg)
	}
	g.wcc.count += 3 // inject divergence
	if msg := g.CheckComponents(); !strings.Contains(msg, "weak components: incremental=4 reference=1") {
		t.Fatalf("CheckComponents = %q, want the weak divergence", msg)
	}
}

// TestIncrementalWCCExactShapes pins the delete shapes the tracker
// claims to handle exactly: after each, the tracker must still be
// exact (not stale, so no rebuild pending) and correct.
func TestIncrementalWCCExactShapes(t *testing.T) {
	clean := func(t *testing.T, g *Graph, wantCount int) {
		t.Helper()
		if g.wcc.stale {
			t.Fatal("tracker stale after an exact-shape mutation")
		}
		if got := g.ConnectedComponentCount(); got != wantCount {
			t.Fatalf("count = %d, want %d", got, wantCount)
		}
		oracleCheck(t, g)
	}

	t.Run("parallel edge", func(t *testing.T) {
		g := New()
		var v [3]VertexID
		g.TrackConnectivity()
		v[1] = g.AddVertex()
		v[2] = g.AddVertex()
		g.AddEdge(v[1], v[2])
		g.AddEdge(v[1], v[2])
		clean(t, g, 1)
		g.RemoveEdge(v[1], v[2]) // one copy remains: exact no-op
		clean(t, g, 1)
	})

	t.Run("reverse edge", func(t *testing.T) {
		g := New()
		var v [3]VertexID
		g.TrackConnectivity()
		v[1] = g.AddVertex()
		v[2] = g.AddVertex()
		g.AddEdge(v[1], v[2])
		g.AddEdge(v[2], v[1])
		clean(t, g, 1)
		g.RemoveEdge(v[1], v[2]) // 2→1 remains: weak connectivity unchanged
		clean(t, g, 1)
	})

	t.Run("edge isolating one endpoint", func(t *testing.T) {
		g := New()
		var v [4]VertexID
		g.TrackConnectivity()
		for i := 1; i <= 3; i++ {
			v[i] = g.AddVertex()
		}
		g.AddEdge(v[1], v[2])
		g.AddEdge(v[2], v[3])
		clean(t, g, 1)
		g.RemoveEdge(v[2], v[3]) // 3 becomes isolated: exact detach
		clean(t, g, 2)
	})

	t.Run("edge isolating both endpoints", func(t *testing.T) {
		g := New()
		var v [3]VertexID
		g.TrackConnectivity()
		v[1] = g.AddVertex()
		v[2] = g.AddVertex()
		g.AddEdge(v[1], v[2])
		clean(t, g, 1)
		g.RemoveEdge(v[1], v[2]) // the pair case: count must go 1 → 2, not 1 → 3
		clean(t, g, 2)
	})

	t.Run("self-loop removal", func(t *testing.T) {
		g := New()
		var v [2]VertexID
		g.TrackConnectivity()
		v[1] = g.AddVertex()
		g.AddEdge(v[1], v[1])
		clean(t, g, 1)
		g.RemoveEdge(v[1], v[1])
		clean(t, g, 1)
	})

	t.Run("singleton vertex removal", func(t *testing.T) {
		g := New()
		var v [3]VertexID
		g.TrackConnectivity()
		v[1] = g.AddVertex()
		v[2] = g.AddVertex()
		clean(t, g, 2)
		g.RemoveVertex(v[2])
		clean(t, g, 1)
	})

	t.Run("leaf vertex removal", func(t *testing.T) {
		g := New()
		var v [5]VertexID
		g.TrackConnectivity()
		for i := 1; i <= 4; i++ {
			v[i] = g.AddVertex()
		}
		g.AddEdge(v[1], v[2])
		g.AddEdge(v[2], v[3])
		g.AddEdge(v[3], v[4])
		clean(t, g, 1)
		g.RemoveVertex(v[4]) // one distinct neighbour: leaf, never splits
		clean(t, g, 1)
	})

	t.Run("leaf with parallel and reverse edges", func(t *testing.T) {
		g := New()
		var v [4]VertexID
		g.TrackConnectivity()
		v[1] = g.AddVertex()
		v[2] = g.AddVertex()
		v[3] = g.AddVertex()
		g.AddEdge(v[1], v[2])
		g.AddEdge(v[2], v[3])
		g.AddEdge(v[2], v[3])
		g.AddEdge(v[3], v[2])
		g.AddEdge(v[3], v[3])
		clean(t, g, 1)
		g.RemoveVertex(v[3]) // still one distinct neighbour (2): exact leaf
		clean(t, g, 1)
	})

	t.Run("non-forest cross-edge delete", func(t *testing.T) {
		g := New()
		var v [4]VertexID
		g.TrackConnectivity()
		for i := 1; i <= 3; i++ {
			v[i] = g.AddVertex()
		}
		g.AddEdge(v[1], v[2])
		g.AddEdge(v[1], v[3])
		clean(t, g, 1)        // the forest is the tree 1-2, 1-3
		g.AddEdge(v[2], v[3]) // inside the component: a non-forest link
		g.RemoveEdge(v[2], v[3])
		clean(t, g, 1)
	})

	t.Run("forest-edge delete with a replacement", func(t *testing.T) {
		g := New()
		var v [5]VertexID
		g.TrackConnectivity()
		for i := 1; i <= 4; i++ {
			v[i] = g.AddVertex()
		}
		g.AddEdge(v[1], v[2])
		g.AddEdge(v[2], v[3])
		g.AddEdge(v[3], v[4])
		clean(t, g, 1)        // forest: the path 1-2-3-4
		g.AddEdge(v[4], v[1]) // non-forest: closes the cycle
		g.RemoveEdge(v[2], v[3])
		if g.wcc.fpar[g.slotOf(v[3])] == g.slotOf(v[2]) {
			t.Fatal("the cut forest edge is still in the forest")
		}
		clean(t, g, 1)           // 4-1 replaces 2-3
		g.RemoveEdge(v[4], v[1]) // now a forest edge with no replacement
		clean(t, g, 2)
	})

	t.Run("forest-edge delete that splits", func(t *testing.T) {
		g := New()
		var v [7]VertexID
		g.TrackConnectivity()
		for i := 1; i <= 6; i++ {
			v[i] = g.AddVertex()
			if i > 1 {
				g.AddEdge(v[i-1], v[i])
			}
		}
		g.AddEdge(v[6], v[5]) // a reverse edge: still one link
		clean(t, g, 1)
		g.RemoveEdge(v[2], v[3]) // {1,2} and {3..6}: the smaller half moves out
		clean(t, g, 2)
		g.RemoveEdge(v[5], v[6]) // 6→5 remains
		clean(t, g, 2)
		g.AddEdge(v[6], v[1]) // the split halves merge again
		clean(t, g, 1)
		g.RemoveEdge(v[4], v[5])
		clean(t, g, 2)
	})

	t.Run("forest leaf with cross edges removal", func(t *testing.T) {
		g := New()
		var v [6]VertexID
		g.TrackConnectivity()
		for i := 1; i <= 5; i++ {
			v[i] = g.AddVertex()
		}
		g.AddEdge(v[1], v[2])
		g.AddEdge(v[1], v[3])
		g.AddEdge(v[2], v[4])
		g.AddEdge(v[3], v[5])
		clean(t, g, 1)
		g.AddEdge(v[4], v[3]) // cross edges: 4 has three distinct neighbours
		g.AddEdge(v[5], v[4])
		g.RemoveVertex(v[4]) // but no forest children: exact
		clean(t, g, 1)
	})

	t.Run("interior forest root removal", func(t *testing.T) {
		// A triangle: 1 is the forest root with one child (the forest
		// is 1-2-3) and two distinct neighbours.
		g := New()
		var v [4]VertexID
		g.TrackConnectivity()
		for i := 1; i <= 3; i++ {
			v[i] = g.AddVertex()
		}
		g.AddEdge(v[1], v[2])
		g.AddEdge(v[2], v[3])
		g.AddEdge(v[3], v[1])
		clean(t, g, 1)
		g.RemoveVertex(v[1]) // its child becomes the root: exact
		clean(t, g, 1)
		g.RemoveEdge(v[2], v[3])
		clean(t, g, 2)
	})

	t.Run("interior vertex removal goes conservative", func(t *testing.T) {
		// The shape that must go stale: an interior forest vertex,
		// with a forest parent and a forest child.
		g := New()
		var v [4]VertexID
		g.TrackConnectivity()
		for i := 1; i <= 3; i++ {
			v[i] = g.AddVertex()
		}
		g.AddEdge(v[1], v[2])
		g.AddEdge(v[2], v[3])
		if g.ConnectedComponentCount() != 1 {
			t.Fatal("setup")
		}
		g.RemoveVertex(v[2]) // must go stale, and the split must be seen
		if !g.wcc.stale {
			t.Fatal("interior removal did not make the tracker stale")
		}
		if got := g.ConnectedComponentCount(); got != 2 {
			t.Fatalf("count after split = %d, want 2", got)
		}
		oracleCheck(t, g)
	})

	t.Run("over-allowance cut goes conservative", func(t *testing.T) {
		g := New()
		var v [17]VertexID
		g.TrackConnectivity()
		for i := 1; i <= 16; i++ {
			v[i] = g.AddVertex()
			if i > 1 {
				g.AddEdge(v[i-1], v[i])
			}
		}
		if g.ConnectedComponentCount() != 1 {
			t.Fatal("setup")
		}
		g.setAllowance(2)
		g.RemoveEdge(v[8], v[9]) // both halves need more than 2 entries
		if !g.wcc.stale {
			t.Fatal("an over-allowance cut did not make the tracker stale")
		}
		if got := g.ConnectedComponentCount(); got != 2 {
			t.Fatalf("count after rebuild = %d, want 2", got)
		}
		oracleCheck(t, g)
	})
}

// TestIncrementalWCCSlotReuse recycles vertex slots through the
// freelist while the tracker is live: a reused slot must come back as
// a fresh singleton, not inherit the dead vertex's component.
func TestIncrementalWCCSlotReuse(t *testing.T) {
	g := New()
	var v [16]VertexID
	g.TrackConnectivity()
	for i := 0; i < 16; i++ {
		v[i] = g.AddVertex()
	}
	for i := 1; i < 16; i++ {
		g.AddEdge(v[0], v[i])
	}
	if g.ConnectedComponentCount() != 1 {
		t.Fatal("setup")
	}
	for round := 0; round < 20; round++ {
		// Leaf-remove a vertex (exact path), then add a new one that
		// reuses its slot.
		victim := round%15 + 1
		g.RemoveVertex(v[victim])
		oracleCheck(t, g)
		fresh := g.AddVertex()
		oracleCheck(t, g) // fresh vertex must be its own component
		g.AddEdge(v[0], fresh)
		v[victim] = g.AddVertex()
		g.AddEdge(v[0], v[victim])
		oracleCheck(t, g)
	}
}

// TestIncrementalWCCSwitchModes turns the tracker on over a graph
// that mutated untracked, and replaces a live tracker: both must
// rebuild from the live adjacency rather than trust stale state.
func TestIncrementalWCCSwitchModes(t *testing.T) {
	g := New()
	var v [8]VertexID
	for i := 0; i < 8; i++ {
		v[i] = g.AddVertex()
		if i > 0 {
			g.AddEdge(v[i-1], v[i])
		}
	}
	g.RemoveVertex(v[3]) // mutate while untracked
	if g.wcc != nil {
		t.Fatal("tracker on before anything asked for it")
	}
	oracleCheck(t, g) // the first query turns the tracker on
	g.RemoveEdge(v[5], v[6])
	g.TrackConnectivity()
	oracleCheck(t, g)
	g.RemoveEdge(v[1], v[2])
	oracleCheck(t, g)
}

// TestIncrementalWCCAllocs is the steady-state allocation gate: once
// the node arena and the search scratch have hit their high-water
// marks, churn — forest cuts that split, cuts that find a replacement,
// over-allowance cuts, and the stale→query rebuild every round forces
// — must reuse capacity. Wired into CI without -race (race
// instrumentation allocates).
func TestIncrementalWCCAllocs(t *testing.T) {
	g := New()
	g.TrackConnectivity()
	const ring = 256
	v := addVertices(g, ring)
	for i := 0; i < ring; i++ {
		g.AddEdge(v[i], v[(i+1)%ring])
	}
	pendant := g.AddVertex()
	g.AddEdge(v[0], pendant)
	// A 4-cycle: each cut of a forest edge finds its replacement
	// within a few entries.
	square := addVertices(g, 4)
	for i := 0; i < 4; i++ {
		g.AddEdge(square[i], square[(i+1)%4])
	}
	// A 3-vertex path whose middle vertex is replaced every round.
	path := addVertices(g, 3)
	g.AddEdge(path[0], path[1])
	g.AddEdge(path[1], path[2])
	g.ConnectedComponentCount()

	round := func() {
		// Stale churn: the path's middle vertex is an interior forest
		// vertex (the query before the round rebuilt the forest in age
		// order, and the youngest vertex joins the path's two ends), so
		// removing it makes the tracker stale, its replacement is
		// ignored, and the query rebuilds. A ring vertex would not do:
		// replaced, it is the youngest, and the rebuild hangs it off
		// the rest of the ring as a leaf.
		g.RemoveVertex(path[1])
		path[1] = g.AddVertex()
		g.AddEdge(path[0], path[1])
		g.AddEdge(path[1], path[2])
		g.ConnectedComponentCount()
		for k := 0; k < 32; k++ {
			// Split churn: cutting the pendant's forest edge moves it to
			// a fresh node; re-linking joins it back.
			g.RemoveEdge(v[0], pendant)
			g.AddEdge(v[0], pendant)
			// Replacement churn on the square.
			e := k % 4
			g.RemoveEdge(square[e], square[(e+1)%4])
			g.AddEdge(square[e], square[(e+1)%4])
			g.ConnectedComponentCount()
		}
		// Ring cuts: the halves run up to 128 vertices, so cuts may
		// find the replacement or overrun the allowance.
		for k := 0; k < 16; k++ {
			e := k * 7 % ring
			g.RemoveEdge(v[e], v[(e+1)%ring])
			g.AddEdge(v[e], v[(e+1)%ring])
			g.ConnectedComponentCount()
		}
	}
	// Warm past the arena's high-water mark (growth and the compaction
	// cycle are deterministic, so capacity stabilizes).
	for i := 0; i < 64; i++ {
		round()
	}
	const runs = 50 // AllocsPerRun adds one warm-up round
	before := g.wcc.rebuilds
	if avg := testing.AllocsPerRun(runs, round); avg != 0 {
		t.Fatalf("steady-state churn allocates: %.1f allocs/round, want 0", avg)
	}
	if n := g.wcc.rebuilds - before; n != runs+1 {
		t.Fatalf("%d rebuilds over %d rounds; each round rebuilds once, at its stale query", n, runs+1)
	}
}
