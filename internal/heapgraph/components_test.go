package heapgraph

import (
	"math/rand"
	"testing"
)

// setAllowance overrides both trackers' search allowance (n <= 0
// restores the default), so that searches bail.
func (g *Graph) setAllowance(n int) {
	if t := g.wcc; t != nil {
		t.allowCap = n
		t.refill(g)
	}
	if t := g.scc; t != nil {
		t.allowCap = n
		t.refill(g)
	}
}

// treeChurn replays, at graph level, the structure-heavy stream of the
// logger's metric-point tests and of the structure-extended benchmark:
// a heap-ordered binary tree of nodes objects (fields left, right,
// cross), nodes/8 cross edges, then points rounds of 32 re-pointed
// cross edges and 4 leaves freed and replaced by fresh objects, each
// round closed by point(). A store retires the field's previous edge
// (a no-op when its target is gone) and adds the new one, and IDs are
// handed out in allocation order — exactly as the execution logger
// applies the stream — and the random draws follow the stream's, so a
// seed here replays the same mutations as the same seed there.
func treeChurn(g *Graph, seed int64, nodes, points int, point func()) {
	rng := rand.New(rand.NewSource(seed))
	var fields [][3]VertexID // per vertex ID: current field targets, 0 = none
	alloc := func() VertexID {
		fields = append(fields, [3]VertexID{})
		id := VertexID(len(fields)) // IDs start at 1, like the logger's
		g.AddVertex(id)
		return id
	}
	store := func(src VertexID, f int, dst VertexID) {
		if old := fields[src-1][f]; old != 0 {
			g.RemoveEdge(src, old)
		}
		g.AddEdge(src, dst)
		fields[src-1][f] = dst
	}
	cur := make([]VertexID, nodes)
	link := func(i int) { store(cur[(i-1)/2], (i-1)%2, cur[i]) }
	cross := func() {
		src := cur[rng.Intn(nodes)]
		store(src, 2, cur[rng.Intn(nodes)])
	}
	for i := range cur {
		cur[i] = alloc()
		if i > 0 {
			link(i)
		}
	}
	for k := 0; k < nodes/8; k++ {
		cross()
	}
	for p := 0; p < points; p++ {
		for k := 0; k < 32; k++ {
			cross()
		}
		for k := 0; k < 4; k++ {
			i := nodes/2 + rng.Intn(nodes-nodes/2) // no children at i >= nodes/2
			g.RemoveVertex(cur[i])
			cur[i] = alloc()
			link(i)
		}
		point()
	}
}

// TestTrackerRebuildCounts is the rebuild-count gate: on the
// tree-with-cross-edges churn at 4096, 8192 and 12288 nodes, seeds 1–3,
// 20 metric points, the weak tracker, turned on over the empty graph,
// may never rebuild, and the strong tracker may rebuild at most twice
// (its first build at the first query counts). Every point is also
// checked against the reference walks. Measured on these 9 streams with
// the delete-shape WCC taxonomy and the forward-only SCC probe with a
// fixed 128-entry budget: 20 WCC rebuilds on every stream (re-pointed
// cross edges dirtied the tracker) and 14–20 SCC rebuilds (cross-edge
// inserts overran the probe budget). With the spanning forest and the
// lockstep probe: 1 WCC rebuild everywhere, the build at the first
// query, and 1 SCC rebuild except 2 on the 4096-node streams of seeds
// 1 and 2, where one interval's searches overran the allowance. With
// the weak tracker grown from the empty graph: 0 WCC rebuilds
// everywhere, SCC unchanged. Deleting the rebuild threshold changed
// neither: no eager rebuild ever fired on these streams.
func TestTrackerRebuildCounts(t *testing.T) {
	for _, nodes := range []int{4096, 8192, 12288} {
		for seed := int64(1); seed <= 3; seed++ {
			g := New()
			g.TrackConnectivity()
			g.TrackSCC()
			treeChurn(g, seed, nodes, 20, func() {
				if msg := g.CheckComponents(); msg != "" {
					t.Fatalf("nodes=%d seed=%d: %s", nodes, seed, msg)
				}
			})
			if w, s := g.wcc.rebuilds, g.scc.rebuilds; w > 0 || s > 2 {
				t.Errorf("nodes=%d seed=%d: %d WCC and %d SCC rebuilds over 20 points; budget is 0 and 2", nodes, seed, w, s)
			}
		}
	}
}

// TestTrackerStaleUntilQuery pins the exact-or-stale lifecycle. In one
// query interval, 200 interior-forest-vertex removals leave the weak
// tracker stale from the first on, and the query rebuilds it once (a
// tracker that rebuilt during mutation would rebuild on the way). And a
// query-free stream of 10^5 vertex add/remove rounds keeps both
// trackers' node arenas within 4·V+65 nodes: an exact tracker goes
// stale at the bound, and a stale one adds no nodes.
func TestTrackerStaleUntilQuery(t *testing.T) {
	t.Run("interior removals rebuild once, at the query", func(t *testing.T) {
		const paths = 200
		g := New()
		g.TrackConnectivity()
		for i := VertexID(0); i < paths; i++ {
			a := 3 * i
			g.AddVertex(a)
			g.AddVertex(a + 1)
			g.AddVertex(a + 2)
			g.AddEdge(a, a+1)
			g.AddEdge(a+1, a+2) // the forest is the path: a+1 is interior
		}
		for i := VertexID(0); i < paths; i++ {
			g.RemoveVertex(3*i + 1)
		}
		if !g.wcc.stale || g.wcc.rebuilds != 0 {
			t.Fatalf("before the query: stale=%v after %d rebuilds, want stale after 0", g.wcc.stale, g.wcc.rebuilds)
		}
		if got := g.ConnectedComponentCount(); got != 2*paths {
			t.Fatalf("count = %d, want %d", got, 2*paths)
		}
		if g.wcc.rebuilds != 1 {
			t.Fatalf("%d rebuilds, want 1", g.wcc.rebuilds)
		}
		oracleCheck(t, g)
	})
	t.Run("query-free churn bounds the node arena", func(t *testing.T) {
		const n = 64
		g := New()
		g.TrackConnectivity()
		g.TrackSCC()
		for i := VertexID(0); i < n; i++ {
			g.AddVertex(i)
			if i > 0 {
				g.AddEdge(i-1, i)
			}
		}
		if msg := g.CheckComponents(); msg != "" { // builds the strong tracker
			t.Fatal(msg)
		}
		for r := VertexID(0); r < 100000; r++ {
			// A leaf and a singleton SCC: exact to add and remove, one
			// abandoned node per round in each tracker.
			v := n + r
			g.AddVertex(v)
			g.AddEdge(r%n, v)
			g.RemoveVertex(v)
			for _, c := range []*ufCore{&g.wcc.ufCore, &g.scc.ufCore} {
				if len(c.parent) > 4*g.NumVertices()+65 {
					t.Fatalf("round %d: %d nodes over %d vertices", r, len(c.parent), g.NumVertices())
				}
			}
		}
		if !g.wcc.stale || !g.scc.stale {
			t.Fatalf("stale = %v/%v after the churn, want both stale at the bound", g.wcc.stale, g.scc.stale)
		}
		if msg := g.CheckComponents(); msg != "" {
			t.Fatal(msg)
		}
		if w, s := len(g.wcc.parent), len(g.scc.parent); w != n || s != n {
			t.Fatalf("the query's rebuilds left %d and %d nodes, want %d", w, s, n)
		}
	})
}

// componentProgram applies a fuzz program to g: two bytes per
// operation, an opcode and two 4-bit vertex operands. Opcode 5 diffs
// both trackers against the reference walks, as does the end of the
// program. Opcode 6 resets g and turns both trackers on again at the
// given allowance, so they reuse the old trackers' slices, and diffs
// them on the emptied graph.
func componentProgram(t *testing.T, g *Graph, data []byte, allowance int) {
	t.Helper()
	check := func() {
		t.Helper()
		if msg := g.CheckComponents(); msg != "" {
			t.Fatal(msg)
		}
		if msg := g.CheckInvariants(); msg != "" {
			t.Fatalf("invariants violated: %s", msg)
		}
	}
	for i := 0; i+1 < len(data); i += 2 {
		u := VertexID(data[i+1] >> 4)
		v := VertexID(data[i+1] & 0x0f)
		switch data[i] % 7 {
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
		case 5:
			check()
		case 6:
			g.Reset()
			g.TrackConnectivity()
			g.TrackSCC()
			g.setAllowance(allowance)
			if g.NumVertices() != 0 || g.NumEdges() != 0 || g.HasVertex(u) {
				t.Fatalf("Reset left %s", g)
			}
			check()
		}
	}
	check()
}

// treeProgram is a fuzz seed in componentProgram's encoding: a
// 15-vertex heap-ordered binary tree with cross edges, queried once
// built, then rounds of re-pointed cross edges and replaced leaves,
// each closed by a query.
func treeProgram(seed int64) []byte {
	rng := rand.New(rand.NewSource(seed))
	var p []byte
	op := func(code byte, u, v int) { p = append(p, code, byte(u<<4|v)) }
	for i := 1; i <= 15; i++ {
		op(0, i, 0)
		if i > 1 {
			op(1, i/2, i)
		}
	}
	cross := make([]int, 16) // per vertex: cross-edge target, 0 = none
	point := func(src int) {
		if cross[src] != 0 {
			op(2, src, cross[src])
		}
		cross[src] = 1 + rng.Intn(15)
		op(1, src, cross[src])
	}
	for k := 0; k < 4; k++ {
		point(1 + rng.Intn(15))
	}
	op(5, 0, 0)
	for r := 0; r < 6; r++ {
		for k := 0; k < 3; k++ {
			point(1 + rng.Intn(15))
		}
		leaf := 8 + rng.Intn(8)
		op(3, leaf, 0)
		cross[leaf] = 0
		op(0, leaf, 0)
		op(1, leaf/2, leaf)
		op(5, 0, 0)
	}
	return p
}

// FuzzIncrementalComponents drives both trackers together through
// arbitrary mutation programs and diffs them against the reference
// walks (CheckComponents), with the default search allowance and with
// an allowance of 2 entries, at which nearly every search bails out
// and the trackers go stale. Reset steps (opcode 6) send the rest of a
// program through reused trackers.
func FuzzIncrementalComponents(f *testing.F) {
	f.Add(treeProgram(1))
	f.Add(treeProgram(2))
	f.Add([]byte{0x00, 0x10, 0x00, 0x20, 0x01, 0x12, 0x01, 0x21, 0x05, 0x00, 0x02, 0x21, 0x05, 0x00})
	f.Add(append(append(treeProgram(1), 6, 0), treeProgram(2)...))
	f.Fuzz(func(t *testing.T, data []byte) {
		for _, allowance := range []int{0, 2} {
			g := New()
			g.TrackConnectivity()
			g.TrackSCC()
			g.setAllowance(allowance)
			componentProgram(t, g, data, allowance)
		}
	})
}
