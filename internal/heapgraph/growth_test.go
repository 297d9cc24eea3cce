package heapgraph

import (
	"math/rand"
	"runtime"
	"testing"
)

// growthVertices is the size of the growth gate's tree: the largest
// tree of the structure-extended benchmark workload.
const growthVertices = 12288

// growthBudget is the gate's budget in bytes allocated per vertex while
// a fresh graph grows to growthVertices. With slot-keyed 80-byte
// adjacency sets in a segmented arena that never copies, the build
// allocates 300 B/vertex; with 144-byte sets in append-grown slices it
// allocated 1369 B/vertex (linux/amd64, Go 1.24).
const growthBudget = 360

// treeEdges returns the edges of a heap-ordered binary tree over
// vertices 1..n followed by n/8 random cross edges, drawn from seed.
func treeEdges(n int, seed int64) [][2]VertexID {
	rng := rand.New(rand.NewSource(seed))
	edges := make([][2]VertexID, 0, n-1+n/8)
	for i := 1; i < n; i++ {
		edges = append(edges, [2]VertexID{VertexID((i-1)/2 + 1), VertexID(i + 1)})
	}
	for k := 0; k < n/8; k++ {
		edges = append(edges, [2]VertexID{VertexID(rng.Intn(n) + 1), VertexID(rng.Intn(n) + 1)})
	}
	return edges
}

// buildTree grows a fresh graph over vertices 1..n, each vertex linked
// to its tree parent as soon as it exists, then adds the cross edges
// (edges as from treeEdges).
func buildTree(n int, edges [][2]VertexID) *Graph {
	g := New()
	g.AddVertex(1)
	for i := 2; i <= n; i++ {
		g.AddVertex(VertexID(i))
		e := edges[i-2]
		g.AddEdge(e[0], e[1])
	}
	for _, e := range edges[n-1:] {
		g.AddEdge(e[0], e[1])
	}
	return g
}

// TestGraphGrowthAllocBytes is the growth alloc gate: building a tree
// with cross edges from an empty graph must allocate at most
// growthBudget bytes per vertex in total, garbage included.
func TestGraphGrowthAllocBytes(t *testing.T) {
	edges := treeEdges(growthVertices, 1)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	g := buildTree(growthVertices, edges)
	runtime.ReadMemStats(&after)
	if msg := g.CheckInvariants(); msg != "" {
		t.Fatal(msg)
	}
	perVertex := float64(after.TotalAlloc-before.TotalAlloc) / growthVertices
	t.Logf("%.0f B allocated per vertex (budget %d)", perVertex, growthBudget)
	if perVertex > growthBudget {
		t.Fatalf("growing a %d-vertex tree allocated %.0f B/vertex, budget %d", growthVertices, perVertex, growthBudget)
	}
}

// denseIndexBudget bounds the dense VertexID index of a fresh graph of
// 1000 vertices, in bytes: 4 per ID and half as much again for growth
// room, where reserving denseSlack IDs on the first vertex made it
// 256 KiB.
const denseIndexBudget = 8 << 10

// TestDenseIndexGrowth: a fresh graph's dense index grows with the
// vertex IDs it holds, not by denseSlack at a time, and IDs beyond
// denseSlack of its frontier still land in the sparse map.
func TestDenseIndexGrowth(t *testing.T) {
	g := New()
	for v := VertexID(1); v <= 1000; v++ {
		g.AddVertex(v)
	}
	if bytes := 4 * cap(g.dense); bytes > denseIndexBudget {
		t.Fatalf("dense index of a fresh 1000-vertex graph holds %d B, budget %d", bytes, denseIndexBudget)
	}
	wild := VertexID(1000 + denseSlack + 1)
	g.AddVertex(wild)
	if len(g.sparse) != 1 || cap(g.dense) > denseIndexBudget/4 {
		t.Fatalf("wild ID %d: %d sparse entries, dense capacity %d", wild, len(g.sparse), cap(g.dense))
	}
	for _, v := range []VertexID{1, 500, 1000, wild} {
		if !g.HasVertex(v) {
			t.Fatalf("vertex %d lost", v)
		}
	}
}

// BenchmarkGraphBuild builds the growth gate's graph from empty once
// per iteration; run with -benchmem.
func BenchmarkGraphBuild(b *testing.B) {
	edges := treeEdges(growthVertices, 1)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		buildTree(growthVertices, edges)
	}
}
