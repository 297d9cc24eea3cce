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
// vertices 0..n-1, numbered in the order they are added, followed by
// n/8 random cross edges, drawn from seed.
func treeEdges(n int, seed int64) [][2]int {
	rng := rand.New(rand.NewSource(seed))
	edges := make([][2]int, 0, n-1+n/8)
	for i := 1; i < n; i++ {
		edges = append(edges, [2]int{(i - 1) / 2, i})
	}
	for k := 0; k < n/8; k++ {
		edges = append(edges, [2]int{rng.Intn(n), rng.Intn(n)})
	}
	return edges
}

// buildTree grows a fresh graph over len(v) vertices, recording vertex
// i's handle in v[i] and linking it to its tree parent as soon as it
// exists, then adds the cross edges (edges as from treeEdges).
func buildTree(v []VertexID, edges [][2]int) *Graph {
	g := New()
	v[0] = g.AddVertex()
	for i := 1; i < len(v); i++ {
		v[i] = g.AddVertex()
		e := edges[i-1]
		g.AddEdge(v[e[0]], v[e[1]])
	}
	for _, e := range edges[len(v)-1:] {
		g.AddEdge(v[e[0]], v[e[1]])
	}
	return g
}

// TestGraphGrowthAllocBytes is the growth alloc gate: building a tree
// with cross edges from an empty graph must allocate at most
// growthBudget bytes per vertex in total, garbage included.
func TestGraphGrowthAllocBytes(t *testing.T) {
	edges := treeEdges(growthVertices, 1)
	v := make([]VertexID, growthVertices)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	g := buildTree(v, edges)
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

// BenchmarkGraphBuild builds the growth gate's graph from empty once
// per iteration; run with -benchmem.
func BenchmarkGraphBuild(b *testing.B) {
	edges := treeEdges(growthVertices, 1)
	v := make([]VertexID, growthVertices)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		buildTree(v, edges)
	}
}
