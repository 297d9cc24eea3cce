package heapgraph_test

import (
	"testing"

	"heapmd/internal/heapgraph"
	"heapmd/internal/metrics"
)

// BenchmarkIncrementalVsRecompute quantifies the central data-
// structure decision: HeapMD's logger answers degree queries from
// incrementally maintained histograms in O(1); the alternative scans
// every vertex per metric computation point.
func BenchmarkIncrementalVsRecompute(b *testing.B) {
	build := func() *heapgraph.Graph {
		g := heapgraph.New()
		v := make([]heapgraph.VertexID, 50000)
		for i := range v {
			v[i] = g.AddVertex()
		}
		for i := range v {
			g.AddEdge(v[i], v[(i*7+13)%50000])
		}
		return g
	}
	b.Run("incremental-histograms", func(b *testing.B) {
		g := build()
		suite := metrics.DefaultSuite()
		values := make([]float64, suite.Len())
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			suite.Compute(g, uint64(i), values)
		}
	})
	b.Run("full-recompute", func(b *testing.B) {
		g := build()
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			// Scan every vertex, recomputing each degree count the
			// way a histogram-less implementation would.
			var in0, in1, in2, out0, out1, out2, eq int
			g.Vertices(func(v heapgraph.VertexID) bool {
				id, od := g.InDegree(v), g.OutDegree(v)
				switch id {
				case 0:
					in0++
				case 1:
					in1++
				case 2:
					in2++
				}
				switch od {
				case 0:
					out0++
				case 1:
					out1++
				case 2:
					out2++
				}
				if id == od {
					eq++
				}
				return true
			})
			_ = in0 + in1 + in2 + out0 + out1 + out2 + eq
		}
	})
}
