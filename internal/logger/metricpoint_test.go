package logger

import (
	"fmt"
	"math/rand"
	"runtime"
	"testing"

	"heapmd/internal/event"
	"heapmd/internal/metrics"
)

// treeStream is a structure-heavy event stream: setup builds a
// heap-ordered binary tree of 32-byte nodes (left, right, cross,
// payload) with nodes/8 cross edges and no function entries; then
// every round is a churn batch — 32 re-pointed cross edges and 4
// leaves freed and replaced at fresh addresses — followed by a point
// batch of exactly the SimulationFrequency function entries that make
// one metric point.
type treeStream struct {
	setup []event.Event
	churn [][]event.Event
	point []event.Event
}

func newTreeStream(seed int64, nodes, rounds int) *treeStream {
	const size = 32
	rng := rand.New(rand.NewSource(seed))
	next := uint64(0x2000_0000_0000)
	alloc := func() uint64 { a := next; next += size; return a }
	cur := make([]uint64, nodes)
	link := func(i int) event.Event {
		return event.Event{Type: event.Store, Addr: cur[(i-1)/2] + uint64((i-1)%2)*8, Value: cur[i]}
	}
	cross := func() event.Event {
		return event.Event{Type: event.Store, Addr: cur[rng.Intn(nodes)] + 16, Value: cur[rng.Intn(nodes)]}
	}
	s := &treeStream{}
	for i := range cur {
		cur[i] = alloc()
		s.setup = append(s.setup, event.Event{Type: event.Alloc, Fn: 1, Addr: cur[i], Size: size})
		if i > 0 {
			s.setup = append(s.setup, link(i))
		}
	}
	for k := 0; k < nodes/8; k++ {
		s.setup = append(s.setup, cross())
	}
	for r := 0; r < rounds; r++ {
		var b []event.Event
		for k := 0; k < 32; k++ {
			b = append(b, cross())
		}
		for k := 0; k < 4; k++ {
			i := nodes/2 + rng.Intn(nodes-nodes/2) // no children at i >= nodes/2
			b = append(b, event.Event{Type: event.Free, Addr: cur[i]})
			cur[i] = alloc()
			b = append(b, event.Event{Type: event.Alloc, Fn: 1, Addr: cur[i], Size: size}, link(i))
		}
		s.churn = append(s.churn, b)
	}
	for k := 0; k < SimulationFrequency; k++ {
		s.point = append(s.point, event.Event{Type: event.Enter, Fn: 2}, event.Event{Type: event.Leave, Fn: 2})
	}
	return s
}

// events returns the whole stream in order.
func (s *treeStream) events() []event.Event {
	out := append([]event.Event(nil), s.setup...)
	for _, b := range s.churn {
		out = append(out, b...)
		out = append(out, s.point...)
	}
	return out
}

// TestExtendedMetricPointAllocs is the metric-point allocation gate
// for the extended suite at default logger options: once the
// trackers' scratch has reached its high-water mark, a metric point
// over a 4096-node tree with cross-edge churn allocates nothing. The
// snapshot's values are computed into the sample log, whose rare new
// chunk (two allocations, once over the 64 measured points here) is
// amortized away by the per-point average's integer division, as in
// testing.AllocsPerRun. The component counts come from the
// incremental trackers, whose rebuilds reuse capacity. Measured on a
// 2-vCPU Xeon VM: 0 allocs per point; 1 while each snapshot's Values
// was its own allocation, and 2962 when the counts came from full
// BFS/Tarjan walks at every point.
func TestExtendedMetricPointAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates")
	}
	const warm, measured = 32, 64
	s := newTreeStream(1, 4096, warm+measured)
	l := New(Options{Frequency: SimulationFrequency, Suite: metrics.ExtendedSuite()})
	l.EmitBatch(s.setup)
	for r := 0; r < warm; r++ {
		l.EmitBatch(s.churn[r])
		l.EmitBatch(s.point)
	}
	var before, after runtime.MemStats
	var mallocs uint64
	for r := warm; r < warm+measured; r++ {
		l.EmitBatch(s.churn[r])
		runtime.ReadMemStats(&before)
		l.EmitBatch(s.point)
		runtime.ReadMemStats(&after)
		mallocs += after.Mallocs - before.Mallocs
	}
	if got := l.tick; got != warm+measured {
		t.Fatalf("%d metric points, want %d", got, warm+measured)
	}
	if perPoint := mallocs / measured; perPoint > 0 {
		t.Fatalf("a steady-state extended metric point allocates %d times (%d over %d points); budget is 0", perPoint, mallocs, measured)
	}
}

// BenchmarkLoggerStructureExtended replays a structure-heavy stream —
// a tree with cross edges, then 20 rounds of churn each closed by a
// metric point — under the extended suite, one logger per iteration,
// and reports the cost per event. The tree has 4096 nodes, and 8192,
// the median tree size of the benchmark's structure-extended workload.
// "fresh" builds every logger from nothing, "reused" releases each one
// so the next New resets its heap image in place.
func BenchmarkLoggerStructureExtended(b *testing.B) {
	opts := Options{Frequency: SimulationFrequency, Suite: metrics.ExtendedSuite()}
	for _, nodes := range []int{4096, 8192} {
		evs := newTreeStream(1, nodes, 20).events()
		for _, c := range []struct {
			name    string
			newLog  func(Options) *Logger
			release bool
		}{{"fresh", NewUnpooled, false}, {"reused", New, true}} {
			b.Run(fmt.Sprintf("nodes=%d/%s", nodes, c.name), func(b *testing.B) {
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					l := c.newLog(opts)
					emitBatches(l, evs, testBatchSize)
					l.Report()
					if c.release {
						l.Release()
					}
				}
				b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(evs)), "ns/event")
			})
		}
	}
}
