package heapgraph_test

import (
	"testing"

	"heapmd/internal/event"
	"heapmd/internal/logger"
)

// TestVertexTablesBoundedByPeakLive: a logger fed 10^6 alloc/free
// pairs at distinct bases, with at most window objects live at once,
// keeps its graph's vertex-indexed tables at the peak number of live
// vertices. Every allocation is a new vertex, so a table indexed by a
// per-run vertex counter would reach 10^6 entries.
func TestVertexTablesBoundedByPeakLive(t *testing.T) {
	const (
		pairs  = 1_000_000
		window = 8
		size   = 16
	)
	l := logger.New(logger.Options{})
	defer l.Release()
	base := func(i int) uint64 { return 0x1000_0000 + uint64(i)*size }
	for i := 0; i < pairs; i++ {
		l.Emit(event.Event{Type: event.Alloc, Addr: base(i), Size: size})
		if i > 0 {
			// Link each object to the one before it, so frees detach edges.
			l.Emit(event.Event{Type: event.Store, Addr: base(i), Value: base(i - 1)})
		}
		if i >= window-1 {
			l.Emit(event.Event{Type: event.Free, Addr: base(i - window + 1)})
		}
	}
	g := l.Graph()
	if g.NumVertices() != window-1 {
		t.Fatalf("%d live vertices at the end, want %d", g.NumVertices(), window-1)
	}
	if n := g.VertexTableLen(); n > window {
		t.Fatalf("after %d alloc/free pairs with at most %d objects live, the vertex tables hold %d entries", pairs, window, n)
	}
	if msg := g.CheckInvariants(); msg != "" {
		t.Fatal(msg)
	}
}
