package heapgraph_test

import (
	"math/rand"
	"testing"

	"heapmd/internal/callstack"
	"heapmd/internal/event"
	"heapmd/internal/heapgraph"
	"heapmd/internal/logger"
	"heapmd/internal/metrics"
)

// lateFirstPointStream is an object stream whose first metric point
// comes only after much churn. It builds a heap-ordered binary tree of
// 32-byte nodes (fields left, right, cross) with nodes/8 cross edges
// among the interior nodes, then runs 64 churn rounds with no function
// entry, then points rounds each closed by one metric point. A churn
// round re-points 4 cross fields and frees 4 leaves, replacing each by
// a fresh object; every 4th round, and every round after the first
// point, also unhooks a 31-node subtree (its parent's field stored 0)
// and hooks it back. Cross edges stay among interior nodes and only
// leaves are freed, so every vertex removal is a forest leaf's, and
// the unhooks are forest cuts whose searches scan a few hundred
// adjacency entries each.
func lateFirstPointStream(seed int64, nodes, points int) []event.Event {
	const size = 32
	rng := rand.New(rand.NewSource(seed))
	next := uint64(0x2000_0000_0000)
	cur := make([]uint64, nodes)
	var evs []event.Event
	store := func(addr, value uint64) {
		evs = append(evs, event.Event{Type: event.Store, Addr: addr, Value: value})
	}
	field := func(i int) uint64 { return cur[(i-1)/2] + uint64((i-1)%2)*8 }
	alloc := func(i int) {
		cur[i] = next
		next += size
		evs = append(evs, event.Event{Type: event.Alloc, Fn: 1, Addr: cur[i], Size: size})
		if i > 0 {
			store(field(i), cur[i])
		}
	}
	cross := func() { store(cur[rng.Intn(nodes/2)]+16, cur[rng.Intn(nodes/2)]) }
	round := func(unhook bool) {
		for k := 0; k < 4; k++ {
			cross()
		}
		for k := 0; k < 4; k++ {
			i := nodes/2 + rng.Intn(nodes-nodes/2) // leaves
			evs = append(evs, event.Event{Type: event.Free, Addr: cur[i]})
			alloc(i)
		}
		if unhook {
			// Indices nodes/32-1 to nodes/16-2 lie five levels above
			// the leaves: each roots a 31-node subtree.
			lo := nodes/32 - 1
			i := lo + rng.Intn(lo+1)
			store(field(i), 0)
			store(field(i), cur[i])
		}
	}
	for i := range cur {
		alloc(i)
	}
	for k := 0; k < nodes/8; k++ {
		cross()
	}
	for r := 0; r < 64; r++ {
		round(r%4 == 0)
	}
	for p := 0; p < points; p++ {
		round(true)
		for k := 0; k < logger.SimulationFrequency; k++ {
			evs = append(evs, event.Event{Type: event.Enter, Fn: 2}, event.Event{Type: event.Leave, Fn: 2})
		}
	}
	return evs
}

// wccPointCheck checks the weak tracker at every metric point.
type wccPointCheck struct {
	t      *testing.T
	g      *heapgraph.Graph
	points int
}

func (c *wccPointCheck) Sample(metrics.Snapshot, *callstack.Tracker) {
	c.points++
	if got, want := c.g.ConnectedComponentCount(), c.g.WeaklyConnectedComponents().Count; got != want {
		c.t.Errorf("point %d: WCC count %d, reference walk %d", c.points, got, want)
	}
	if rebuilds, _ := c.g.WCCState(); rebuilds != 0 {
		c.t.Errorf("point %d: the weak tracker rebuilt %d times", c.points, rebuilds)
	}
}

// TestLoggerWCCFirstPointAfterChurn: an extended-suite logger grows its
// weak tracker with the heap, and the search allowance grows with it,
// so the cuts before a late first metric point run exactly instead of
// running out of allowance. The stream (lateFirstPointStream) can
// dirty the tracker only by running out, so the tracker must never be
// dirty after any event, must never rebuild, and must match the
// reference walk at every point.
func TestLoggerWCCFirstPointAfterChurn(t *testing.T) {
	const points = 20
	for _, nodes := range []int{2048, 8192} {
		evs := lateFirstPointStream(int64(nodes), nodes, points)
		l := logger.New(logger.Options{Frequency: logger.SimulationFrequency, Suite: metrics.ExtendedSuite()})
		check := &wccPointCheck{t: t, g: l.Graph()}
		l.Observe(check)
		for i, e := range evs {
			l.Emit(e)
			if _, dirty := l.Graph().WCCState(); dirty {
				t.Fatalf("nodes=%d: event %d (%v) dirtied the weak tracker", nodes, i, e.Type)
			}
		}
		if check.points != points {
			t.Fatalf("nodes=%d: %d metric points, want %d", nodes, check.points, points)
		}
		l.Release()
	}
}
