package logger

import (
	"math"
	"reflect"
	"testing"

	"heapmd/internal/callstack"
	"heapmd/internal/event"
	"heapmd/internal/metrics"
)

// arenaEvents builds a deterministic event stream confined to its own
// address arena: n allocations linked into a list, a churn of relinks,
// then frees of every other object, with function entries sprinkled in
// so sampling fires.
func arenaEvents(arena uint64, n int) []event.Event {
	base := (arena + 1) << 32
	const objSize = 32
	var evs []event.Event
	addr := func(i int) uint64 { return base + uint64(i)*64 }
	for i := 0; i < n; i++ {
		evs = append(evs, event.Event{Type: event.Alloc, Addr: addr(i), Size: objSize, Fn: 1})
		if i > 0 {
			evs = append(evs, event.Event{Type: event.Store, Addr: addr(i-1) + 8, Value: addr(i)})
		}
		evs = append(evs, event.Event{Type: event.Enter, Fn: 2}, event.Event{Type: event.Leave})
	}
	for i := 0; i+2 < n; i += 3 {
		evs = append(evs, event.Event{Type: event.Store, Addr: addr(i) + 16, Value: addr(i + 2)})
		evs = append(evs, event.Event{Type: event.Enter, Fn: 3}, event.Event{Type: event.Leave})
	}
	for i := 0; i < n; i += 2 {
		evs = append(evs, event.Event{Type: event.Free, Addr: addr(i)})
	}
	return evs
}

// emitBatches feeds evs to l in batches of size events.
func emitBatches(l *Logger, evs []event.Event, size int) {
	for rest := evs; len(rest) > 0; {
		k := min(len(rest), size)
		l.EmitBatch(rest[:k])
		rest = rest[k:]
	}
}

// TestEmitBatchMatchesEmitExtended: the extended suite's WCC/SCC
// trackers must give the same snapshots whether the stream arrives one
// event at a time or in 64-event batches.
func TestEmitBatchMatchesEmitExtended(t *testing.T) {
	evs := arenaEvents(0, 600)

	single := New(Options{Frequency: 16, Suite: metrics.ExtendedSuite()})
	for _, e := range evs {
		single.Emit(e)
	}
	want := single.Report()

	batched := New(Options{Frequency: 16, Suite: metrics.ExtendedSuite()})
	emitBatches(batched, evs, 64)
	got := batched.Report()

	if len(got.Snapshots) == 0 || len(got.Snapshots) != len(want.Snapshots) {
		t.Fatalf("snapshot count: batched %d, per-event %d", len(got.Snapshots), len(want.Snapshots))
	}
	for i := range want.Snapshots {
		if !reflect.DeepEqual(got.Snapshots[i], want.Snapshots[i]) {
			t.Fatalf("snapshot %d differs:\nbatched:   %+v\nper-event: %+v", i, got.Snapshots[i], want.Snapshots[i])
		}
	}
}

// TestObserverSeesRecordedSnapshots: observers receive the exact
// component metrics — defined (not NaN) and equal to the snapshots the
// report records.
func TestObserverSeesRecordedSnapshots(t *testing.T) {
	l := New(Options{Frequency: 16, Suite: metrics.ExtendedSuite()})
	suite := l.suite
	wccIdx := suite.Index(metrics.Components)
	var observed [][]float64
	l.Observe(sampleFunc(func(snap metrics.Snapshot, _ *callstack.Tracker) {
		observed = append(observed, append([]float64(nil), snap.Values...))
	}))
	emitBatches(l, arenaEvents(0, 400), 32)
	if len(observed) == 0 {
		t.Fatal("observer saw no samples")
	}
	for i, vals := range observed {
		if len(vals) != suite.Len() {
			t.Fatalf("sample %d has %d values, want %d", i, len(vals), suite.Len())
		}
		if math.IsNaN(vals[wccIdx]) {
			t.Fatalf("sample %d carries NaN for %s", i, metrics.Components)
		}
	}
	snaps := l.Report().Snapshots
	recorded := make([][]float64, len(snaps))
	for i, s := range snaps {
		recorded[i] = s.Values
	}
	if !reflect.DeepEqual(observed, recorded) {
		t.Fatal("observed samples differ from the recorded snapshots")
	}
}
