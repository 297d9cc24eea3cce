package logger

import (
	"testing"

	"heapmd/internal/callstack"
	"heapmd/internal/event"
	"heapmd/internal/metrics"
)

// emit is shorthand for driving a logger with raw events.
func emitAll(l *Logger, evs ...event.Event) {
	for _, e := range evs {
		l.Emit(e)
	}
}

func TestDoubleFreeCounted(t *testing.T) {
	l := New(Options{})
	emitAll(l,
		event.Event{Type: event.Alloc, Addr: 0x1000, Size: 16},
		event.Event{Type: event.Free, Addr: 0x1000, Size: 16},
		event.Event{Type: event.Free, Addr: 0x1000, Size: 16},
	)
	h := l.Health()
	if h.DoubleFrees != 1 || h.WildFrees != 0 {
		t.Errorf("double-free: %+v", *h)
	}
	if rep := l.Report(); rep.Health.DoubleFrees != 1 {
		t.Error("health not surfaced in Report")
	}
}

func TestWildFreeCounted(t *testing.T) {
	l := New(Options{})
	emitAll(l, event.Event{Type: event.Free, Addr: 0xdead, Size: 16})
	if h := l.Health(); h.WildFrees != 1 || h.DoubleFrees != 0 {
		t.Errorf("wild-free: %+v", *h)
	}
}

func TestRecycledAddressFreeIsLegitimate(t *testing.T) {
	l := New(Options{})
	emitAll(l,
		event.Event{Type: event.Alloc, Addr: 0x1000, Size: 16},
		event.Event{Type: event.Free, Addr: 0x1000, Size: 16},
		// The allocator hands the range out again; freeing it later
		// must NOT be misread as a double free.
		event.Event{Type: event.Alloc, Addr: 0x1000, Size: 16},
		event.Event{Type: event.Free, Addr: 0x1000, Size: 16},
	)
	if h := l.Health(); !h.Zero() {
		t.Errorf("recycled free miscounted: %+v", *h)
	}
}

func TestWildStoreCounted(t *testing.T) {
	l := New(Options{})
	emitAll(l,
		event.Event{Type: event.Alloc, Addr: 0x1000, Size: 16},
		event.Event{Type: event.Store, Addr: 0x5000, Value: 0x1000},
	)
	if h := l.Health(); h.WildStores != 1 {
		t.Errorf("wild-store: %+v", *h)
	}
}

// TestStoreIntoFreedThenRecycled covers the dangling-pointer dance:
// a store into freed memory is wild (counted), but once the range is
// recycled by a fresh allocation the same address is valid again and
// the store lands in the new object without further counting.
func TestStoreIntoFreedThenRecycled(t *testing.T) {
	l := New(Options{})
	emitAll(l,
		event.Event{Type: event.Alloc, Addr: 0x1000, Size: 32},
		event.Event{Type: event.Alloc, Addr: 0x2000, Size: 32},
		event.Event{Type: event.Free, Addr: 0x2000, Size: 32},
		// Dangling write into the freed range: wild.
		event.Event{Type: event.Store, Addr: 0x2008, Value: 0x1000},
	)
	if h := l.Health(); h.WildStores != 1 {
		t.Fatalf("dangling store not counted: %+v", *h)
	}
	emitAll(l,
		// Range recycled; same address now belongs to a live object.
		event.Event{Type: event.Alloc, Addr: 0x2000, Size: 32},
		event.Event{Type: event.Store, Addr: 0x2008, Value: 0x1000},
	)
	if h := l.Health(); h.WildStores != 1 {
		t.Errorf("store into recycled object miscounted as wild: %+v", *h)
	}
	if got := l.Graph().NumEdges(); got != 1 {
		t.Errorf("recycled store produced %d edges, want 1", got)
	}
}

func TestBadReallocUnknownBase(t *testing.T) {
	l := New(Options{})
	emitAll(l, event.Event{Type: event.Realloc, Addr: 0x4000, Value: 0x5000, Size: 64})
	if h := l.Health(); h.BadReallocs != 1 {
		t.Errorf("bad-realloc: %+v", *h)
	}
	if l.Graph().NumVertices() != 0 {
		t.Error("bad realloc mutated the graph")
	}
}

func TestBadReallocFieldGranularity(t *testing.T) {
	l := New(Options{Granularity: FieldGranularity})
	emitAll(l, event.Event{Type: event.Realloc, Addr: 0x4000, Value: 0x5000, Size: 64})
	if h := l.Health(); h.BadReallocs != 1 {
		t.Errorf("bad-realloc (field): %+v", *h)
	}
}

func TestReallocOfFreedBaseIsBadRealloc(t *testing.T) {
	l := New(Options{})
	emitAll(l,
		event.Event{Type: event.Alloc, Addr: 0x1000, Size: 16},
		event.Event{Type: event.Free, Addr: 0x1000, Size: 16},
		event.Event{Type: event.Realloc, Addr: 0x1000, Value: 0x2000, Size: 32},
	)
	if h := l.Health(); h.BadReallocs != 1 {
		t.Errorf("realloc-after-free: %+v", *h)
	}
}

// TestFieldGranularityReallocShrinkToZero drives the field-granular
// realloc path to its degenerate end: every word vertex must be
// retired, no slot may survive, and nothing may panic.
func TestFieldGranularityReallocShrinkToZero(t *testing.T) {
	l := New(Options{Granularity: FieldGranularity})
	emitAll(l,
		event.Event{Type: event.Alloc, Addr: 0x1000, Size: 32}, // 4 word vertices
		event.Event{Type: event.Alloc, Addr: 0x2000, Size: 8},  // target
		event.Event{Type: event.Store, Addr: 0x1008, Value: 0x2000},
	)
	if v := l.Graph().NumVertices(); v != 5 {
		t.Fatalf("setup vertices = %d, want 5", v)
	}
	if e := l.Graph().NumEdges(); e != 1 {
		t.Fatalf("setup edges = %d, want 1", e)
	}
	emitAll(l, event.Event{Type: event.Realloc, Addr: 0x1000, Value: 0x1000, Size: 0})
	if v := l.Graph().NumVertices(); v != 1 {
		t.Errorf("post-shrink vertices = %d, want 1 (target only)", v)
	}
	if e := l.Graph().NumEdges(); e != 0 {
		t.Errorf("post-shrink edges = %d, want 0", e)
	}
	if h := l.Health(); !h.Zero() {
		t.Errorf("legitimate shrink counted as anomaly: %+v", *h)
	}
}

func TestReallocMoveReleasesOldBase(t *testing.T) {
	l := New(Options{})
	emitAll(l,
		event.Event{Type: event.Alloc, Addr: 0x1000, Size: 16},
		event.Event{Type: event.Realloc, Addr: 0x1000, Value: 0x3000, Size: 64},
		// The old placement is freed memory now: freeing it again is
		// a double free, not a wild free.
		event.Event{Type: event.Free, Addr: 0x1000, Size: 16},
	)
	if h := l.Health(); h.DoubleFrees != 1 || h.WildFrees != 0 {
		t.Errorf("free of realloc-released base: %+v", *h)
	}
}

func TestUnknownEventTypeCounted(t *testing.T) {
	l := New(Options{})
	emitAll(l, event.Event{Type: event.Type(42), Addr: 1})
	if h := l.Health(); h.UnknownEvents != 1 {
		t.Errorf("unknown-event: %+v", *h)
	}
}

// panicObserver blows up on its nth sample.
type panicObserver struct {
	calls   int
	panicOn int
}

func (o *panicObserver) Sample(metrics.Snapshot, *callstack.Tracker) {
	o.calls++
	if o.calls == o.panicOn {
		panic("observer bug")
	}
}

// countObserver tallies samples delivered.
type countObserver struct{ calls int }

func (o *countObserver) Sample(metrics.Snapshot, *callstack.Tracker) { o.calls++ }

// TestObserverPanicQuarantine: a panicking observer must not abort
// the run; it is quarantined after its first panic while healthy
// observers keep receiving samples.
func TestObserverPanicQuarantine(t *testing.T) {
	l := New(Options{Frequency: 1})
	bad := &panicObserver{panicOn: 2}
	good := &countObserver{}
	l.Observe(bad)
	l.Observe(good)
	for i := 0; i < 5; i++ {
		l.Emit(event.Event{Type: event.Enter, Fn: 1}) // sample each entry
	}
	if good.calls != 5 {
		t.Errorf("healthy observer saw %d samples, want 5", good.calls)
	}
	if bad.calls != 2 {
		t.Errorf("panicking observer saw %d samples, want 2 (quarantined after panic)", bad.calls)
	}
	if h := l.Health(); h.ObserverPanics != 1 {
		t.Errorf("observer-panics: %+v", *h)
	}
	if len(l.observers) != 1 || l.observers[0] != good {
		t.Errorf("dispatch list after quarantine = %v, want only the healthy observer", l.observers)
	}
	if rep := l.Report(); rep.Health.ObserverPanics != 1 {
		t.Error("observer panic not surfaced in Report")
	}
}

func TestObserverPanicFirstOfSeveral(t *testing.T) {
	l := New(Options{Frequency: 1})
	first := &panicObserver{panicOn: 1}
	mid := &countObserver{}
	last := &countObserver{}
	l.Observe(first)
	l.Observe(mid)
	l.Observe(last)
	for i := 0; i < 3; i++ {
		l.Emit(event.Event{Type: event.Enter, Fn: 1})
	}
	if mid.calls != 3 || last.calls != 3 {
		t.Errorf("later observers starved: mid=%d last=%d, want 3 each", mid.calls, last.calls)
	}
}
