package logger

import (
	"strings"
	"testing"

	"heapmd/internal/callstack"
	"heapmd/internal/event"
	"heapmd/internal/heap"
	"heapmd/internal/metrics"
)

// rig wires a simulated heap to a logger, the way the workload runtime
// does in production code.
type rig struct {
	t   *testing.T
	h   *heap.Sim
	l   *Logger
	sym *event.Symtab
}

func newRig(t *testing.T, opts Options) *rig {
	h := heap.New()
	l := New(opts)
	h.Subscribe(l)
	return &rig{t: t, h: h, l: l, sym: event.NewSymtab()}
}

func (r *rig) alloc(size uint64) uint64 {
	r.t.Helper()
	a, err := r.h.Alloc(size)
	if err != nil {
		r.t.Fatalf("Alloc: %v", err)
	}
	return a
}

func (r *rig) store(addr, val uint64) {
	r.t.Helper()
	if err := r.h.Store(addr, val); err != nil {
		r.t.Fatalf("Store: %v", err)
	}
}

func (r *rig) free(addr uint64) {
	r.t.Helper()
	if err := r.h.Free(addr); err != nil {
		r.t.Fatalf("Free: %v", err)
	}
}

func (r *rig) enter(fn string) {
	r.l.Emit(event.Event{Type: event.Enter, Fn: r.sym.Intern(fn)})
}

func TestVertexPerAllocation(t *testing.T) {
	r := newRig(t, Options{})
	r.alloc(16)
	r.alloc(16)
	if got := r.l.Graph().NumVertices(); got != 2 {
		t.Fatalf("vertices = %d, want 2", got)
	}
	if got := r.l.Graph().NumEdges(); got != 0 {
		t.Fatalf("edges = %d, want 0", got)
	}
}

func TestPointerStoreCreatesEdge(t *testing.T) {
	r := newRig(t, Options{})
	a := r.alloc(16)
	b := r.alloc(16)
	r.store(a, b) // a points to b
	g := r.l.Graph()
	if g.NumEdges() != 1 {
		t.Fatalf("edges = %d, want 1", g.NumEdges())
	}
	// b now has indegree 1; a has outdegree 1.
	if g.CountInDegree(1) != 1 || g.CountOutDegree(1) != 1 {
		t.Error("degree histograms wrong after pointer store")
	}
}

func TestScalarStoreCreatesNoEdge(t *testing.T) {
	r := newRig(t, Options{})
	a := r.alloc(16)
	r.store(a, 12345) // small scalar, below heap.Base
	if r.l.Graph().NumEdges() != 0 {
		t.Error("scalar store created an edge")
	}
}

func TestInteriorPointerResolvesToObject(t *testing.T) {
	r := newRig(t, Options{})
	a := r.alloc(16)
	b := r.alloc(32)
	r.store(a, b+16) // interior pointer into b
	g := r.l.Graph()
	if g.NumEdges() != 1 {
		t.Fatalf("edges = %d, want 1", g.NumEdges())
	}
	if g.CountInDegree(1) != 1 {
		t.Error("interior pointer did not resolve to containing object")
	}
}

func TestOverwriteRetiresOldEdge(t *testing.T) {
	r := newRig(t, Options{})
	a := r.alloc(16)
	b := r.alloc(16)
	c := r.alloc(16)
	r.store(a, b)
	r.store(a, c) // overwrite: edge a->b replaced by a->c
	g := r.l.Graph()
	if g.NumEdges() != 1 {
		t.Fatalf("edges = %d, want 1", g.NumEdges())
	}
	if g.CountInDegree(0) != 2 { // a and b are now indegree 0
		t.Errorf("CountInDegree(0) = %d, want 2", g.CountInDegree(0))
	}
}

func TestNullingAPointerRemovesEdge(t *testing.T) {
	r := newRig(t, Options{})
	a := r.alloc(16)
	b := r.alloc(16)
	r.store(a, b)
	r.store(a, 0) // null it
	if r.l.Graph().NumEdges() != 0 {
		t.Error("nulled pointer left an edge behind")
	}
}

func TestFreeRemovesVertexAndEdges(t *testing.T) {
	r := newRig(t, Options{})
	a := r.alloc(16)
	b := r.alloc(16)
	r.store(a, b)
	r.store(b, a) // cycle
	r.free(b)
	g := r.l.Graph()
	if g.NumVertices() != 1 || g.NumEdges() != 0 {
		t.Fatalf("after free: V=%d E=%d, want 1/0", g.NumVertices(), g.NumEdges())
	}
}

func TestRecycledAddressIsFreshVertex(t *testing.T) {
	r := newRig(t, Options{})
	a := r.alloc(16)
	b := r.alloc(16)
	r.store(a, b)
	r.free(b)
	// Recycle b's range; the old a->b edge must NOT resurrect.
	c := r.alloc(16)
	if c != b {
		t.Skip("allocator did not recycle")
	}
	g := r.l.Graph()
	if g.NumEdges() != 0 {
		t.Error("edge resurrected on address recycling")
	}
	if g.NumVertices() != 2 {
		t.Errorf("vertices = %d, want 2", g.NumVertices())
	}
}

func TestDoubleStoreSameTarget(t *testing.T) {
	// Two fields of a pointing at b: indegree(b) must be 2
	// (multi-edge), then drop to 1 when one field is cleared.
	r := newRig(t, Options{})
	a := r.alloc(32)
	b := r.alloc(16)
	r.store(a, b)
	r.store(a+8, b)
	g := r.l.Graph()
	if g.NumEdges() != 2 {
		t.Fatalf("edges = %d, want 2", g.NumEdges())
	}
	if g.CountInDegree(2) != 1 {
		t.Errorf("CountInDegree(2) = %d, want 1", g.CountInDegree(2))
	}
	r.store(a+8, 0)
	if g.CountInDegree(1) != 1 {
		t.Errorf("after clearing one field, CountInDegree(1) = %d, want 1", g.CountInDegree(1))
	}
}

func TestReallocPreservesEdges(t *testing.T) {
	r := newRig(t, Options{})
	a := r.alloc(16)
	b := r.alloc(16)
	c := r.alloc(16)
	r.store(a, b)                 // a -> b
	r.store(b, c)                 // b -> c
	nb, err := r.h.Realloc(b, 64) // move b
	if err != nil {
		t.Fatal(err)
	}
	if nb == b {
		t.Fatal("expected realloc to move")
	}
	g := r.l.Graph()
	// Object identity survives the move: both edges persist.
	if g.NumEdges() != 2 {
		t.Fatalf("edges after realloc = %d, want 2", g.NumEdges())
	}
	// And the moved object's slot is rebased: overwriting the
	// pointer through the new address retires the b->c edge.
	r.store(nb, 0)
	if g.NumEdges() != 1 {
		t.Errorf("edges after overwrite at new base = %d, want 1", g.NumEdges())
	}
}

func TestReallocShrinkDropsTailEdges(t *testing.T) {
	r := newRig(t, Options{})
	a := r.alloc(32)
	b := r.alloc(16)
	r.store(a+24, b) // pointer in the tail word
	if _, err := r.h.Realloc(a, 16); err != nil {
		t.Fatal(err)
	}
	if r.l.Graph().NumEdges() != 0 {
		t.Error("edge stored beyond the shrunk size survived")
	}
}

func TestSamplingCadence(t *testing.T) {
	r := newRig(t, Options{Frequency: 10})
	for i := 0; i < 95; i++ {
		r.enter("f")
	}
	if got := r.l.tick; got != 9 {
		t.Fatalf("ticks = %d, want 9", got)
	}
	rep := r.l.Report()
	if len(rep.Snapshots) != 9 {
		t.Fatalf("snapshots = %d", len(rep.Snapshots))
	}
	if rep.FnEntries != 95 {
		t.Errorf("FnEntries = %d, want 95", rep.FnEntries)
	}
}

func TestSampleObserverSeesStack(t *testing.T) {
	r := newRig(t, Options{Frequency: 3})
	var depths []int
	r.l.Observe(sampleFunc(func(snap metrics.Snapshot, stack *callstack.Tracker) {
		depths = append(depths, len(stack.Snapshot()))
	}))
	r.enter("a") // depth 1
	r.enter("b") // depth 2
	r.enter("c") // depth 3 -> sample here (3rd entry)
	if len(depths) != 1 || depths[0] != 3 {
		t.Fatalf("observer depths = %v, want [3]", depths)
	}
}

type sampleFunc func(metrics.Snapshot, *callstack.Tracker)

func (f sampleFunc) Sample(s metrics.Snapshot, st *callstack.Tracker) { f(s, st) }

func TestReportSeries(t *testing.T) {
	r := newRig(t, Options{Frequency: 1})
	a := r.alloc(16)
	b := r.alloc(16)
	r.store(a, b)
	r.enter("f")
	r.enter("f")
	rep := r.l.Report()
	roots := rep.Series(metrics.Roots)
	if len(roots) != 2 {
		t.Fatalf("series length = %d, want 2", len(roots))
	}
	if roots[0] != 50 { // a is a root, b is not
		t.Errorf("Roots = %v, want 50", roots[0])
	}
	if rep.Series(metrics.Components) != nil {
		t.Error("series of absent metric should be nil")
	}
	if rep.Snapshots[0].Vertices != 2 {
		t.Errorf("snapshot vertices = %d", rep.Snapshots[0].Vertices)
	}
}

// TestFigure3FieldGranularity reproduces the paper's Figure 3 claim:
// at field granularity the In=Out metric depends on field layout, while
// at object granularity both layouts look identical.
func TestFigure3FieldGranularity(t *testing.T) {
	// Layout A (Figure 3A): node = [data, next]; pointer in word 1
	// points AT THE HEAD (word 0) of the next node.
	buildA := func(gran Granularity) *Logger {
		h := heap.New()
		l := New(Options{Granularity: gran, Frequency: 1})
		h.Subscribe(l)
		const k = 10
		var nodes []uint64
		for i := 0; i < k; i++ {
			a, err := h.Alloc(16)
			if err != nil {
				t.Fatal(err)
			}
			nodes = append(nodes, a)
		}
		for i := 0; i+1 < k; i++ {
			if err := h.Store(nodes[i]+8, nodes[i+1]); err != nil { // next at offset 8 -> head of next
				t.Fatal(err)
			}
		}
		return l
	}
	// Layout B (Figure 3B): node = [next, data]; pointer in word 0
	// points at the NEXT-node field (word 0) of the next node —
	// same graph shape but the data words are laid out after.
	buildB := func(gran Granularity) *Logger {
		h := heap.New()
		l := New(Options{Granularity: gran, Frequency: 1})
		h.Subscribe(l)
		const k = 10
		var nodes []uint64
		for i := 0; i < k; i++ {
			a, err := h.Alloc(16)
			if err != nil {
				t.Fatal(err)
			}
			nodes = append(nodes, a)
		}
		for i := 0; i+1 < k; i++ {
			if err := h.Store(nodes[i], nodes[i+1]); err != nil { // next at offset 0 -> next field of next node
				t.Fatal(err)
			}
		}
		return l
	}

	inEqOut := func(l *Logger) float64 {
		g := l.Graph()
		return float64(g.CountInEqOut()) / float64(g.NumVertices()) * 100
	}

	// Object granularity: layouts indistinguishable.
	objA, objB := inEqOut(buildA(ObjectGranularity)), inEqOut(buildB(ObjectGranularity))
	if objA != objB {
		t.Errorf("object granularity differs across layouts: %v vs %v", objA, objB)
	}
	// Field granularity: layouts produce different In=Out.
	fldA, fldB := inEqOut(buildA(FieldGranularity)), inEqOut(buildB(FieldGranularity))
	if fldA == fldB {
		t.Errorf("field granularity should differ across layouts: %v vs %v", fldA, fldB)
	}
}

func TestWildStoreIgnored(t *testing.T) {
	r := newRig(t, Options{})
	a := r.alloc(16)
	r.free(a)
	// Store through dangling pointer: heap permits, logger ignores.
	if err := r.h.Store(a, 99); err != nil {
		t.Fatal(err)
	}
	if r.l.Graph().NumVertices() != 0 {
		t.Error("wild store materialized a vertex")
	}
}

func TestLoggerStandaloneEvents(t *testing.T) {
	// The logger must also work when driven directly from replayed
	// trace events (offline mode), including redundant allocs.
	l := New(Options{Frequency: 1})
	l.Emit(event.Event{Type: event.Alloc, Addr: 4096, Size: 16})
	l.Emit(event.Event{Type: event.Alloc, Addr: 4096, Size: 16}) // duplicate: graph AddVertex dedups by fresh ID... should not crash
	l.Emit(event.Event{Type: event.Free, Addr: 8192})            // unknown free: ignored
	l.Emit(event.Event{Type: event.Enter, Fn: 1})
	if l.tick != 1 {
		t.Fatalf("ticks = %d", l.tick)
	}
}

func BenchmarkLoggerStore(b *testing.B) {
	h := heap.New()
	l := New(Options{})
	h.Subscribe(l)
	var nodes []uint64
	for i := 0; i < 1000; i++ {
		a, err := h.Alloc(32)
		if err != nil {
			b.Fatal(err)
		}
		nodes = append(nodes, a)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		src := nodes[i%1000]
		dst := nodes[(i*7)%1000]
		if err := h.Store(src, dst); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkSample100kVertices(b *testing.B) {
	h := heap.New()
	l := New(Options{Frequency: 1})
	h.Subscribe(l)
	var prev uint64
	for i := 0; i < 100000; i++ {
		a, err := h.Alloc(16)
		if err != nil {
			b.Fatal(err)
		}
		if prev != 0 {
			if err := h.Store(prev, a); err != nil {
				b.Fatal(err)
			}
		}
		prev = a
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		l.Emit(event.Event{Type: event.Enter, Fn: 1})
	}
}

func TestFieldGranularityAllocFree(t *testing.T) {
	r := newRig(t, Options{Granularity: FieldGranularity})
	a := r.alloc(32) // 4 word vertices
	if got := r.l.Graph().NumVertices(); got != 4 {
		t.Fatalf("vertices = %d, want 4 (one per word)", got)
	}
	b := r.alloc(16)
	r.store(a+8, b+8) // word 1 of a -> word 1 of b
	g := r.l.Graph()
	if g.NumEdges() != 1 {
		t.Fatalf("edges = %d, want 1", g.NumEdges())
	}
	// The edge runs between individual word vertices: exactly one
	// vertex has outdegree 1, exactly one has indegree 1.
	if g.CountOutDegree(1) != 1 || g.CountInDegree(1) != 1 {
		t.Errorf("degree counts: out1=%d in1=%d", g.CountOutDegree(1), g.CountInDegree(1))
	}
	r.free(a)
	if g.NumVertices() != 2 || g.NumEdges() != 0 {
		t.Errorf("after free: V=%d E=%d, want 2/0", g.NumVertices(), g.NumEdges())
	}
}

func TestFieldGranularityReallocGrow(t *testing.T) {
	r := newRig(t, Options{Granularity: FieldGranularity})
	a := r.alloc(16) // 2 words
	b := r.alloc(8)
	r.store(a, b)                 // word 0 of a -> b
	na, err := r.h.Realloc(a, 40) // grow to 5 words
	if err != nil {
		t.Fatal(err)
	}
	g := r.l.Graph()
	// 5 words of a + 1 word of b.
	if g.NumVertices() != 6 {
		t.Fatalf("vertices = %d, want 6", g.NumVertices())
	}
	// The word-0 edge survives the move; overwriting through the new
	// base retires it.
	if g.NumEdges() != 1 {
		t.Fatalf("edges after grow = %d, want 1", g.NumEdges())
	}
	r.store(na, 0)
	if g.NumEdges() != 0 {
		t.Errorf("edge not retired after overwrite at new base")
	}
}

func TestFieldGranularityReallocShrink(t *testing.T) {
	r := newRig(t, Options{Granularity: FieldGranularity})
	a := r.alloc(32) // 4 words
	b := r.alloc(8)
	r.store(a+24, b) // tail word -> b
	if _, err := r.h.Realloc(a, 16); err != nil {
		t.Fatal(err)
	}
	g := r.l.Graph()
	// 2 surviving words of a + 1 word of b; the tail edge died with
	// its source vertex.
	if g.NumVertices() != 3 || g.NumEdges() != 0 {
		t.Errorf("after shrink: V=%d E=%d, want 3/0", g.NumVertices(), g.NumEdges())
	}
}

func TestLoggerString(t *testing.T) {
	l := New(Options{Frequency: 5})
	if s := l.String(); !strings.Contains(s, "frq=5") {
		t.Errorf("String() = %q", s)
	}
}

func TestReportSeriesAbsentMetric(t *testing.T) {
	l := New(Options{Frequency: 1, Suite: metrics.NewSuite(metrics.Roots)})
	l.Emit(event.Event{Type: event.Enter, Fn: 1})
	rep := l.Report()
	if rep.Series(metrics.Leaves) != nil {
		t.Error("absent metric series should be nil")
	}
	if got := rep.Series(metrics.Roots); len(got) != 1 {
		t.Errorf("Roots series = %v", got)
	}
}
