// Package logger implements HeapMD's execution logger (paper Section
// 2.1, Figure 2): the component that consumes the instrumentation
// event stream, maintains an image of the heap-graph, and computes the
// metric suite at metric computation points.
//
// Design notes carried over from the paper:
//
//   - The logger maintains its own image of heap connectivity rather
//     than traversing the program's heap, "preserving cache-locality";
//     here that translates to the logger holding an independent
//     page-indexed object table (addrindex.Table) and per-object
//     edge-slot tables, driven purely by events.
//   - Metric computation points are function entries; metrics are
//     computed once every Frequency entries (paper: frq = 1/100,000).
//   - The heap-graph is built at object granularity by default. Field
//     granularity (every word is a vertex, Figure 3) is available for
//     the layout-sensitivity ablation.
//   - Edges are created and destroyed only by observed writes, frees
//     and reallocs: a pointer whose referent is freed silently loses
//     its edge, and a recycled address does not resurrect old edges.
package logger

import (
	"fmt"
	"slices"

	"heapmd/internal/addrindex"
	"heapmd/internal/arena"
	"heapmd/internal/callstack"
	"heapmd/internal/event"
	"heapmd/internal/health"
	"heapmd/internal/heapgraph"
	"heapmd/internal/metrics"
)

// Granularity selects how heap-graph vertices map onto heap memory
// (paper Figure 3).
type Granularity int

const (
	// ObjectGranularity makes each allocated object one vertex; all
	// pointers between two objects collapse onto multi-edges between
	// their vertices. This is the paper's default: it requires no
	// type information and is insensitive to field layout.
	ObjectGranularity Granularity = iota
	// FieldGranularity makes each word of each object a vertex. The
	// resulting metrics are sensitive to field layout within
	// objects, which is exactly the pathology the paper's Figure 3
	// illustrates; provided for the ablation experiment.
	FieldGranularity
)

func (g Granularity) String() string {
	if g == FieldGranularity {
		return "field"
	}
	return "object"
}

// SimulationFrequency is the sampling frequency for the simulated
// workloads and trace replay (one metric computation per 16 function
// entries). It differs from the paper's frq = 1/100,000 because the
// paper instruments real x86 binaries that execute hundreds of
// millions of function entries per run, while the simulated workloads
// here generate only thousands; both settings yield a few hundred
// metric computation points per run, which is what the summarizer
// and detector actually need. It is the default of Options.Frequency,
// so every run that does not pick a frequency (Session.NewRun,
// ReplayTrace, the workload harness, soak) samples at the same rate
// and recorded and replayed reports stay comparable.
const SimulationFrequency = 16

// Options configures a Logger.
type Options struct {
	// Suite is the metric suite to evaluate; zero value means
	// metrics.DefaultSuite().
	Suite metrics.Suite
	// Frequency samples metrics once every Frequency function
	// entries. Zero means SimulationFrequency.
	Frequency uint64
	// Granularity selects object- or field-granularity graphs.
	Granularity Granularity
	// Connectivity is ignored.
	//
	// Deprecated: component counts are always incremental.
	Connectivity ConnectivityMode
	// SCC is ignored.
	//
	// Deprecated: component counts are always incremental.
	SCC ConnectivityMode
}

// ConnectivityMode is the type of the retired Options.Connectivity and
// Options.SCC fields. Its one value names the only component-count
// path there is.
//
// Deprecated: component counts are always incremental.
type ConnectivityMode uint8

// String returns "incremental".
func (ConnectivityMode) String() string { return "incremental" }

// SampleObserver is notified at every metric computation point with
// the fresh snapshot and a view of the current call stack. The online
// anomaly detector and the live plotter attach here.
type SampleObserver interface {
	Sample(snap metrics.Snapshot, stack *callstack.Tracker)
}

// objInfo is the logger's record of one live heap object. It is
// stored by value inside the address table's arena, which also holds
// the object's range; pointers obtained from Stab/Get are valid until
// the object is removed from the table.
type objInfo struct {
	vertex heapgraph.VertexID // object-granularity vertex
	// slots records which offsets within the object currently hold a
	// pointer, mapping each to the *target vertex* recorded when the
	// write was observed. At field granularity the key is the same
	// but the source vertex is the slot's own word vertex. A target
	// freed since is a stale handle, which the graph ignores.
	slots slotTable
	// wordVertices holds per-word vertex handles at field granularity;
	// nil at object granularity.
	wordVertices []heapgraph.VertexID
}

// Report is the raw metric report of one execution: the sequence of
// snapshots taken at metric computation points, plus identifying
// metadata. The metric summarizer (package model) consolidates
// Reports from training runs into a model.
type Report struct {
	Program   string             `json:"program"`
	Input     string             `json:"input"`
	Version   int                `json:"version"`
	Suite     []string           `json:"suite"` // metric names, in order
	Snapshots []metrics.Snapshot `json:"snapshots"`
	// FnEntries is the total number of function entries observed.
	FnEntries uint64 `json:"fn_entries"`
	// Events is the total number of events consumed.
	Events uint64 `json:"events"`
	// Health tallies instrumentation the logger observed but could
	// not apply to the heap image — double frees, wild stores and
	// friends. These drops are bug evidence in their own right; the
	// detector raises InstrumentationAnomaly findings from them.
	Health health.Counters `json:"health"`
}

// Series extracts the value series of the named metric from the
// report, or nil if absent.
func (r *Report) Series(id metrics.ID) []float64 {
	idx := slices.Index(r.Suite, id.String())
	if idx < 0 {
		return nil
	}
	return metrics.AppendSeries(make([]float64, 0, len(r.Snapshots)), r.Snapshots, idx)
}

// Logger consumes events and produces a Report. It implements
// event.Sink. A Logger is single-goroutine: it consumes one in-order
// event stream.
type Logger struct {
	opts  Options
	suite metrics.Suite

	graph   *heapgraph.Graph
	objects *addrindex.Table[objInfo]
	stack   *callstack.Tracker

	fnEntries uint64
	events    uint64
	tick      uint64 // metric computation points taken so far

	// freed remembers base addresses that were live and then freed
	// (and not since recycled), so a miss in onFree can be
	// classified as a double free rather than a wild free.
	freed  map[uint64]struct{}
	health health.Counters

	// words recycles the words tiers of the objects' slot tables.
	words arena.SizeClasses[heapgraph.VertexID]

	snaps     []metrics.Snapshot
	observers []SampleObserver

	program string
	input   string
	version int
}

// released holds loggers handed back by Release for New to reuse.
var released arena.FreeList[Logger]

// emptyLogger builds a logger no run has used.
func emptyLogger() *Logger {
	return &Logger{
		graph:   heapgraph.New(),
		objects: addrindex.New[objInfo](),
		stack:   callstack.NewTracker(),
		freed:   make(map[uint64]struct{}),
	}
}

// New creates a Logger. It reuses a logger handed back by Release when
// one is in the free list: the heap image is reset in place, keeping
// the storage an earlier run grew, and the result behaves exactly like
// a logger built from nothing.
func New(opts Options) *Logger {
	l := released.Get()
	if l == nil {
		l = emptyLogger()
	}
	l.reset(opts)
	return l
}

// reset empties every layer of the heap image and applies opts.
func (l *Logger) reset(opts Options) {
	if opts.Frequency == 0 {
		opts.Frequency = SimulationFrequency
	}
	if opts.Suite.Len() == 0 {
		opts.Suite = metrics.DefaultSuite()
	}
	l.graph.Reset()
	if l.words.Out() > 0 {
		l.objects.Values(func(info *objInfo) { info.slots.release(&l.words) })
	}
	l.objects.Reset()
	l.stack.Reset()
	clear(l.freed)
	*l = Logger{
		opts:    opts,
		suite:   opts.Suite,
		graph:   l.graph,
		objects: l.objects,
		stack:   l.stack,
		freed:   l.freed,
		words:   l.words,
	}
	// The component trackers cost work on every mutation, so only a
	// suite that reads them turns them on.
	if opts.Suite.Index(metrics.Components) >= 0 {
		l.graph.TrackConnectivity()
	}
	if opts.Suite.Index(metrics.SCCs) >= 0 {
		l.graph.TrackSCC()
	}
}

// Release hands a finished logger back for a later New to reuse. The
// caller must be done with it and with everything it exposes — Graph,
// Stack, Health — and must feed it no more events. Reports taken
// before Release stay valid: they share no storage with the logger.
// Release drops the logger's references to observers, the suite and
// the snapshots, so pooling it keeps none of them alive.
func (l *Logger) Release() {
	*l = Logger{graph: l.graph, objects: l.objects, stack: l.stack, freed: l.freed, words: l.words}
	released.Put(l)
}

// SetRun records identifying metadata copied into the Report.
func (l *Logger) SetRun(program, input string, version int) {
	l.program, l.input, l.version = program, input, version
}

// Observe registers a sample observer.
func (l *Logger) Observe(o SampleObserver) { l.observers = append(l.observers, o) }

// Graph exposes the live heap-graph image (read-only by convention);
// tests and diagnostic tools use it.
func (l *Logger) Graph() *heapgraph.Graph { return l.graph }

// Health exposes the logger's instrumentation-health counters. The
// returned pointer is live: trace ingestion uses it to record salvage
// gaps, and the counters are copied into the Report.
func (l *Logger) Health() *health.Counters { return &l.health }

// Emit implements event.Sink.
func (l *Logger) Emit(e event.Event) {
	l.events++
	switch e.Type {
	case event.Alloc:
		l.onAlloc(e.Addr, e.Size)
	case event.Free:
		l.onFree(e.Addr)
	case event.Realloc:
		l.onRealloc(e.Addr, e.Value, e.Size)
	case event.Store:
		l.onStore(e.Addr, e.Value)
	case event.Load:
		// Loads do not change the heap-graph.
	case event.Enter:
		l.stack.Enter(e.Fn)
		l.fnEntries++
		if l.fnEntries%l.opts.Frequency == 0 {
			l.sample()
		}
	case event.Leave:
		l.stack.Leave()
	default:
		// Unknown type byte: version skew or a damaged trace that
		// still checksummed (v1 has no checksums at all). Count it;
		// a spike means the stream itself is suspect.
		l.health.UnknownEvents++
	}
}

// EmitBatch implements event.BatchSink: one devirtualized dispatch per
// frame of replayed events instead of one interface call per event.
// The batch slice is borrowed (see event.BatchSink) and fully consumed
// before return. Relative to per-event Emit it hoists the bookkeeping
// out of the inner loop: the event counter becomes one add per batch,
// and the Frequency modulo on every Enter becomes a countdown re-armed
// only at sampling points. Event semantics and ordering are identical
// to Emit called in a loop.
func (l *Logger) EmitBatch(batch []event.Event) {
	l.events += uint64(len(batch))
	frq := l.opts.Frequency
	toNext := frq - l.fnEntries%frq
	for i := range batch {
		e := &batch[i]
		switch e.Type {
		case event.Store:
			l.onStore(e.Addr, e.Value)
		case event.Enter:
			l.stack.Enter(e.Fn)
			l.fnEntries++
			if toNext--; toNext == 0 {
				l.sample()
				toNext = frq
			}
		case event.Leave:
			l.stack.Leave()
		case event.Alloc:
			l.onAlloc(e.Addr, e.Size)
		case event.Free:
			l.onFree(e.Addr)
		case event.Realloc:
			l.onRealloc(e.Addr, e.Value, e.Size)
		case event.Load:
			// Loads do not change the heap-graph.
		default:
			l.health.UnknownEvents++
		}
	}
}

// onAlloc inserts a zero record and fills it in place: the record is
// large, and building it on the stack would cost a copy per allocation.
func (l *Logger) onAlloc(base, size uint64) {
	info := l.objects.InsertZero(base, size)
	if l.opts.Granularity == FieldGranularity {
		nWords := size / 8
		info.wordVertices = make([]heapgraph.VertexID, nWords)
		for i := range info.wordVertices {
			info.wordVertices[i] = l.graph.AddVertex()
		}
	} else {
		info.vertex = l.graph.AddVertex()
	}
	delete(l.freed, base) // address recycled: a future free is legitimate
}

func (l *Logger) onFree(base uint64) {
	info, ok := l.objects.Remove(base)
	if !ok {
		// Nothing in the image — but that absence is evidence.
		if _, was := l.freed[base]; was {
			l.health.DoubleFrees++
		} else {
			l.health.WildFrees++
		}
		return
	}
	l.freed[base] = struct{}{}
	info.slots.release(&l.words)
	if info.wordVertices != nil {
		for _, v := range info.wordVertices {
			l.graph.RemoveVertex(v)
		}
	} else {
		l.graph.RemoveVertex(info.vertex)
	}
}

// onRealloc re-bases the object's record in place (Table.Move): the
// record is large, and it is never copied out.
func (l *Logger) onRealloc(oldBase, newBase, newSize uint64) {
	info, ok := l.objects.Move(oldBase, newBase, newSize)
	if !ok {
		// Realloc of a freed, never-allocated or interior address.
		l.health.BadReallocs++
		return
	}
	if newBase != oldBase {
		l.freed[oldBase] = struct{}{} // the old placement is released
	}
	delete(l.freed, newBase)
	if info.wordVertices != nil {
		l.reallocField(info, newSize)
		return
	}
	// Object granularity: the vertex survives the move; slots beyond
	// the new size lose their outgoing edges. Slot keys are offsets,
	// so the move itself rewrites nothing.
	info.slots.resize(newSize, func(_ uint64, target heapgraph.VertexID) {
		l.graph.RemoveEdge(info.vertex, target)
	}, &l.words)
}

func (l *Logger) reallocField(info *objInfo, newSize uint64) {
	oldWords := uint64(len(info.wordVertices))
	newWords := newSize / 8
	// Shrink: drop vertices past the end (their edges die with them).
	for i := newWords; i < oldWords; i++ {
		l.graph.RemoveVertex(info.wordVertices[i])
	}
	wv := make([]heapgraph.VertexID, newWords)
	copy(wv, info.wordVertices[:min(oldWords, newWords)])
	// Grow: fresh vertices for the new words.
	for i := oldWords; i < newWords; i++ {
		wv[i] = l.graph.AddVertex()
	}
	// Drop the slots whose source word vertex no longer exists — their
	// edges died with the vertices above, so no drop callback. The
	// cutoff is the surviving word span, not newSize: with a size not
	// a multiple of 8, a slot can sit below newSize but inside the
	// truncated tail word.
	info.slots.resize(newWords*8, nil, &l.words)
	info.wordVertices = wv
}

// sourceVertex returns the vertex that an edge stored at offset off
// inside info originates from. The second return is false when the
// offset has no vertex — the tail bytes of a field-granularity object
// whose size is not a whole number of words.
func sourceVertex(info *objInfo, off uint64) (heapgraph.VertexID, bool) {
	if info.wordVertices != nil {
		if i := off / 8; i < uint64(len(info.wordVertices)) {
			return info.wordVertices[i], true
		}
		return 0, false
	}
	return info.vertex, true
}

// targetVertex resolves a stored word to a vertex if it points into a
// live object.
func (l *Logger) targetVertex(value uint64) (heapgraph.VertexID, bool) {
	base, _, info, ok := l.objects.Stab(value)
	if !ok {
		return 0, false
	}
	if info.wordVertices != nil {
		if i := (value - base) / 8; i < uint64(len(info.wordVertices)) {
			return info.wordVertices[i], true
		}
		return 0, false
	}
	return info.vertex, true
}

func (l *Logger) onStore(addr, value uint64) {
	base, size, info, ok := l.objects.Stab(addr)
	if !ok {
		// Wild store: not part of the live heap image. The write is
		// dropped, but its existence is a corruption signal.
		l.health.WildStores++
		return
	}
	off := addr - base
	src, srcOK := sourceVertex(info, off)
	if !srcOK {
		// Inside a live object but past its last whole word — no
		// vertex can anchor the edge, so the write cannot be applied.
		l.health.WildStores++
		return
	}
	// Retire the slot's previous edge, if any.
	if oldTarget, had := info.slots.get(off); had {
		l.graph.RemoveEdge(src, oldTarget)
		info.slots.del(off)
	}
	// Install the new edge if the value points into a live object.
	// targetVertex stabs the table but never removes, so the info
	// pointer stays valid across it.
	if target, isPtr := l.targetVertex(value); isPtr {
		l.graph.AddEdge(src, target)
		info.slots.set(off, target, size, &l.words)
	}
}

// sample computes a metric snapshot and dispatches it to observers.
// A panicking observer is quarantined — removed from the dispatch
// list and tallied in the health counters — rather than being allowed
// to kill the monitored run: HeapMD exists to watch buggy programs,
// and one faulty diagnostic attachment must not end the diagnosis.
func (l *Logger) sample() {
	l.tick++
	snap := l.suite.Compute(l.graph, l.tick)
	l.snaps = append(l.snaps, snap)
	for i := 0; i < len(l.observers); i++ {
		if l.dispatch(l.observers[i], snap) {
			continue
		}
		l.health.ObserverPanics++
		l.observers = append(l.observers[:i], l.observers[i+1:]...)
		i--
	}
}

// dispatch delivers one sample to one observer, converting a panic
// into a false return.
func (l *Logger) dispatch(o SampleObserver, snap metrics.Snapshot) (ok bool) {
	defer func() {
		if recover() != nil {
			ok = false
		}
	}()
	o.Sample(snap, l.stack)
	return true
}

// Report finalizes and returns the metric report for the run.
func (l *Logger) Report() *Report {
	names := make([]string, l.suite.Len())
	for i, id := range l.suite.IDs() {
		names[i] = id.String()
	}
	return &Report{
		Program:   l.program,
		Input:     l.input,
		Version:   l.version,
		Suite:     names,
		Snapshots: l.snaps,
		FnEntries: l.fnEntries,
		Events:    l.events,
		Health:    l.health,
	}
}

// String summarizes logger state.
func (l *Logger) String() string {
	return fmt.Sprintf("logger{gran=%s frq=%d ticks=%d %s}",
		l.opts.Granularity, l.opts.Frequency, l.tick, l.graph)
}
