package logger

import (
	"math/rand"
	"reflect"
	"sync"
	"testing"

	"heapmd/internal/callstack"
	"heapmd/internal/event"
	"heapmd/internal/metrics"
)

// arenaEvents builds a deterministic event stream confined to its own
// address arena: n allocations linked into a list, a churn of relinks,
// then frees of every other object, with function entries sprinkled in
// so sampling fires. Streams from different arenas touch disjoint
// addresses, so the aggregate graph counts after ingesting several
// streams are independent of how they interleave.
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

// graphCounts collects every concurrently-readable aggregate of a
// logger's graph.
func graphCounts(l *Logger) map[string]int {
	g := l.Graph()
	out := map[string]int{
		"vertices": g.NumVertices(),
		"edges":    g.NumEdges(),
		"eq":       g.CountInEqOut(),
	}
	for d := 0; d <= 8; d++ {
		out["in"+string(rune('0'+d))] = g.CountInDegree(d)
		out["out"+string(rune('0'+d))] = g.CountOutDegree(d)
	}
	return out
}

// TestPipelineSingleProducerMatchesDirect: with one producer the
// pipeline preserves event order, so the entire report — snapshots
// included — must be identical to feeding the logger directly.
func TestPipelineSingleProducerMatchesDirect(t *testing.T) {
	evs := arenaEvents(0, 500)

	direct := New(Options{Frequency: 16})
	for _, e := range evs {
		direct.Emit(e)
	}
	want := direct.Report()

	piped := New(Options{Frequency: 16})
	p := NewPipeline(piped, PipelineOptions{BatchSize: 64, QueueDepth: 4})
	pr := p.NewProducer()
	for _, e := range evs {
		pr.Emit(e)
	}
	pr.Close()
	if err := p.Close(); err != nil {
		t.Fatal(err)
	}
	got := piped.Report()

	if got.Events != want.Events || got.FnEntries != want.FnEntries {
		t.Fatalf("event accounting differs: got (%d, %d), want (%d, %d)",
			got.Events, got.FnEntries, want.Events, want.FnEntries)
	}
	if !reflect.DeepEqual(got.Snapshots, want.Snapshots) {
		t.Fatalf("snapshots differ between direct and pipelined ingestion")
	}
	if got.Health != want.Health {
		t.Fatalf("health differs: got %+v, want %+v", got.Health, want.Health)
	}
}

// TestPipelineConcurrentProducersDeterministicCounts: ≥4 producers in
// disjoint arenas ingested concurrently must yield exactly the graph
// aggregates of a serial reference ingestion, regardless of
// interleaving — the consumer's degree counts may not lose or
// double-count under any schedule.
func TestPipelineConcurrentProducersDeterministicCounts(t *testing.T) {
	const producers = 4
	const objs = 400

	serial := New(Options{Frequency: 16})
	total := 0
	for a := 0; a < producers; a++ {
		evs := arenaEvents(uint64(a), objs)
		total += len(evs)
		for _, e := range evs {
			serial.Emit(e)
		}
	}
	want := graphCounts(serial)

	l := New(Options{Frequency: 16})
	p := NewPipeline(l, PipelineOptions{BatchSize: 32, QueueDepth: 8})
	var wg sync.WaitGroup
	for a := 0; a < producers; a++ {
		wg.Add(1)
		go func(arena int) {
			defer wg.Done()
			pr := p.NewProducer()
			defer pr.Close()
			for _, e := range arenaEvents(uint64(arena), objs) {
				pr.Emit(e)
			}
		}(a)
	}
	wg.Wait()
	if err := p.Close(); err != nil {
		t.Fatal(err)
	}

	if l.events != uint64(total) {
		t.Fatalf("consumed %d events, produced %d", l.events, total)
	}
	if p.Dropped() != 0 {
		t.Fatalf("Block policy dropped %d events", p.Dropped())
	}
	got := graphCounts(l)
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("concurrent ingestion counts = %v, want %v", got, want)
	}
	if msg := l.Graph().CheckInvariants(); msg != "" {
		t.Fatalf("graph invariants violated after concurrent ingestion: %s", msg)
	}
}

// TestPipelineStressRace hammers the pipeline with 8 producers emitting
// randomized (per-arena) operation mixes. Run under -race this
// exercises every producer/consumer/reader interleaving; correctness
// assertions are conservation (produced == consumed + dropped) and
// graph invariants.
func TestPipelineStressRace(t *testing.T) {
	const producers = 8
	const perProducer = 3000

	l := New(Options{Frequency: 64})
	p := NewPipeline(l, PipelineOptions{BatchSize: 128, QueueDepth: 16})

	var wg sync.WaitGroup
	for a := 0; a < producers; a++ {
		wg.Add(1)
		go func(arena int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(arena)))
			base := (uint64(arena) + 1) << 32
			pr := p.NewProducer()
			defer pr.Close()
			live := make([]uint64, 0, 256)
			for i := 0; i < perProducer; i++ {
				switch rng.Intn(10) {
				case 0, 1, 2, 3:
					addr := base + uint64(i)*64
					pr.Emit(event.Event{Type: event.Alloc, Addr: addr, Size: 32, Fn: 1})
					live = append(live, addr)
				case 4, 5, 6:
					if len(live) >= 2 {
						src := live[rng.Intn(len(live))]
						dst := live[rng.Intn(len(live))]
						pr.Emit(event.Event{Type: event.Store, Addr: src + 8, Value: dst})
					}
				case 7:
					if len(live) > 0 {
						k := rng.Intn(len(live))
						pr.Emit(event.Event{Type: event.Free, Addr: live[k]})
						live = append(live[:k], live[k+1:]...)
					}
				default:
					pr.Emit(event.Event{Type: event.Enter, Fn: 2})
					pr.Emit(event.Event{Type: event.Leave})
				}
			}
		}(a)
	}
	wg.Wait()
	if err := p.Close(); err != nil {
		t.Fatal(err)
	}
	if p.Dropped() != 0 {
		t.Fatalf("Block policy dropped %d events", p.Dropped())
	}
	if msg := l.Graph().CheckInvariants(); msg != "" {
		t.Fatalf("graph invariants violated: %s", msg)
	}
	rep := l.Report()
	if rep.Events == 0 || rep.Health.DroppedEvents != 0 {
		t.Fatalf("unexpected report accounting: events=%d health=%+v", rep.Events, rep.Health)
	}
}

// TestPipelineDropPolicy gates the consumer shut, overfills the queue,
// and verifies the drop accounting: every produced event is either
// consumed or counted dropped, and the drops surface in the report's
// health counters.
func TestPipelineDropPolicy(t *testing.T) {
	const produced = 64
	gate := make(chan struct{})
	l := New(Options{Frequency: 16})
	p := NewPipeline(l, PipelineOptions{
		BatchSize:  1,
		QueueDepth: 2,
		Policy:     Drop,
		Gate:       gate,
	})
	pr := p.NewProducer()
	for _, e := range arenaEvents(0, produced/4)[:produced] {
		pr.Emit(e)
	}
	pr.Close()
	close(gate) // release the consumer to drain what was accepted
	if err := p.Close(); err != nil {
		t.Fatal(err)
	}

	dropped := p.Dropped()
	// With the gate held through every emit, at most QueueDepth
	// batches plus the one in the consumer's hands were accepted.
	if dropped == 0 {
		t.Fatal("gated Drop pipeline dropped nothing")
	}
	if got := l.events + dropped; got != produced {
		t.Fatalf("conservation: consumed %d + dropped %d != produced %d", l.events, dropped, produced)
	}
	rep := l.Report()
	if rep.Health.DroppedEvents != dropped {
		t.Fatalf("health.DroppedEvents = %d, want %d", rep.Health.DroppedEvents, dropped)
	}
	if rep.Health.Zero() {
		t.Fatal("drops must make the health counters nonzero")
	}
}

// TestPipelineAsyncMetricsMatchSync: the extended suite's WCC/SCC
// trackers live on the pipeline's consumer goroutine, so after
// Close/Report the snapshots must equal a synchronous run over the
// same events.
func TestPipelineAsyncMetricsMatchSync(t *testing.T) {
	evs := arenaEvents(0, 600)

	sync1 := New(Options{Frequency: 16, Suite: metrics.ExtendedSuite()})
	for _, e := range evs {
		sync1.Emit(e)
	}
	want := sync1.Report()

	asyncL := New(Options{Frequency: 16, Suite: metrics.ExtendedSuite()})
	p := NewPipeline(asyncL, PipelineOptions{BatchSize: 64})
	pr := p.NewProducer()
	for _, e := range evs {
		pr.Emit(e)
	}
	pr.Close()
	if err := p.Close(); err != nil {
		t.Fatal(err)
	}
	got := asyncL.Report()

	if len(got.Snapshots) != len(want.Snapshots) {
		t.Fatalf("snapshot count: got %d, want %d", len(got.Snapshots), len(want.Snapshots))
	}
	for i := range want.Snapshots {
		if !reflect.DeepEqual(got.Snapshots[i], want.Snapshots[i]) {
			t.Fatalf("snapshot %d differs:\nasync: %+v\nsync:  %+v", i, got.Snapshots[i], want.Snapshots[i])
		}
	}
}

// TestPipelineAsyncObserverSeesDefinedValues: observers on the
// consumer goroutine receive the exact component metrics — defined
// (not NaN) and equal to the snapshots the report records.
func TestPipelineAsyncObserverSeesDefinedValues(t *testing.T) {
	l := New(Options{Frequency: 16, Suite: metrics.ExtendedSuite()})
	suite := l.Suite()
	wccIdx := suite.Index(metrics.Components)
	var observed [][]float64
	l.Observe(observerFunc(func(snap metrics.Snapshot) {
		vals := append([]float64(nil), snap.Values...)
		observed = append(observed, vals)
	}))
	p := NewPipeline(l, PipelineOptions{BatchSize: 32})
	pr := p.NewProducer()
	for _, e := range arenaEvents(0, 400) {
		pr.Emit(e)
	}
	pr.Close()
	if err := p.Close(); err != nil {
		t.Fatal(err)
	}
	if len(observed) == 0 {
		t.Fatal("observer saw no samples")
	}
	for i, vals := range observed {
		if len(vals) != suite.Len() {
			t.Fatalf("sample %d has %d values, want %d", i, len(vals), suite.Len())
		}
		if v := vals[wccIdx]; v != v { // NaN check
			t.Fatalf("sample %d carries NaN for %s", i, metrics.Components)
		}
	}
	if rep := l.Report(); !reflect.DeepEqual(observed, seriesOf(rep.Snapshots)) {
		t.Fatal("observed samples differ from the recorded snapshots")
	}
}

func seriesOf(snaps []metrics.Snapshot) [][]float64 {
	out := make([][]float64, len(snaps))
	for i, s := range snaps {
		out[i] = s.Values
	}
	return out
}

// observerFunc adapts a function to SampleObserver.
type observerFunc func(metrics.Snapshot)

func (f observerFunc) Sample(snap metrics.Snapshot, _ *callstack.Tracker) { f(snap) }
