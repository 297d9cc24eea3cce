package logger_test

// This file is the end-to-end oracle for the optimization that moved
// the logger from treap address resolution + map-based graph storage
// onto the page-indexed address table, the vertex arena and the inline
// slot/adjacency tables. The reference implementation below rebuilds
// the logger's exact pre-optimization semantics on the old structures
// — intervals.Map for address resolution, absolute-address slot maps,
// per-vertex adjacency maps with brute-force degree counting — and
// both implementations consume identical event streams. Every metric
// value must match bit for bit, every health counter exactly, and the
// detector must derive identical findings: the optimization is a
// storage change, not a semantic one.
//
// It lives in the external test package because it exercises the
// model/detect layers and the workload harness, both of which import
// the logger.

import (
	"math"
	"math/rand"
	"testing"

	"heapmd/internal/detect"
	"heapmd/internal/event"
	"heapmd/internal/health"
	"heapmd/internal/heapgraph"
	"heapmd/internal/intervals"
	"heapmd/internal/logger"
	"heapmd/internal/metrics"
	"heapmd/internal/model"
	"heapmd/internal/workloads"
)

// ---- reference graph: map adjacency, degrees recomputed on demand ----

type refVertex struct {
	out map[heapgraph.VertexID]int
	in  map[heapgraph.VertexID]int
}

type refGraph struct {
	v     map[heapgraph.VertexID]*refVertex
	edges int
}

func newRefGraph() *refGraph { return &refGraph{v: make(map[heapgraph.VertexID]*refVertex)} }

func (g *refGraph) addVertex(id heapgraph.VertexID) {
	if _, ok := g.v[id]; !ok {
		g.v[id] = &refVertex{out: make(map[heapgraph.VertexID]int), in: make(map[heapgraph.VertexID]int)}
	}
}

func (g *refGraph) removeVertex(id heapgraph.VertexID) {
	vx, ok := g.v[id]
	if !ok {
		return
	}
	for succ, mult := range vx.out {
		g.edges -= mult
		if succ != id {
			delete(g.v[succ].in, id)
		}
	}
	for pred, mult := range vx.in {
		if pred == id {
			continue
		}
		g.edges -= mult
		delete(g.v[pred].out, id)
	}
	delete(g.v, id)
}

func (g *refGraph) addEdge(u, v heapgraph.VertexID) bool {
	ux, ok := g.v[u]
	if !ok {
		return false
	}
	vx, ok := g.v[v]
	if !ok {
		return false
	}
	ux.out[v]++
	vx.in[u]++
	g.edges++
	return true
}

func (g *refGraph) removeEdge(u, v heapgraph.VertexID) bool {
	ux, ok := g.v[u]
	if !ok || ux.out[v] == 0 {
		return false
	}
	ux.out[v]--
	if ux.out[v] == 0 {
		delete(ux.out, v)
	}
	vx := g.v[v]
	vx.in[u]--
	if vx.in[u] == 0 {
		delete(vx.in, u)
	}
	g.edges--
	return true
}

func (vx *refVertex) degrees() (in, out int) {
	for _, m := range vx.in {
		in += m
	}
	for _, m := range vx.out {
		out += m
	}
	return in, out
}

// wccCount counts weakly connected components by BFS.
func (g *refGraph) wccCount() int {
	seen := make(map[heapgraph.VertexID]bool, len(g.v))
	count := 0
	var queue []heapgraph.VertexID
	for root := range g.v {
		if seen[root] {
			continue
		}
		count++
		queue = append(queue[:0], root)
		seen[root] = true
		for len(queue) > 0 {
			id := queue[len(queue)-1]
			queue = queue[:len(queue)-1]
			vx := g.v[id]
			for s := range vx.out {
				if !seen[s] {
					seen[s] = true
					queue = append(queue, s)
				}
			}
			for p := range vx.in {
				if !seen[p] {
					seen[p] = true
					queue = append(queue, p)
				}
			}
		}
	}
	return count
}

// sccCount counts strongly connected components (iterative Tarjan).
// Map iteration order varies run to run, but the number of SCCs is a
// graph property, independent of visit order.
func (g *refGraph) sccCount() int {
	index := make(map[heapgraph.VertexID]int, len(g.v))
	lowlink := make(map[heapgraph.VertexID]int, len(g.v))
	onStack := make(map[heapgraph.VertexID]bool, len(g.v))
	var sccStack []heapgraph.VertexID
	next, count := 1, 0

	type frame struct {
		v     heapgraph.VertexID
		succs []heapgraph.VertexID
		pos   int
	}
	succsOf := func(id heapgraph.VertexID) []heapgraph.VertexID {
		vx := g.v[id]
		out := make([]heapgraph.VertexID, 0, len(vx.out))
		for s := range vx.out {
			out = append(out, s)
		}
		return out
	}
	for root := range g.v {
		if index[root] != 0 {
			continue
		}
		stack := []frame{{v: root, succs: succsOf(root)}}
		index[root], lowlink[root] = next, next
		next++
		sccStack = append(sccStack, root)
		onStack[root] = true
		for len(stack) > 0 {
			f := &stack[len(stack)-1]
			if f.pos < len(f.succs) {
				w := f.succs[f.pos]
				f.pos++
				if index[w] == 0 {
					index[w], lowlink[w] = next, next
					next++
					sccStack = append(sccStack, w)
					onStack[w] = true
					stack = append(stack, frame{v: w, succs: succsOf(w)})
				} else if onStack[w] && index[w] < lowlink[f.v] {
					lowlink[f.v] = index[w]
				}
				continue
			}
			v := f.v
			stack = stack[:len(stack)-1]
			if len(stack) > 0 {
				parent := stack[len(stack)-1].v
				if lowlink[v] < lowlink[parent] {
					lowlink[parent] = lowlink[v]
				}
			}
			if lowlink[v] == index[v] {
				for {
					w := sccStack[len(sccStack)-1]
					sccStack = sccStack[:len(sccStack)-1]
					onStack[w] = false
					if w == v {
						break
					}
				}
				count++
			}
		}
	}
	return count
}

// ---- reference logger: the pre-optimization event semantics ----

type refObj struct {
	vertex       heapgraph.VertexID
	base, size   uint64
	slots        map[uint64]heapgraph.VertexID // keyed by absolute address
	wordVertices []heapgraph.VertexID
}

type refLogger struct {
	field     bool
	frequency uint64
	suite     metrics.Suite

	graph   *refGraph
	objects *intervals.Map[*refObj]

	vertexSeq uint64
	fnEntries uint64
	events    uint64
	tick      uint64

	freed  map[uint64]struct{}
	health health.Counters
	snaps  []metrics.Snapshot
}

func newRefLogger(suite metrics.Suite, frequency uint64, field bool) *refLogger {
	return &refLogger{
		field:     field,
		frequency: frequency,
		suite:     suite,
		graph:     newRefGraph(),
		objects:   intervals.New[*refObj](),
		freed:     make(map[uint64]struct{}),
	}
}

func (l *refLogger) newVertex() heapgraph.VertexID {
	l.vertexSeq++
	return heapgraph.VertexID(l.vertexSeq)
}

func (l *refLogger) Emit(e event.Event) {
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
	case event.Enter:
		l.fnEntries++
		if l.fnEntries%l.frequency == 0 {
			l.sample()
		}
	case event.Leave:
	default:
		l.health.UnknownEvents++
	}
}

func (l *refLogger) onAlloc(base, size uint64) {
	info := &refObj{base: base, size: size, slots: make(map[uint64]heapgraph.VertexID)}
	if l.field {
		info.wordVertices = make([]heapgraph.VertexID, size/8)
		for i := range info.wordVertices {
			v := l.newVertex()
			info.wordVertices[i] = v
			l.graph.addVertex(v)
		}
	} else {
		info.vertex = l.newVertex()
		l.graph.addVertex(info.vertex)
	}
	l.objects.Insert(base, size, info)
	delete(l.freed, base)
}

func (l *refLogger) onFree(base uint64) {
	info, ok := l.objects.Get(base)
	if !ok {
		if _, was := l.freed[base]; was {
			l.health.DoubleFrees++
		} else {
			l.health.WildFrees++
		}
		return
	}
	l.freed[base] = struct{}{}
	l.objects.Remove(base)
	if info.wordVertices != nil {
		for _, v := range info.wordVertices {
			l.graph.removeVertex(v)
		}
	} else {
		l.graph.removeVertex(info.vertex)
	}
}

func (l *refLogger) onRealloc(oldBase, newBase, newSize uint64) {
	info, ok := l.objects.Get(oldBase)
	if !ok {
		l.health.BadReallocs++
		return
	}
	l.objects.Remove(oldBase)
	if newBase != oldBase {
		l.freed[oldBase] = struct{}{}
	}
	delete(l.freed, newBase)
	if info.wordVertices != nil {
		oldWords := uint64(len(info.wordVertices))
		newWords := newSize / 8
		for i := newWords; i < oldWords; i++ {
			l.graph.removeVertex(info.wordVertices[i])
		}
		wv := make([]heapgraph.VertexID, newWords)
		copy(wv, info.wordVertices[:min(oldWords, newWords)])
		for i := oldWords; i < newWords; i++ {
			v := l.newVertex()
			wv[i] = v
			l.graph.addVertex(v)
		}
		// Slots whose source word vertex survives are rekeyed to the
		// new base; the rest died with their vertices.
		newSlots := make(map[uint64]heapgraph.VertexID, len(info.slots))
		for addr, target := range info.slots {
			if off := addr - oldBase; off/8 < newWords {
				newSlots[newBase+off] = target
			}
		}
		info.base, info.size, info.slots, info.wordVertices = newBase, newSize, newSlots, wv
		l.objects.Insert(newBase, newSize, info)
		return
	}
	newSlots := make(map[uint64]heapgraph.VertexID, len(info.slots))
	for addr, target := range info.slots {
		off := addr - oldBase
		if off >= newSize {
			l.graph.removeEdge(info.vertex, target)
			continue
		}
		newSlots[newBase+off] = target
	}
	info.base, info.size, info.slots = newBase, newSize, newSlots
	l.objects.Insert(newBase, newSize, info)
}

func (l *refLogger) sourceVertex(info *refObj, addr uint64) (heapgraph.VertexID, bool) {
	if info.wordVertices != nil {
		if i := (addr - info.base) / 8; i < uint64(len(info.wordVertices)) {
			return info.wordVertices[i], true
		}
		return 0, false
	}
	return info.vertex, true
}

func (l *refLogger) targetVertex(value uint64) (heapgraph.VertexID, bool) {
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

func (l *refLogger) onStore(addr, value uint64) {
	_, _, info, ok := l.objects.Stab(addr)
	if !ok {
		l.health.WildStores++
		return
	}
	src, srcOK := l.sourceVertex(info, addr)
	if !srcOK {
		l.health.WildStores++
		return
	}
	if oldTarget, had := info.slots[addr]; had {
		l.graph.removeEdge(src, oldTarget)
		delete(info.slots, addr)
	}
	if target, isPtr := l.targetVertex(value); isPtr {
		l.graph.addEdge(src, target)
		info.slots[addr] = target
	}
}

// sample recomputes every metric by brute force, using the same
// floating-point expression the suite does, so an agreeing count
// yields the identical bit pattern.
func (l *refLogger) sample() {
	l.tick++
	n := len(l.graph.v)
	snap := metrics.Snapshot{
		Tick:     l.tick,
		Vertices: n,
		Edges:    l.graph.edges,
		Values:   make([]float64, l.suite.Len()),
	}
	if n == 0 {
		l.snaps = append(l.snaps, snap)
		return
	}
	var in0, in1, in2, out0, out1, out2, eq int
	for _, vx := range l.graph.v {
		in, out := vx.degrees()
		switch in {
		case 0:
			in0++
		case 1:
			in1++
		case 2:
			in2++
		}
		switch out {
		case 0:
			out0++
		case 1:
			out1++
		case 2:
			out2++
		}
		if in == out {
			eq++
		}
	}
	pct := func(count int) float64 { return float64(count) / float64(n) * 100 }
	for i, id := range l.suite.IDs() {
		switch id {
		case metrics.Roots:
			snap.Values[i] = pct(in0)
		case metrics.InDeg1:
			snap.Values[i] = pct(in1)
		case metrics.InDeg2:
			snap.Values[i] = pct(in2)
		case metrics.Leaves:
			snap.Values[i] = pct(out0)
		case metrics.OutDeg1:
			snap.Values[i] = pct(out1)
		case metrics.OutDeg2:
			snap.Values[i] = pct(out2)
		case metrics.InEqOut:
			snap.Values[i] = pct(eq)
		case metrics.Components:
			snap.Values[i] = float64(l.graph.wccCount()) / float64(n) * 100
		case metrics.SCCs:
			snap.Values[i] = float64(l.graph.sccCount()) / float64(n) * 100
		}
	}
	l.snaps = append(l.snaps, snap)
}

func (l *refLogger) report(program, input string, version int) *logger.Report {
	names := make([]string, l.suite.Len())
	for i, id := range l.suite.IDs() {
		names[i] = id.String()
	}
	return &logger.Report{
		Program:   program,
		Input:     input,
		Version:   version,
		Suite:     names,
		Snapshots: l.snaps,
		FnEntries: l.fnEntries,
		Events:    l.events,
		Health:    l.health,
	}
}

// ---- deterministic event-stream generator ----

// genCfg sizes a generated stream. bigOdds is the 1-in-N chance that
// an allocation lands in the large-object region; bigPagesMax bounds
// its page count. Field-granularity runs use small values for both:
// every word of a large object is a vertex there, and the reference
// implementation rescans all of them at every sample.
type genCfg struct {
	nOps        int
	bigOdds     int
	bigPagesMax int
}

// genEvents produces a deterministic mixed workload: allocation and
// free churn with address recycling, reallocs (moving, resizing and
// invalid), pointer stores (interior targets, overwrites, self-loops,
// misses), wild operations of every flavour, unknown event types and
// enough function entries to sample steadily. All sizes and store
// offsets are word multiples, matching what real instrumentation of a
// word-aligned allocator emits.
func genEvents(seed int64, cfg genCfg) []event.Event {
	nOps := cfg.nOps
	rng := rand.New(rand.NewSource(seed))
	const (
		cellPitch = 1024 // small-object region: one object per KiB cell
		smallBase = 0x100_0000_0000
		bigPitch  = 1 << 20 // large-object region: page-spanning objects
		bigBase   = 0x200_0000_0000
		wildBase  = 0x300_0000_0000 // never allocated
	)
	var evs []event.Event
	var live []uint64 // bases
	size := make(map[uint64]uint64)
	nextSmall, nextBig := uint64(0), uint64(0)
	var freeSmall, freeBig []uint64 // recyclable cells

	alignedSize := func(big bool) uint64 {
		if big {
			return uint64(rng.Intn(cfg.bigPagesMax)+1) * 4096 // page-spanning
		}
		return uint64(rng.Intn(64)+1) * 8 // 8..512 bytes
	}
	newBase := func(big bool) uint64 {
		if big {
			if len(freeBig) > 0 && rng.Intn(2) == 0 {
				b := freeBig[len(freeBig)-1]
				freeBig = freeBig[:len(freeBig)-1]
				return b
			}
			nextBig++
			return bigBase + (nextBig-1)*bigPitch
		}
		if len(freeSmall) > 0 && rng.Intn(2) == 0 {
			b := freeSmall[len(freeSmall)-1]
			freeSmall = freeSmall[:len(freeSmall)-1]
			return b
		}
		nextSmall++
		return smallBase + (nextSmall-1)*cellPitch
	}
	recycle := func(b uint64) {
		if b >= bigBase {
			freeBig = append(freeBig, b)
		} else {
			freeSmall = append(freeSmall, b)
		}
	}
	pickLive := func() int { return rng.Intn(len(live)) }

	for op := 0; op < nOps; op++ {
		switch r := rng.Intn(100); {
		case r < 22: // alloc
			big := rng.Intn(cfg.bigOdds) == 0
			b := newBase(big)
			s := alignedSize(big)
			evs = append(evs, event.Event{Type: event.Alloc, Addr: b, Size: s, Fn: 1})
			live = append(live, b)
			size[b] = s
		case r < 34: // free
			switch {
			case len(live) > 0 && rng.Intn(10) != 0:
				i := pickLive()
				b := live[i]
				live[i] = live[len(live)-1]
				live = live[:len(live)-1]
				evs = append(evs, event.Event{Type: event.Free, Addr: b, Size: size[b]})
				delete(size, b)
				recycle(b)
			case rng.Intn(2) == 0: // double free of a retired cell
				if len(freeSmall) > 0 {
					evs = append(evs, event.Event{Type: event.Free, Addr: freeSmall[rng.Intn(len(freeSmall))]})
				}
			default: // wild free
				evs = append(evs, event.Event{Type: event.Free, Addr: wildBase + uint64(rng.Intn(1<<20))*8})
			}
		case r < 42: // realloc
			if len(live) == 0 || rng.Intn(12) == 0 {
				// Bad realloc: never-allocated base.
				evs = append(evs, event.Event{Type: event.Realloc, Addr: wildBase + 64, Value: wildBase + 64, Size: 128})
				continue
			}
			i := pickLive()
			oldB := live[i]
			big := oldB >= bigBase
			newS := alignedSize(big)
			newB := oldB
			if rng.Intn(2) == 0 { // move
				newB = newBase(big)
			}
			evs = append(evs, event.Event{Type: event.Realloc, Addr: oldB, Value: newB, Size: newS})
			if newB != oldB {
				live[i] = newB
				delete(size, oldB)
				recycle(oldB)
			}
			size[newB] = newS
		case r < 75: // store
			if len(live) == 0 {
				continue
			}
			src := live[pickLive()]
			off := uint64(rng.Intn(int(size[src]/8))) * 8
			var val uint64
			switch rng.Intn(10) {
			case 0, 1, 2, 3, 4, 5: // pointer into a live object (maybe interior, maybe unaligned)
				dst := live[pickLive()]
				val = dst + uint64(rng.Intn(int(size[dst])))
			case 6: // one past the end: not a pointer
				dst := live[pickLive()]
				val = dst + size[dst]
			case 7: // self-loop
				val = src
			default: // plain integer
				val = uint64(rng.Intn(1 << 20))
			}
			evs = append(evs, event.Event{Type: event.Store, Addr: src + off, Value: val})
		case r < 78: // wild store
			evs = append(evs, event.Event{Type: event.Store, Addr: wildBase + uint64(rng.Intn(1<<20))*8, Value: 7})
		case r < 80: // load (no graph effect)
			evs = append(evs, event.Event{Type: event.Load, Addr: smallBase, Value: 0})
		case r < 81: // unknown type byte
			evs = append(evs, event.Event{Type: event.Type(200)})
		case r < 93: // enter (metric computation points)
			evs = append(evs, event.Event{Type: event.Enter, Fn: event.FnID(rng.Intn(8) + 1)})
		default:
			evs = append(evs, event.Event{Type: event.Leave})
		}
	}
	return evs
}

// replayBoth drives one event stream through the production logger and
// the reference and returns both reports.
func replayBoth(evs []event.Event, gran logger.Granularity) (*logger.Report, *logger.Report) {
	const freq = 4
	suite := metrics.ExtendedSuite()
	l := logger.New(logger.Options{Suite: suite, Frequency: freq, Granularity: gran})
	l.SetRun("oracle", "gen", 1)
	ref := newRefLogger(suite, freq, gran == logger.FieldGranularity)
	for _, e := range evs {
		l.Emit(e)
		ref.Emit(e)
	}
	return l.Report(), ref.report("oracle", "gen", 1)
}

func diffReports(t *testing.T, got, want *logger.Report) {
	t.Helper()
	if len(got.Suite) != len(want.Suite) {
		t.Fatalf("suite length %d, want %d", len(got.Suite), len(want.Suite))
	}
	for i := range want.Suite {
		if got.Suite[i] != want.Suite[i] {
			t.Fatalf("suite[%d] = %q, want %q", i, got.Suite[i], want.Suite[i])
		}
	}
	if got.FnEntries != want.FnEntries || got.Events != want.Events {
		t.Fatalf("fnEntries/events = %d/%d, want %d/%d", got.FnEntries, got.Events, want.FnEntries, want.Events)
	}
	if got.Health != want.Health {
		t.Fatalf("health counters = %+v, want %+v", got.Health, want.Health)
	}
	if len(got.Snapshots) != len(want.Snapshots) {
		t.Fatalf("%d snapshots, want %d", len(got.Snapshots), len(want.Snapshots))
	}
	for i := range want.Snapshots {
		g, w := got.Snapshots[i], want.Snapshots[i]
		if g.Tick != w.Tick || g.Vertices != w.Vertices || g.Edges != w.Edges {
			t.Fatalf("snapshot %d header (tick=%d V=%d E=%d), want (tick=%d V=%d E=%d)",
				i, g.Tick, g.Vertices, g.Edges, w.Tick, w.Vertices, w.Edges)
		}
		if len(g.Values) != len(w.Values) {
			t.Fatalf("snapshot %d has %d values, want %d", i, len(g.Values), len(w.Values))
		}
		for j := range w.Values {
			if math.Float64bits(g.Values[j]) != math.Float64bits(w.Values[j]) {
				t.Fatalf("snapshot %d metric %q = %v (bits %x), want %v (bits %x)",
					i, want.Suite[j], g.Values[j], math.Float64bits(g.Values[j]),
					w.Values[j], math.Float64bits(w.Values[j]))
			}
		}
	}
}

// TestOracleObjectGranularity: the new storage stack must reproduce
// the reference report bit for bit at object granularity.
func TestOracleObjectGranularity(t *testing.T) {
	for seed := int64(1); seed <= 4; seed++ {
		stream := genEvents(seed, genCfg{nOps: 30000, bigOdds: 10, bigPagesMax: 20})
		got, want := replayBoth(stream, logger.ObjectGranularity)
		diffReports(t, got, want)
		h := got.Health
		if h.WildStores+h.DoubleFrees+h.WildFrees+h.BadReallocs+h.UnknownEvents == 0 {
			t.Fatalf("seed %d: generator produced no anomalous events; oracle lost coverage", seed)
		}
	}
}

// TestOracleFieldGranularity: same, with every word its own vertex.
func TestOracleFieldGranularity(t *testing.T) {
	for seed := int64(10); seed <= 11; seed++ {
		stream := genEvents(seed, genCfg{nOps: 5000, bigOdds: 60, bigPagesMax: 1})
		got, want := replayBoth(stream, logger.FieldGranularity)
		diffReports(t, got, want)
	}
}

// TestOracleWorkloadStream replays an event stream recorded from a
// real workload run — not the synthetic generator — through both
// implementations. Workload allocations are not all word multiples,
// which the synthetic streams are, so this also covers odd-size
// objects at object granularity.
func TestOracleWorkloadStream(t *testing.T) {
	ran := 0
	for _, w := range workloads.All() {
		if w.Name() != "webapp" && w.Name() != "mcf" {
			continue
		}
		ran++
		rec := &recorder{}
		in := w.Inputs(1)[0]
		if _, _, err := workloads.RunLogged(w, in, workloads.RunConfig{
			ExtraSinks: []event.Sink{rec},
		}); err != nil {
			t.Fatalf("%s: %v", w.Name(), err)
		}
		if len(rec.evs) == 0 {
			t.Fatalf("%s: recorded no events", w.Name())
		}
		got, want := replayBoth(rec.evs, logger.ObjectGranularity)
		diffReports(t, got, want)
	}
	if ran == 0 {
		t.Fatal("no workloads matched")
	}
}

type recorder struct{ evs []event.Event }

func (r *recorder) Emit(e event.Event) { r.evs = append(r.evs, e) }

// TestOracleFindings: a model trained on reference reports must judge
// the production report exactly as it judges the reference report —
// same findings, same metrics, same kinds.
func TestOracleFindings(t *testing.T) {
	var trainGot, trainWant []*logger.Report
	for seed := int64(20); seed <= 25; seed++ {
		stream := genEvents(seed, genCfg{nOps: 20000, bigOdds: 10, bigPagesMax: 20})
		g, w := replayBoth(stream, logger.ObjectGranularity)
		trainGot = append(trainGot, g)
		trainWant = append(trainWant, w)
	}
	built, err := model.Build(trainWant[:5], model.Defaults())
	if err != nil {
		t.Fatal(err)
	}
	fGot := detect.CheckReport(built.Model, trainGot[5])
	fWant := detect.CheckReport(built.Model, trainWant[5])
	if len(fGot) != len(fWant) {
		t.Fatalf("%d findings, reference %d", len(fGot), len(fWant))
	}
	for i := range fWant {
		if fGot[i].Kind != fWant[i].Kind || fGot[i].Metric != fWant[i].Metric {
			t.Fatalf("finding %d = (%v,%q), reference (%v,%q)",
				i, fGot[i].Kind, fGot[i].Metric, fWant[i].Kind, fWant[i].Metric)
		}
	}
}
