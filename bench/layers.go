package main

import (
	"bytes"
	"time"

	"heapmd"
	"heapmd/internal/addrindex"
	"heapmd/internal/callstack"
	"heapmd/internal/event"
	"heapmd/internal/logger"
	"heapmd/internal/metrics"
	"heapmd/internal/prog"
	"heapmd/internal/trace"
)

// span is one timed call at a layer boundary. Parent indexes the
// tracer's span list; -1 marks an op's root span. Spans of one op
// share Op.
type span struct {
	Op     int    `json:"op"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Parent int    `json:"parent"`
}

// tracer keeps the traced rep's spans in memory; they are written out
// when the run ends.
type tracer struct {
	epoch        time.Time
	op           int
	spans        []span
	peakVertices int
	peakEdges    int
}

func newTracer() *tracer { return &tracer{epoch: time.Now(), op: -1} }

func (t *tracer) begin(name string, parent int) int {
	if parent < 0 {
		t.op++
	}
	t.spans = append(t.spans, span{Op: t.op, Name: name, Start: int64(time.Since(t.epoch)), Parent: parent})
	return len(t.spans) - 1
}

func (t *tracer) end(i int) { t.spans[i].End = int64(time.Since(t.epoch)) }

// layerTimes sums, per span name, the total duration, the self time
// (duration minus that of direct children) and the span count.
type layerTimes struct {
	dur, self map[string]float64
	count     map[string]int
}

func (t *tracer) times() layerTimes {
	lt := layerTimes{dur: map[string]float64{}, self: map[string]float64{}, count: map[string]int{}}
	child := make([]int64, len(t.spans))
	for _, s := range t.spans {
		if s.Parent >= 0 {
			child[s.Parent] += s.End - s.Start
		}
	}
	for i, s := range t.spans {
		d := s.End - s.Start
		lt.dur[s.Name] += float64(d)
		lt.self[s.Name] += float64(d - child[i])
		lt.count[s.Name]++
	}
	return lt
}

// layerSink stands between an event source and a serial logger in the
// traced rep. The logger receives the same events in the same order,
// but each sampling Enter reaches Logger.EmitBatch alone: that call is
// the metric point (span metrics.point), every other call is apply
// work (span logger.apply).
type layerSink struct {
	l      *logger.Logger
	tr     *tracer
	parent int // span the layer spans nest under
	point  int // the open metrics.point span, parent of observer spans
	enters uint64
	buf    []event.Event // per-event input, batched for the logger
	one    [1]event.Event
}

// EmitBatch passes a decoded batch through, split at sampling Enters.
func (s *layerSink) EmitBatch(batch []event.Event) {
	start := 0
	for i := range batch {
		if s.sampling(&batch[i]) {
			s.apply(batch[start:i])
			s.samplePoint(batch[i : i+1])
			start = i + 1
		}
	}
	s.apply(batch[start:])
}

// Emit buffers per-event input (a live program) into batches.
func (s *layerSink) Emit(e event.Event) {
	if s.sampling(&e) {
		s.flush()
		s.one[0] = e
		s.samplePoint(s.one[:])
		return
	}
	s.buf = append(s.buf, e)
	if len(s.buf) == trace.DefaultBatchRecords {
		s.flush()
	}
}

func (s *layerSink) flush() {
	s.apply(s.buf)
	s.buf = s.buf[:0]
}

// sampling counts function entries as the logger does and reports
// whether e is the entry that triggers a metric point.
func (s *layerSink) sampling(e *event.Event) bool {
	if e.Type != event.Enter {
		return false
	}
	s.enters++
	return s.enters%logger.SimulationFrequency == 0
}

func (s *layerSink) apply(b []event.Event) {
	if len(b) == 0 {
		return
	}
	sp := s.tr.begin("logger.apply", s.parent)
	s.l.EmitBatch(b)
	s.tr.end(sp)
}

func (s *layerSink) samplePoint(b []event.Event) {
	s.point = s.tr.begin("metrics.point", s.parent)
	s.l.EmitBatch(b)
	s.tr.end(s.point)
	g := s.l.Graph()
	s.tr.peakVertices = max(s.tr.peakVertices, g.NumVertices())
	s.tr.peakEdges = max(s.tr.peakEdges, g.NumEdges())
}

// tracedDetector times the online detector's work at each metric point.
type tracedDetector struct {
	det  *heapmd.Detector
	sink *layerSink
}

func (o tracedDetector) Sample(snap metrics.Snapshot, stack *callstack.Tracker) {
	sp := o.sink.tr.begin("detect.sample", o.sink.point)
	o.det.Sample(snap, stack)
	o.sink.tr.end(sp)
}

// replayTraced composes what heapmd.ReplayTraceWith composes on its
// serial path — logger.New, trace.ReplayWith, Logger.Report — with the
// layer sink in front of the logger. Spans: op > replay > {logger.apply,
// metrics.point}, op > detect.check. The replay span's self time is
// decode.
func replayTraced(it *item, c config, suite metrics.Suite, tr *tracer) (opOut, error) {
	op := tr.begin("op", -1)
	defer tr.end(op)
	rs := tr.begin("replay", op)
	l := logger.New(logger.Options{Frequency: logger.SimulationFrequency, Suite: suite, Connectivity: c.conn, SCC: c.scc})
	l.SetRun(it.program, it.input, 1)
	sink := &layerSink{l: l, tr: tr, parent: rs}
	_, _, err := trace.ReplayWith(bytes.NewReader(it.data), sink, trace.ReadOptions{DecodeWorkers: c.Decode})
	rep := l.Report()
	tr.end(rs)
	if err != nil {
		return opOut{}, err
	}
	out := opOut{rep: rep}
	if it.model != nil {
		cs := tr.begin("detect.check", op)
		out.signal = signaled(heapmd.Check(it.model, rep))
		tr.end(cs)
	}
	return out, nil
}

// liveTraced composes a monitored run as workloads.RunLogged does on
// its serial path, with the layer sink between the process and the
// logger and the detector timed. Spans: op > prog.run > {logger.apply,
// metrics.point > detect.sample}, op > detect.finish. The prog.run
// span's self time is the program itself.
func liveTraced(it *item, c config, tr *tracer) (opOut, error) {
	op := tr.begin("op", -1)
	defer tr.end(op)
	p := prog.NewProcess(prog.Options{Seed: it.in.Seed, Plan: it.plan()})
	l := logger.New(logger.Options{Frequency: logger.SimulationFrequency, Connectivity: c.conn, SCC: c.scc})
	l.SetRun(it.program, it.input, 1)
	det := heapmd.NewDetector(it.model)
	run := tr.begin("prog.run", op)
	sink := &layerSink{l: l, tr: tr, parent: run}
	l.Observe(tracedDetector{det: det, sink: sink})
	p.Subscribe(sink)
	err := prog.Run(func() { it.w.Run(p, it.in, 1) })
	sink.flush()
	tr.end(run)
	rep := l.Report()
	crashed, err := crashOf(err)
	if err != nil {
		return opOut{}, err
	}
	fin := tr.begin("detect.finish", op)
	signal := onlineVerdict(det, rep)
	tr.end(fin)
	return opOut{rep: rep, signal: signal, crashed: crashed}, nil
}

// addrStats is the isolated address-index pass.
type addrStats struct {
	stabs, events uint64
	stabNS        float64
}

// addrindexPass drives a standalone addrindex.Table with every item's
// Alloc, Free and Realloc events, once with two Stab calls per Store
// (the written slot and the stored value, as the logger resolves them)
// and once without; the difference is the stab time.
func (r *runner) addrindexPass() (addrStats, error) {
	var st addrStats
	for _, it := range r.in.items {
		var c collectSink
		if _, err := it.produce(&c); err != nil {
			return st, err
		}
		evs := c.evs
		with, stabs := tablePass(evs, true)
		without, _ := tablePass(evs, false)
		st.stabNS += float64(with - without)
		st.stabs += stabs
		st.events += uint64(len(evs))
	}
	return st, nil
}

func tablePass(evs []event.Event, stab bool) (time.Duration, uint64) {
	t := addrindex.New[struct{}]()
	var stabs uint64
	t0 := time.Now()
	for i := range evs {
		e := &evs[i]
		switch e.Type {
		case event.Alloc:
			t.Insert(e.Addr, e.Size, struct{}{})
		case event.Free:
			t.Remove(e.Addr)
		case event.Realloc:
			if _, ok := t.Remove(e.Addr); ok {
				t.Insert(e.Value, e.Size, struct{}{})
			}
		case event.Store:
			if stab {
				t.Stab(e.Addr)
				t.Stab(e.Value)
				stabs += 2
			}
		}
	}
	return time.Since(t0), stabs
}
