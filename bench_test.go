package heapmd

// Benchmark harness: one testing.B benchmark per table and figure of
// the paper's evaluation, each regenerating its artifact at reduced
// (Quick) scale per iteration, plus ablation benchmarks for the
// design choices DESIGN.md calls out:
//
//   - object- vs field-granularity heap graphs (paper Figure 3),
//   - incremental degree histograms vs full recomputation,
//   - metric sampling frequency,
//   - the trace-recording overhead of post-mortem mode.
//
// Run everything with:
//
//	go test -bench=. -benchmem
//
// The per-figure benchmarks exist so `go test -bench` regenerates the
// whole evaluation; for paper-scale output with the printed tables use
// cmd/heapmd-experiments.

import (
	"bytes"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"syscall"
	"testing"
	"time"

	"heapmd/internal/event"
	"heapmd/internal/experiments"
	"heapmd/internal/heap"
	"heapmd/internal/heapgraph"
	"heapmd/internal/logger"
	"heapmd/internal/metrics"
	"heapmd/internal/model"
	"heapmd/internal/prog"
	"heapmd/internal/trace"
	"heapmd/internal/workloads"
)

var quick = experiments.Config{Quick: true}

func benchExperiment(b *testing.B, run func() error) {
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := run(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFigure4 regenerates the vpr metric trajectories.
func BenchmarkFigure4(b *testing.B) {
	benchExperiment(b, func() error { _, err := experiments.Figure4(quick); return err })
}

// BenchmarkFigure5 regenerates the vpr fluctuation series.
func BenchmarkFigure5(b *testing.B) {
	benchExperiment(b, func() error { _, err := experiments.Figure5(quick); return err })
}

// BenchmarkFigure6 regenerates the vpr stability statistics table.
func BenchmarkFigure6(b *testing.B) {
	benchExperiment(b, func() error { _, err := experiments.Figure6(quick); return err })
}

// BenchmarkFigure7A regenerates the stable-metrics table across all
// 13 benchmarks.
func BenchmarkFigure7A(b *testing.B) {
	benchExperiment(b, func() error { _, err := experiments.Figure7A(quick); return err })
}

// BenchmarkFigure7B regenerates the cross-version stability table.
func BenchmarkFigure7B(b *testing.B) {
	benchExperiment(b, func() error { _, err := experiments.Figure7B(quick); return err })
}

// BenchmarkFigure10 regenerates the PC Game/Action range-violation
// trace.
func BenchmarkFigure10(b *testing.B) {
	benchExperiment(b, func() error { _, err := experiments.Figure10(quick); return err })
}

// BenchmarkTable1 regenerates the SWAT-vs-HeapMD leak comparison.
func BenchmarkTable1(b *testing.B) {
	benchExperiment(b, func() error { _, err := experiments.Table1(quick); return err })
}

// BenchmarkTable2 regenerates the 40-bug census.
func BenchmarkTable2(b *testing.B) {
	benchExperiment(b, func() error { _, err := experiments.Table2(quick); return err })
}

// BenchmarkSPECInjection regenerates the Section 4.2 injected-bug
// validation.
func BenchmarkSPECInjection(b *testing.B) {
	benchExperiment(b, func() error { _, err := experiments.SPECInjection(quick); return err })
}

// BenchmarkThresholdSweep regenerates the Section 3 threshold
// resilience study.
func BenchmarkThresholdSweep(b *testing.B) {
	benchExperiment(b, func() error { _, err := experiments.ThresholdSweep(quick); return err })
}

// ---------------------------------------------------------------------------
// Ablations.

// BenchmarkGranularityAblation compares instrumentation cost at
// object vs field granularity on the same workload (paper Figure 3:
// field granularity multiplies vertex counts and makes metrics layout-
// sensitive; this measures what it costs).
func BenchmarkGranularityAblation(b *testing.B) {
	for _, gran := range []logger.Granularity{logger.ObjectGranularity, logger.FieldGranularity} {
		b.Run(gran.String(), func(b *testing.B) {
			w, err := workloads.Get("productivity")
			if err != nil {
				b.Fatal(err)
			}
			in := w.Inputs(1)[0]
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				_, _, err := workloads.RunLogged(w, in, workloads.RunConfig{
					Logger: logger.Options{Granularity: gran, Frequency: 16},
				})
				if err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkIncrementalVsRecompute quantifies the central data-
// structure decision: HeapMD's logger answers degree queries from
// incrementally maintained histograms in O(1); the alternative scans
// every vertex per metric computation point.
func BenchmarkIncrementalVsRecompute(b *testing.B) {
	build := func() *heapgraph.Graph {
		g := heapgraph.New()
		v := make([]heapgraph.VertexID, 50000)
		for i := range v {
			v[i] = g.AddVertex()
		}
		for i := range v {
			g.AddEdge(v[i], v[(i*7+13)%50000])
		}
		return g
	}
	b.Run("incremental-histograms", func(b *testing.B) {
		g := build()
		suite := metrics.DefaultSuite()
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			suite.Compute(g, uint64(i))
		}
	})
	b.Run("full-recompute", func(b *testing.B) {
		g := build()
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			// Scan every vertex, recomputing each degree count the
			// way a histogram-less implementation would.
			var in0, in1, in2, out0, out1, out2, eq int
			g.Vertices(func(v heapgraph.VertexID) bool {
				id, od := g.InDegree(v), g.OutDegree(v)
				switch id {
				case 0:
					in0++
				case 1:
					in1++
				case 2:
					in2++
				}
				switch od {
				case 0:
					out0++
				case 1:
					out1++
				case 2:
					out2++
				}
				if id == od {
					eq++
				}
				return true
			})
			_ = in0 + in1 + in2 + out0 + out1 + out2 + eq
		}
	})
}

// BenchmarkSamplingFrequency sweeps the metric computation frequency
// (the paper's frq): the instrumentation overhead of one full run at
// each setting.
func BenchmarkSamplingFrequency(b *testing.B) {
	w, err := workloads.Get("gzip")
	if err != nil {
		b.Fatal(err)
	}
	in := w.Inputs(1)[0]
	for _, frq := range []uint64{4, 16, 64, 256} {
		b.Run(fmt.Sprintf("frq-%d", frq), func(b *testing.B) {
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				_, _, err := workloads.RunLogged(w, in, workloads.RunConfig{
					Logger: logger.Options{Frequency: frq},
				})
				if err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkInstrumentationOverhead compares a run with no observers,
// with the execution logger, and with logger + trace recording — the
// paper reports a 2-3x slowdown for its instrumentation; this measures
// ours.
func BenchmarkInstrumentationOverhead(b *testing.B) {
	w, err := workloads.Get("crafty")
	if err != nil {
		b.Fatal(err)
	}
	in := w.Inputs(1)[0]
	b.Run("logger-only", func(b *testing.B) {
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, _, err := workloads.RunLogged(w, in, workloads.RunConfig{}); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("logger-plus-trace", func(b *testing.B) {
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			var buf bytes.Buffer
			tw, err := trace.NewWriterWith(&buf, trace.WriterOptions{})
			if err != nil {
				b.Fatal(err)
			}
			_, p, err := workloads.RunLogged(w, in, workloads.RunConfig{
				ExtraSinks: []event.Sink{tw},
			})
			if err != nil {
				b.Fatal(err)
			}
			if err := tw.Close(p.Sym()); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkStoreHotPath isolates the per-event store path — the code
// the logger runs for every observed pointer write: two address
// resolutions (source object, target object), the slot-table update,
// and the edge retire/install pair on the heap-graph. No sampling, no
// allocation churn: what remains is pure data-structure cost.
//
//   - scatter: source and destination objects change every store, the
//     worst case for any locality cache.
//   - burst: a run of stores lands in the same source object before
//     moving on — the common real-program pattern (object
//     initialization) that the address index's last-hit cache targets.
func BenchmarkStoreHotPath(b *testing.B) {
	const n = 4096 // live objects, power of two
	setup := func() (*logger.Logger, []uint64) {
		l := logger.New(logger.Options{Frequency: 1 << 62})
		addrs := make([]uint64, n)
		for i := range addrs {
			addr := uint64(0x100_0000_0000) + uint64(i)*64
			addrs[i] = addr
			l.Emit(event.Event{Type: event.Alloc, Addr: addr, Size: 64, Fn: 1})
		}
		return l, addrs
	}
	b.Run("scatter", func(b *testing.B) {
		l, addrs := setup()
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			src := addrs[i&(n-1)]
			dst := addrs[(i*31+7)&(n-1)]
			l.Emit(event.Event{Type: event.Store, Addr: src + 8, Value: dst})
		}
	})
	b.Run("burst", func(b *testing.B) {
		l, addrs := setup()
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			// Seven consecutive stores into one object's slots, then
			// advance to the next object.
			src := addrs[(i/7)&(n-1)]
			slot := uint64(i%7+1) * 8
			dst := addrs[(i*13+5)&(n-1)]
			l.Emit(event.Event{Type: event.Store, Addr: src + slot, Value: dst})
		}
	})
	// churn: the store-heavy mixed workload the acceptance numbers are
	// measured on. Each iteration is a batch of eight events — one
	// free, one re-alloc at the same address, six stores — so the
	// per-object bookkeeping (object record, slot table, vertex,
	// adjacency) is allocated and recycled continuously instead of
	// being amortized away by a one-time warmup, and allocs/op counts
	// whole batches rather than rounding a fraction down to zero.
	b.Run("churn", func(b *testing.B) {
		l, addrs := setup()
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			k := (i * 17) & (n - 1)
			l.Emit(event.Event{Type: event.Free, Addr: addrs[k]})
			l.Emit(event.Event{Type: event.Alloc, Addr: addrs[k], Size: 64, Fn: 1})
			for j := 0; j < 6; j++ {
				src := addrs[(i*8+j)&(n-1)]
				dst := addrs[((i*8+j)*31+7)&(n-1)]
				l.Emit(event.Event{Type: event.Store, Addr: src + 8, Value: dst})
			}
		}
	})
}

// BenchmarkParallelTrain measures the run scheduler: one training
// fleet (16 parser inputs) executed serially vs on 8 workers. The
// reports are bit-identical (see TestTrainManyMatchesSerial and the
// experiments parallel oracle); only wall-clock differs. On a
// single-core host the workers=8 variant measures scheduler overhead
// instead of speedup — the ratio approaches the core count as cores
// are added, since runs share nothing.
func BenchmarkParallelTrain(b *testing.B) {
	w, err := workloads.Get("parser")
	if err != nil {
		b.Fatal(err)
	}
	const fleet = 16
	for _, workers := range []int{1, 8} {
		b.Run(fmt.Sprintf("workers-%d", workers), func(b *testing.B) {
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				reports, err := workloads.Train(w, fleet, workloads.RunConfig{Parallel: workers})
				if err != nil {
					b.Fatal(err)
				}
				if len(reports) != fleet {
					b.Fatalf("%d reports", len(reports))
				}
			}
			b.ReportMetric(float64(fleet)*float64(b.N)/b.Elapsed().Seconds(), "runs/sec")
		})
	}
}

// emitOnlySink hides a sink's EmitBatch so replay falls back to one
// Emit call per event — the pre-batching baseline.
type emitOnlySink struct{ s event.Sink }

func (w emitOnlySink) Emit(e event.Event) { w.s.Emit(e) }

// recordParserTraces records one parser-workload run simultaneously
// as raw and compressed v3 and returns the encoded traces plus the
// event count. Function-entry dominated, like the production traces
// post-mortem mode replays; shared by the replay benchmarks and the
// v3 size-budget test.
func recordParserTraces(t testing.TB) (map[string][]byte, uint64) {
	w, err := workloads.Get("parser")
	if err != nil {
		t.Fatal(err)
	}
	formats := []struct {
		name string
		opts trace.WriterOptions
	}{
		{"v3", trace.WriterOptions{}},
		{"v3-flate", trace.WriterOptions{Compress: true}},
	}
	bufs := make([]bytes.Buffer, len(formats))
	writers := make([]*trace.Writer, len(formats))
	sinks := make([]event.Sink, len(formats))
	for i, f := range formats {
		tw, err := trace.NewWriterWith(&bufs[i], f.opts)
		if err != nil {
			t.Fatal(err)
		}
		writers[i] = tw
		sinks[i] = tw
	}
	_, p, err := workloads.RunLogged(w, w.Inputs(1)[0], workloads.RunConfig{
		ExtraSinks: sinks,
	})
	if err != nil {
		t.Fatal(err)
	}
	nEvents := writers[0].Events()
	out := make(map[string][]byte, len(formats))
	for i, f := range formats {
		if err := writers[i].Close(p.Sym()); err != nil {
			t.Fatal(err)
		}
		out[f.name] = bufs[i].Bytes()
	}
	return out, nEvents
}

// BenchmarkRecordWhileMonitoring measures live recording: one corpus
// program (parser, input 0) runs under the execution logger while
// RecordTraceWith writes its flate-compressed v3 trace, with frames
// encoded on the emitting goroutine. It reports wall-clock and process
// CPU nanoseconds per recorded event.
func BenchmarkRecordWhileMonitoring(b *testing.B) {
	w, err := workloads.Get("parser")
	if err != nil {
		b.Fatal(err)
	}
	in := w.Inputs(1)[0]
	var events uint64
	cpu0 := processCPU()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		run := NewSession(Options{}).NewRun(w.Name(), in.Name, in.Seed)
		closeTrace, err := RecordTraceWith(run, io.Discard, TraceOptions{Compress: true})
		if err != nil {
			b.Fatal(err)
		}
		if err := prog.Run(func() { w.Run(run.Process(), in, 1) }); err != nil {
			b.Fatal(err)
		}
		if err := closeTrace(); err != nil {
			b.Fatal(err)
		}
		events += run.Report().Events
	}
	b.StopTimer()
	cpu := processCPU() - cpu0
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(events), "wall-ns/event")
	b.ReportMetric(float64(cpu.Nanoseconds())/float64(events), "cpu-ns/event")
}

// processCPU is the user plus system CPU time this process has used.
func processCPU() time.Duration {
	var ru syscall.Rusage
	// RUSAGE_SELF with a valid pointer cannot fail.
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru)
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// BenchmarkReplayThroughput measures the batched trace replay fast
// path into a real logger: per-event delivery (the old code path),
// frame-batched delivery through the batch-sink interface, and
// batched delivery through the one-worker decode pipeline — for the
// columnar v3 format, compressed and not, and for the legacy
// fixed-width v2 format. The v3 rows replay a fresh parser recording;
// the v2 rows replay the trace package's legacy-mcf-v2 fixture (a
// shorter mcf run in 512-record frames), since nothing writes v2 any
// more. The frame-decode loop reuses its payload and batch buffers, so
// the batched variants hold allocs/op flat regardless of trace
// length; bytes/event shows the storage density each format trades
// that throughput against. Each run releases its logger, so later runs
// reuse its heap image the way ReplayTraceWith does.
func BenchmarkReplayThroughput(b *testing.B) {
	traces, nEvents := recordParserTraces(b)
	events := map[string]uint64{"v3": nEvents, "v3-flate": nEvents}
	v2, err := os.ReadFile(filepath.Join("internal", "trace", "testdata", "legacy-mcf-v2.trace"))
	if err != nil {
		b.Fatal(err)
	}
	traces["v2"] = v2
	if _, events["v2"], err = trace.Replay(bytes.NewReader(v2), event.SinkFunc(func(event.Event) {})); err != nil {
		b.Fatal(err)
	}
	variants := []struct {
		name   string
		format string
		run    func(l *logger.Logger, data []byte) error
	}{
		{"per-event", "v2", func(l *logger.Logger, data []byte) error {
			_, _, err := trace.Replay(bytes.NewReader(data), emitOnlySink{l})
			return err
		}},
		{"batched", "v2", func(l *logger.Logger, data []byte) error {
			_, _, err := trace.Replay(bytes.NewReader(data), l)
			return err
		}},
		{"batched-pipeline-1", "v2", func(l *logger.Logger, data []byte) error {
			_, _, err := trace.ReplayWith(bytes.NewReader(data), l, trace.ReadOptions{DecodeWorkers: 1})
			return err
		}},
		{"batched-v3", "v3", func(l *logger.Logger, data []byte) error {
			_, _, err := trace.Replay(bytes.NewReader(data), l)
			return err
		}},
		{"batched-pipeline-1-v3", "v3", func(l *logger.Logger, data []byte) error {
			_, _, err := trace.ReplayWith(bytes.NewReader(data), l, trace.ReadOptions{DecodeWorkers: 1})
			return err
		}},
		{"batched-v3-flate", "v3-flate", func(l *logger.Logger, data []byte) error {
			_, _, err := trace.Replay(bytes.NewReader(data), l)
			return err
		}},
		// The decode pipeline at this machine's recommended worker
		// count (synchronous on a single core — these rows then match
		// the plain batched rows; ≥ 2 workers elsewhere).
		{"batched-parallel-v3", "v3", func(l *logger.Logger, data []byte) error {
			_, _, err := trace.ReplayWith(bytes.NewReader(data), l, trace.ReadOptions{DecodeWorkers: trace.DefaultDecodeWorkers()})
			return err
		}},
		{"batched-parallel-v3-flate", "v3-flate", func(l *logger.Logger, data []byte) error {
			_, _, err := trace.ReplayWith(bytes.NewReader(data), l, trace.ReadOptions{DecodeWorkers: trace.DefaultDecodeWorkers()})
			return err
		}},
	}
	for _, v := range variants {
		data, nEvents := traces[v.format], events[v.format]
		b.Run(v.name, func(b *testing.B) {
			b.ReportAllocs()
			b.SetBytes(int64(len(data)))
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				l := logger.New(logger.Options{Frequency: 1024})
				if err := v.run(l, data); err != nil {
					b.Fatal(err)
				}
				l.Release()
			}
			b.ReportMetric(float64(nEvents)*float64(b.N)/b.Elapsed().Seconds(), "events/sec")
			b.ReportMetric(float64(len(data))/float64(nEvents), "bytes/event")
		})
	}
}

// discardBatches is a BatchSink that drops every event, so a replay
// into it costs the trace decode alone.
type discardBatches struct{}

func (discardBatches) Emit(event.Event)        {}
func (discardBatches) EmitBatch([]event.Event) {}

// BenchmarkReplayDecode measures the decode layer of post-mortem
// replay without the logger: the recorded parser traces, raw and
// flate-compressed v3, replayed serially into a sink that discards
// every batch. ns/event is the decode cost per event.
func BenchmarkReplayDecode(b *testing.B) {
	traces, nEvents := recordParserTraces(b)
	for _, format := range []string{"v3", "v3-flate"} {
		data := traces[format]
		b.Run(format, func(b *testing.B) {
			b.ReportAllocs()
			b.SetBytes(int64(len(data)))
			for i := 0; i < b.N; i++ {
				if _, _, err := trace.Replay(bytes.NewReader(data), discardBatches{}); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/(float64(nEvents)*float64(b.N)), "ns/event")
		})
	}
}

// BenchmarkModelBuild measures summarizer cost at paper-ish training
// sizes.
func BenchmarkModelBuild(b *testing.B) {
	w, err := workloads.Get("parser")
	if err != nil {
		b.Fatal(err)
	}
	reports, err := workloads.Train(w, 10, workloads.RunConfig{})
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := model.Build(reports, model.Defaults()); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkHeapSimulator measures raw simulated-heap throughput — the
// substrate every experiment stands on.
func BenchmarkHeapSimulator(b *testing.B) {
	s := heap.New()
	var addrs []uint64
	for i := 0; i < 4096; i++ {
		a, err := s.Alloc(32)
		if err != nil {
			b.Fatal(err)
		}
		addrs = append(addrs, a)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		src := addrs[i%4096]
		dst := addrs[(i*31+7)%4096]
		if err := s.Store(src, dst); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkConnectivityMetricPoint measures the cost of one Components
// metric point — a burst of heap churn followed by the component-count
// query — on the incremental union-find tracker, against the reference
// BFS walk as a yardstick. The walk pays O(V+E) per point, so its cost
// grows with heap size; the tracker is costed by the churn between
// points, so its per-point cost stays flat.
func BenchmarkConnectivityMetricPoint(b *testing.B) {
	build := func(n int) *heapgraph.Graph {
		g := heapgraph.New()
		v := make([]heapgraph.VertexID, n)
		for i := range v {
			v[i] = g.AddVertex()
		}
		// Mostly list/tree-shaped linkage with some cross edges: the
		// paper's heap shapes, and a mix of exact and conservative
		// delete classes under churn.
		for i := 1; i < n; i++ {
			g.AddEdge(v[i/2], v[i])
		}
		for i := 0; i < n/8; i++ {
			g.AddEdge(v[i*7%n], v[i*13%n])
		}
		return g
	}
	for _, n := range []int{10000, 50000, 200000} {
		for _, walk := range []bool{true, false} {
			query := func(g *heapgraph.Graph) int { return g.ConnectedComponentCount() }
			name := "incremental"
			if walk {
				query = func(g *heapgraph.Graph) int { return g.WeaklyConnectedComponents() }
				name = "reference-walk"
			}
			b.Run(fmt.Sprintf("V=%d/%s", n, name), func(b *testing.B) {
				g := build(n)
				query(g) // settle the initial build (and turn the tracker on)
				// The churn runs by position; a zero handle is a run not
				// yet added.
				var runs [1024][16]heapgraph.VertexID
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					// ~64 graph operations of churn per metric point:
					// allocate a small linked run, free an old one.
					run := &runs[i%1024]
					for j := range run {
						run[j] = g.AddVertex()
						if j > 0 {
							g.AddEdge(run[j-1], run[j])
						}
					}
					old := &runs[(i+512)%1024]
					for j := 15; j >= 0; j-- {
						g.RemoveVertex(old[j])
					}
					query(g)
				}
			})
		}
	}
}

// BenchmarkSCCMetricPoint is the strong-connectivity sibling of
// BenchmarkConnectivityMetricPoint: one SCCs metric point — a burst of
// heap churn followed by the strong component count query — on the
// incremental SCC tracker, against the reference Tarjan walk. The churn
// is pendant-run allocation and teardown, which the tracker's exact
// singleton delete class absorbs without a rebuild, so the incremental
// per-point cost stays flat while the walk pays O(V+E).
func BenchmarkSCCMetricPoint(b *testing.B) {
	build := func(n int) *heapgraph.Graph {
		g := heapgraph.New()
		v := make([]heapgraph.VertexID, n)
		for i := range v {
			v[i] = g.AddVertex()
		}
		// Same shape as the weak-connectivity benchmark: tree linkage
		// plus cross edges, so some inserts close cycles and exercise
		// the probe while the churn below stays in the exact classes.
		for i := 1; i < n; i++ {
			g.AddEdge(v[i/2], v[i])
		}
		for i := 0; i < n/8; i++ {
			g.AddEdge(v[i*7%n], v[i*13%n])
		}
		return g
	}
	for _, n := range []int{10000, 50000, 200000} {
		for _, walk := range []bool{true, false} {
			query := func(g *heapgraph.Graph) int { return g.StronglyConnectedComponentCount() }
			name := "incremental"
			if walk {
				query = func(g *heapgraph.Graph) int { return g.StronglyConnectedComponents() }
				name = "reference-walk"
			}
			b.Run(fmt.Sprintf("V=%d/%s", n, name), func(b *testing.B) {
				g := build(n)
				query(g) // settle the initial build (and turn the tracker on)
				// The churn runs by position; a zero handle is a run not
				// yet added.
				var runs [1024][16]heapgraph.VertexID
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					run := &runs[i%1024]
					for j := range run {
						run[j] = g.AddVertex()
						if j > 0 {
							g.AddEdge(run[j-1], run[j])
						}
					}
					old := &runs[(i+512)%1024]
					for j := 15; j >= 0; j-- {
						g.RemoveVertex(old[j])
					}
					query(g)
				}
			})
		}
	}
}
