package main

import (
	"bytes"
	"errors"
	"fmt"
	"hash/fnv"
	"math"
	"math/rand"
	"time"

	"heapmd"
	"heapmd/internal/detect"
	"heapmd/internal/event"
	"heapmd/internal/faults"
	"heapmd/internal/logger"
	"heapmd/internal/metrics"
	"heapmd/internal/model"
	"heapmd/internal/prog"
	"heapmd/internal/sched"
	"heapmd/internal/soak"
	"heapmd/internal/trace"
	"heapmd/internal/workloads"
)

// sizes are the per-run input sizes. fullSizes is what the benchmark
// measures; tests shrink them.
type sizes struct {
	train, held int // training inputs per program; held-out inputs per corpus cell

	churnTraces, churnObjects, churnEvents int
	treeTraces, treeNodes, treePoints      int

	setups    int           // set-ups per run, at least; setup_s is their median
	setupTime time.Duration // set-up time per run, at least
	minReps   int           // timed reps per run, even when --seconds has run out
	minOps    int           // timed ops per run, so the p95 has 10 samples beyond it
}

// fullSizes keep every op short enough that a run of BENCHMARK.json's
// run_seconds times well over minOps ops on a 2-core machine.
var fullSizes = sizes{
	train: 25, held: 8,
	churnTraces: 32, churnObjects: 8192, churnEvents: 64 << 10,
	treeTraces: 32, treeNodes: 8192, treePoints: 20,
	setups: 3, setupTime: 4 * time.Second, minReps: 3, minOps: 200,
}

// A workload is one seeded input set plus the op timed on each input.
type workload struct {
	name, why string
	setup     func(seed int64, sz sizes, workers int) (*inputs, error)
}

var benchWorkloads = []*workload{
	{"replay-corpus", "Post-mortem replay of 224 recorded v3-flate traces of all 13 programs, clean and faulty, plus the offline check: decode-heavy, O(1) metric points, traces too short for speculation", setupReplayCorpus},
	{"store-churn", "Synthetic store-heavy streams over 8192 live objects: address resolution and graph mutation dominate and decode is cheap; the heap-graph write side that ingest speculation targets", setupStoreChurn},
	{"structure-extended", "Synthetic trees of 4k-12k objects with cross edges under the extended suite in snapshot mode: the WCC/SCC walk at each metric point dominates; the heap-graph read side", setupStructure},
	{"live-check", "Live runs of the same 224 program inputs and faults under the online detector, each paired with a bare run: the paper's online mode and its slowdown, with no trace decode", setupLiveCheck},
}

func lookupWorkload(name string) *workload {
	for _, w := range benchWorkloads {
		if w.name == name {
			return w
		}
	}
	return nil
}

// inputs is a workload's set-up result: the items one rep runs over.
type inputs struct {
	live    bool          // ops run the program live instead of replaying a trace
	suite   metrics.Suite // replay metric suite; zero means the default suite
	synth   bool          // items come from a synthetic generator, not a program
	items   []*item
	buildMS float64 // time inside model.Build, 0 when nothing is trained
}

// expectation is the catalog's verdict for an item.
type expectation int

const (
	noVerdict    expectation = iota // synthetic stream, no model
	expectQuiet                     // clean input, or a fault the catalog expects to stay quiet
	expectDetect                    // a fault the catalog expects HeapMD to detect
)

// item is one op's input and its reference outcome.
type item struct {
	program, input string
	data           []byte // recorded trace (replay workloads)

	w     workloads.Workload // the program (corpus workloads)
	in    workloads.Input
	fault string
	cfg   faults.Config
	gen   func(event.Sink) // the generator (synthetic workloads)

	model  *model.Model // nil: no detection verdict
	expect expectation
	ref    outcome
}

// outcome is what the correctness oracle compares per op.
type outcome struct {
	digest  uint64
	signal  bool // a detection signal by soak's rule
	crashed bool // the simulated program died on a simulator fault
	events  uint64
}

// plan returns a fresh fault plan for one run of the item; trigger
// budgets are per plan, so plans are never shared between runs.
func (it *item) plan() *faults.Plan {
	if it.fault == "" {
		return nil
	}
	return faults.NewPlan().Enable(it.fault, it.cfg)
}

// produce runs the item's event source — its program, or its
// generator — with sink subscribed, or with nothing subscribed when sink
// is nil (a generator then emits into a discarding sink). It reports
// whether the simulated program crashed.
func (it *item) produce(sink event.Sink) (bool, error) {
	if it.gen != nil {
		if sink == nil {
			sink = event.SinkFunc(func(event.Event) {})
		}
		it.gen(sink)
		return false, nil
	}
	p := prog.NewProcess(prog.Options{Seed: it.in.Seed, Plan: it.plan()})
	if sink != nil {
		p.Subscribe(sink)
	}
	return crashOf(prog.Run(func() { it.w.Run(p, it.in, 1) }))
}

// digestOf reduces a report to what must match between equivalent
// runs: suite, snapshot ticks and values, event and entry counts, and
// health counters. Program and input names are left out.
func digestOf(rep *logger.Report) uint64 {
	h := fnv.New64a()
	fmt.Fprintf(h, "%q %d %d %+v\n", rep.Suite, rep.Events, rep.FnEntries, rep.Health)
	var b [8]byte
	put := func(v uint64) {
		for i := range b {
			b[i] = byte(v >> (8 * i))
		}
		h.Write(b[:])
	}
	for _, s := range rep.Snapshots {
		put(s.Tick)
		for _, v := range s.Values {
			put(math.Float64bits(v))
		}
	}
	return h.Sum64()
}

// signaled applies soak's signal rule under Block backpressure: range
// violations, extreme stability and instrumentation anomalies count;
// unexpected stability does not.
func signaled(fs []*heapmd.Finding) bool {
	for _, f := range fs {
		switch f.Kind {
		case detect.RangeViolation, detect.ExtremeStability, detect.InstrumentationAnomaly:
			return true
		}
	}
	return false
}

// onlineVerdict finishes an online detector the way a live session
// does and applies the signal rule; CheckHealth adds the health-based
// evidence the offline check also uses.
func onlineVerdict(det *heapmd.Detector, rep *logger.Report) bool {
	det.Finish()
	det.CheckHealth(rep.Health)
	return signaled(det.Findings())
}

// crashOf separates a simulated program crash, which is an outcome,
// from any other run error.
func crashOf(err error) (bool, error) {
	var f *prog.Fault
	if err == nil || errors.As(err, &f) {
		return err != nil, nil
	}
	return false, err
}

// ---------------------------------------------------------------------------
// The program corpus shared by replay-corpus and live-check.

// corpusItems lists the corpus: every program on sz.held held-out
// inputs, then every soak.DefaultCells fault on its program's held-out
// inputs. Held-out inputs follow the training inputs and are shifted by
// the seed, as soak.heldInputs does.
func corpusItems(seed int64, sz sizes, models map[string]*model.Model) ([]*item, error) {
	type cell struct {
		program, fault string
		cfg            faults.Config
	}
	var cells []cell
	for _, name := range workloads.Names() {
		cells = append(cells, cell{program: name})
	}
	for _, c := range soak.DefaultCells() {
		cells = append(cells, cell{c.Workload, c.Fault, c.Config})
	}
	var items []*item
	for _, c := range cells {
		w, err := workloads.Get(c.program)
		if err != nil {
			return nil, err
		}
		expect := expectQuiet
		if c.fault != "" {
			e, ok := faults.Lookup(c.fault)
			if !ok {
				return nil, fmt.Errorf("fault %q not in the catalog", c.fault)
			}
			if e.ExpectDetect {
				expect = expectDetect
			}
		}
		all := w.Inputs(sz.train + sz.held)
		for _, in := range all[sz.train:] {
			in.Seed += seed * 1000003
			items = append(items, &item{
				program: w.Name(), input: in.Name,
				w: w, in: in, fault: c.fault, cfg: c.cfg,
				model: models[w.Name()], expect: expect,
			})
		}
	}
	return items, nil
}

// trainModels calibrates one model per program on its first sz.train
// inputs, as 'heapmd train' does, and returns the time spent in
// model.Build.
func trainModels(sz sizes, workers int) (map[string]*model.Model, float64, error) {
	models := map[string]*model.Model{}
	var build time.Duration
	for _, w := range workloads.All() {
		reps, err := workloads.Train(w, sz.train, workloads.RunConfig{Parallel: workers})
		if err != nil {
			return nil, 0, fmt.Errorf("training %s: %w", w.Name(), err)
		}
		t0 := time.Now()
		res, err := model.Build(reps, model.Defaults())
		build += time.Since(t0)
		if err != nil {
			return nil, 0, fmt.Errorf("building the %s model: %w", w.Name(), err)
		}
		models[w.Name()] = res.Model
	}
	return models, float64(build) / 1e6, nil
}

func setupReplayCorpus(seed int64, sz sizes, workers int) (*inputs, error) {
	return setupCorpus(seed, sz, workers, false, recordItem)
}

func setupLiveCheck(seed int64, sz sizes, workers int) (*inputs, error) {
	return setupCorpus(seed, sz, workers, true, liveReference)
}

// setupCorpus trains the models, lists the corpus and sets each item's
// reference with ref, on up to workers goroutines.
func setupCorpus(seed int64, sz sizes, workers int, live bool, ref func(*item) error) (*inputs, error) {
	models, buildMS, err := trainModels(sz, workers)
	if err != nil {
		return nil, err
	}
	items, err := corpusItems(seed, sz, models)
	if err != nil {
		return nil, err
	}
	if err := sched.ForEach(workers, len(items), func(i int) error { return ref(items[i]) }); err != nil {
		return nil, err
	}
	return &inputs{live: live, items: items, buildMS: buildMS}, nil
}

// recordItem records the item's live run as a v3-flate trace. The
// reference is the live report captured while recording: replay must
// reproduce it.
func recordItem(it *item) error {
	var buf bytes.Buffer
	record := func(_ workloads.Input, p *prog.Process) (func() error, error) {
		tw, err := trace.NewWriterWith(&buf, trace.WriterOptions{Version: trace.VersionV3, Compress: true})
		if err != nil {
			return nil, err
		}
		tw.SetSymtab(p.Sym())
		p.Subscribe(tw)
		return func() error { return tw.Close(p.Sym()) }, nil
	}
	rep, _, err := workloads.RunLogged(it.w, it.in, workloads.RunConfig{Plan: it.plan(), Record: record})
	crashed, err := crashOf(err)
	if err != nil {
		return fmt.Errorf("recording %s/%s: %w", it.program, it.input, err)
	}
	it.data = buf.Bytes()
	it.ref = outcome{digest: digestOf(rep), signal: signaled(heapmd.Check(it.model, rep)), crashed: crashed, events: rep.Events}
	return nil
}

// liveReference runs the item once on the serial ingest path with the
// online detector; the timed runs at the defaults must reproduce it.
func liveReference(it *item) error {
	det := heapmd.NewDetector(it.model)
	rep, _, err := workloads.RunLogged(it.w, it.in, workloads.RunConfig{
		Plan: it.plan(), IngestWorkers: 1, Observers: []logger.SampleObserver{det},
	})
	crashed, err := crashOf(err)
	if err != nil {
		return fmt.Errorf("reference run of %s/%s: %w", it.program, it.input, err)
	}
	it.ref = outcome{digest: digestOf(rep), signal: onlineVerdict(det, rep), crashed: crashed, events: rep.Events}
	return nil
}

// ---------------------------------------------------------------------------
// Synthetic streams. The program under test sees only the encoded
// traces; the reference is a serial Logger.EmitBatch report built from
// the same events.

// spreadSize is the i-th of n input sizes spread evenly over
// [base/2, 3·base/2), so one rep covers a range of working-set sizes
// and the slowest ops are the largest inputs.
func spreadSize(base, i, n int) int { return base/2 + base*i/n }

func setupStoreChurn(seed int64, sz sizes, workers int) (*inputs, error) {
	n := sz.churnTraces
	items, err := synthItems(n, workers, metrics.Suite{}, func(i int) (string, func(event.Sink)) {
		return fmt.Sprintf("churn-%03d", i), func(sink event.Sink) {
			rng := rand.New(rand.NewSource(seed*1000003 + int64(i)))
			churnEvents(rng, sz.churnObjects, spreadSize(sz.churnEvents, i, n), sink)
		}
	})
	if err != nil {
		return nil, err
	}
	return &inputs{synth: true, items: items}, nil
}

func setupStructure(seed int64, sz sizes, workers int) (*inputs, error) {
	suite := metrics.ExtendedSuite()
	n := sz.treeTraces
	items, err := synthItems(n, workers, suite, func(i int) (string, func(event.Sink)) {
		return fmt.Sprintf("tree-%03d", i), func(sink event.Sink) {
			rng := rand.New(rand.NewSource(seed*1000003 + int64(i)))
			treeEvents(rng, spreadSize(sz.treeNodes, i, n), sz.treePoints, sink)
		}
	})
	if err != nil {
		return nil, err
	}
	return &inputs{suite: suite, synth: true, items: items}, nil
}

// synthItems generates n streams on up to workers goroutines, encodes
// each as a raw v3 trace and computes its serial reference report. The
// generator stays with the item as its bare event source.
func synthItems(n, workers int, suite metrics.Suite, gen func(i int) (string, func(event.Sink))) ([]*item, error) {
	return sched.Map(workers, n, func(i int) (*item, error) {
		name, produce := gen(i)
		var c collectSink
		produce(&c)
		evs := c.evs
		var buf bytes.Buffer
		tw, err := trace.NewWriterWith(&buf, trace.WriterOptions{Version: trace.VersionV3})
		if err != nil {
			return nil, err
		}
		for _, e := range evs {
			tw.Emit(e)
		}
		if err := tw.Close(nil); err != nil {
			return nil, err
		}
		l := logger.New(logger.Options{Frequency: logger.SimulationFrequency, Suite: suite})
		for rest := evs; len(rest) > 0; {
			k := min(len(rest), trace.DefaultBatchRecords)
			l.EmitBatch(rest[:k])
			rest = rest[k:]
		}
		rep := l.Report()
		return &item{program: "synthetic", input: name, data: buf.Bytes(), gen: produce,
			ref: outcome{digest: digestOf(rep), events: rep.Events}}, nil
	})
}

// collectSink keeps a copy of every event.
type collectSink struct{ evs []event.Event }

func (s *collectSink) Emit(e event.Event) { s.evs = append(s.evs, e) }
