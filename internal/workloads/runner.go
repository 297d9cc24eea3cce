package workloads

import (
	"heapmd/internal/event"
	"heapmd/internal/faults"
	"heapmd/internal/logger"
	"heapmd/internal/prog"
	"heapmd/internal/sched"
)

// RunConfig bundles everything needed to execute one logged run.
type RunConfig struct {
	// Version selects the commercial development version (1..5);
	// SPEC workloads ignore it. Zero means version 1.
	Version int
	// Plan is the fault-injection plan; nil means fault-free.
	Plan *faults.Plan
	// Logger configures the execution logger. A zero Frequency
	// defaults to DefaultFrequency (see RunLogged).
	Logger logger.Options
	// Observers are attached to the logger before the run (e.g. an
	// online anomaly detector).
	Observers []logger.SampleObserver
	// ExtraSinks receive the raw event stream (e.g. a trace writer
	// or the SWAT baseline).
	ExtraSinks []event.Sink
	// Parallel is the worker count for Train's independent runs:
	// 0 or 1 runs serially, <0 uses GOMAXPROCS. Results are
	// bit-identical to serial regardless of the setting — each run is
	// seeded and isolated, and reports come back in input order.
	// Runs sharing Observers or ExtraSinks cannot be isolated, so
	// Train falls back to serial when either is set.
	Parallel int
	// Record, when set, is invoked once per run before it starts, with
	// the run's input and freshly created process; it subscribes
	// whatever per-run sinks it needs (typically a trace writer) and
	// returns a finish func called after the run completes. Unlike
	// ExtraSinks — shared objects that force Train serial — Record
	// builds private state per run, so recorded training remains
	// parallel-safe.
	Record func(in Input, p *prog.Process) (finish func() error, err error)
	// IngestWorkers is validated (negative values are an error) and
	// otherwise ignored: each run's logger is subscribed to its
	// process directly.
	//
	// Deprecated: ingestion is always serial.
	IngestWorkers int
}

// DefaultFrequency is the sampling frequency used by the experiment
// harnesses: the shared simulation-wide constant (see
// logger.SimulationFrequency for why it differs from the paper's
// every-100,000th-entry frq).
const DefaultFrequency = logger.SimulationFrequency

// RunLogged executes w on the given input under a fresh process and
// an empty logger and returns the metric report. The returned process
// allows post-run heap inspection (leak counting, invariant checks),
// but must not run further: the logger subscribed to it has been
// released for the next run to reuse (see logger.New).
func RunLogged(w Workload, in Input, cfg RunConfig) (*logger.Report, *prog.Process, error) {
	if _, err := sched.ParseIngestWorkers(cfg.IngestWorkers); err != nil {
		return nil, nil, err
	}
	if cfg.Version == 0 {
		cfg.Version = 1
	}
	if cfg.Logger.Frequency == 0 {
		cfg.Logger.Frequency = DefaultFrequency
	}
	p := prog.NewProcess(prog.Options{Seed: in.Seed, Plan: cfg.Plan})
	l := logger.New(cfg.Logger)
	l.SetRun(w.Name(), in.Name, cfg.Version)
	for _, o := range cfg.Observers {
		l.Observe(o)
	}
	p.Subscribe(l)
	for _, s := range cfg.ExtraSinks {
		p.Subscribe(s)
	}
	var finish func() error
	if cfg.Record != nil {
		f, err := cfg.Record(in, p)
		if err != nil {
			return nil, nil, err
		}
		finish = f
	}
	err := prog.Run(func() { w.Run(p, in, cfg.Version) })
	if finish != nil {
		// A recorder flush failure only matters when the run itself was
		// clean; a crashed run's partial trace is salvageable by design.
		if ferr := finish(); err == nil {
			err = ferr
		}
	}
	rep := l.Report()
	l.Release()
	return rep, p, err
}

// Train runs w on n training inputs and returns their reports, in
// input order. With cfg.Parallel beyond 1 the runs execute on a
// bounded worker pool (see internal/sched); every run owns a fresh
// process and logger, so the reports — and on failure, the error — are
// bit-identical to a serial loop. Shared Observers or ExtraSinks would
// be mutated from multiple runs at once, so their presence forces the
// serial path.
func Train(w Workload, n int, cfg RunConfig) ([]*logger.Report, error) {
	inputs := w.Inputs(n)
	workers := cfg.Parallel
	if workers < 0 {
		workers = sched.Workers(0)
	}
	// cfg.Record stays parallel: it constructs fresh per-run state
	// inside each worker rather than sharing an object across runs.
	if workers == 0 || len(cfg.Observers) > 0 || len(cfg.ExtraSinks) > 0 {
		workers = 1
	}
	return sched.Map(workers, len(inputs), func(i int) (*logger.Report, error) {
		rep, _, err := RunLogged(w, inputs[i], cfg)
		return rep, err
	})
}
