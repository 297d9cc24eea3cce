// Package soak is the chaos harness: it drives workloads through the
// execution logger for a wall-clock budget while injecting catalogued
// faults on a phase schedule, and scores the detector's behaviour per
// failure mode.
//
// Each cell (fault × workload × config, see DefaultCells) runs a
// warmup → fault window → recovery schedule of complete workload
// iterations. Warmup and recovery are fault-free; any detection
// signal there is a false positive. The fault window enables the
// cell's fault on a fresh plan each iteration and records detection
// latency — the distance in metric computation points from the first
// fault trigger to the first finding. The verdict compares what
// happened against the paper's taxonomy: systemic, indirect and
// poorly-disguised faults must be detected; well-disguised and
// invisible faults must stay quiet (detecting one would be a
// false alarm against the taxonomy, i.e. the harness's expectations
// are miscalibrated).
//
// Every iteration subscribes a fresh logger to the workload's process,
// as training, checking and replay do, so the soaked runs see the
// same in-order event stream the calibrated model was trained on.
package soak

import (
	"fmt"
	"io"
	"sync"
	"time"

	"heapmd/internal/detect"
	"heapmd/internal/faults"
	"heapmd/internal/logger"
	"heapmd/internal/metrics"
	"heapmd/internal/model"
	"heapmd/internal/prog"
	"heapmd/internal/sched"
	"heapmd/internal/workloads"
)

// Options configures a soak run.
type Options struct {
	// Duration is the wall-clock budget for extra iterations beyond
	// the minimum schedule; 0 runs the minimum schedule only (the
	// short mode used by tests and CI smoke).
	Duration time.Duration
	// Seed perturbs the held-out input seeds so different soak runs
	// explore different executions while staying deterministic.
	Seed int64
	// Faults optionally restricts the run to the named catalog
	// entries; empty means the full default cell set.
	Faults []string
	// Parallel is the number of cells soaked concurrently, as
	// sched.Map reads it: 0 or 1 serial, <0 GOMAXPROCS.
	Parallel int
	// TrainInputs is the number of training inputs per workload
	// model (default 12; at 8 the calibrated ranges are tight enough
	// that held-out clean runs occasionally graze them).
	TrainInputs int
	// Extended soaks (and trains) with the extended metric suite —
	// the degree metrics plus the WCC/SCC structure metrics, which
	// turn on the incremental component trackers.
	Extended bool
	// Progress, when set, receives one line per completed cell.
	Progress io.Writer

	// observe, when set, is called with every soak iteration's logger
	// before the run starts (a same-package test hook: the component
	// oracle test attaches its observer here).
	observe func(*logger.Logger)
}

func (o Options) withDefaults() Options {
	if o.TrainInputs == 0 {
		o.TrainInputs = 12
	}
	return o
}

// The minimum iteration counts of a cell's phases. With a Duration
// budget the phases extend beyond them in a 1:2:1 time split.
const (
	warmupIters   = 2
	faultIters    = 3
	recoveryIters = 2
)

// heldPool is the number of held-out inputs each cell cycles through;
// they come after the training inputs in the workload's input
// sequence, so training and soak never share an input.
const heldPool = 8

type runner struct {
	opts     Options
	models   map[string]*model.Model
	deadline time.Time     // zero when Duration is 0
	share    time.Duration // per-cell time budget

	mu sync.Mutex // guards Progress writes
}

// Run executes the soak schedule and returns the scoreboard.
func Run(opts Options) (*Scoreboard, error) {
	opts = opts.withDefaults()
	cells, err := selectCells(opts.Faults)
	if err != nil {
		return nil, err
	}

	var wl []string
	seen := map[string]bool{}
	for _, c := range cells {
		if !seen[c.Workload] {
			seen[c.Workload] = true
			wl = append(wl, c.Workload)
		}
	}

	r := &runner{opts: opts, models: make(map[string]*model.Model, len(wl))}

	// Calibrate one clean model per distinct workload. Training time
	// is excluded from the soak budget: the budget buys fault
	// exposure, not setup.
	trained, err := sched.Map(opts.Parallel, len(wl), func(i int) (*model.Model, error) {
		w, err := workloads.Get(wl[i])
		if err != nil {
			return nil, err
		}
		reps, err := workloads.Train(w, opts.TrainInputs, workloads.RunConfig{Logger: r.loggerOptions()})
		if err != nil {
			return nil, fmt.Errorf("soak: training %s: %w", wl[i], err)
		}
		br, err := model.Build(reps, model.Defaults())
		if err != nil {
			return nil, fmt.Errorf("soak: building model for %s: %w", wl[i], err)
		}
		return br.Model, nil
	})
	if err != nil {
		return nil, err
	}
	for i, m := range trained {
		r.models[wl[i]] = m
	}

	if opts.Duration > 0 {
		r.deadline = time.Now().Add(opts.Duration)
		r.share = time.Duration(int64(opts.Duration) * int64(sched.Goroutines(opts.Parallel)) / int64(len(cells)))
	}

	results, err := sched.Map(opts.Parallel, len(cells), func(i int) (CellResult, error) {
		return r.runCell(cells[i])
	})
	if err != nil {
		return nil, err
	}

	sb := &Scoreboard{
		Seed:        opts.Seed,
		Duration:    opts.Duration.String(),
		TrainInputs: opts.TrainInputs,
		Cells:       results,
	}
	sb.summarize()
	return sb, nil
}

// heldInputs returns the cell's input cycle: the held-out tail of the
// workload's input sequence, seed-shifted by the soak seed. Only the
// seed moves — name, scale and class are preserved, so every input
// stays inside a training-covered class (the property behind the
// zero-false-positive expectation).
func (r *runner) heldInputs(w workloads.Workload) []workloads.Input {
	all := w.Inputs(r.opts.TrainInputs + heldPool)
	held := append([]workloads.Input(nil), all[r.opts.TrainInputs:]...)
	for i := range held {
		held[i].Seed += r.opts.Seed * 1000003
	}
	return held
}

// signal reports whether a finding counts as a detection for
// scoreboard purposes. Range violations and extreme stability are the
// paper's bug signals, and instrumentation anomalies (wild stores,
// double frees) are heap-bug evidence in their own right. Unexpected
// stability is excluded — it is a run-level curiosity report, not a
// bug claim.
func signal(f *detect.Finding) bool {
	switch f.Kind {
	case detect.RangeViolation, detect.ExtremeStability, detect.InstrumentationAnomaly:
		return true
	default:
		return false
	}
}

// loggerOptions builds the logger configuration shared by training
// runs and soak iterations: the suite must match so the calibrated
// model and the soaked runs measure the same thing.
func (r *runner) loggerOptions() logger.Options {
	var opts logger.Options
	if r.opts.Extended {
		opts.Suite = metrics.ExtendedSuite()
	}
	return opts
}

// iteration executes one complete workload run with a logger
// subscribed to its process, then ends the run like Run.Report: the
// logger is detached from the process before it is released. The
// returned bool reports whether the workload crashed on a simulator
// fault (the report then covers the prefix).
func (r *runner) iteration(w workloads.Workload, in workloads.Input, plan *faults.Plan) (*logger.Report, bool) {
	p := prog.NewProcess(prog.Options{Seed: in.Seed, Plan: plan})
	l := logger.New(r.loggerOptions())
	l.SetRun(w.Name(), in.Name, 1)
	if r.opts.observe != nil {
		r.opts.observe(l)
	}
	p.Subscribe(l)
	err := prog.Run(func() { w.Run(p, in, 1) })
	rep := l.Report()
	p.Unsubscribe(l)
	l.Release()
	return rep, err != nil
}

func (r *runner) runCell(c Cell) (CellResult, error) {
	entry, ok := faults.Lookup(c.Fault)
	if !ok {
		return CellResult{}, fmt.Errorf("soak: fault %q not in catalog", c.Fault)
	}
	w, err := workloads.Get(c.Workload)
	if err != nil {
		return CellResult{}, err
	}
	mdl := r.models[c.Workload]
	held := r.heldInputs(w)

	res := CellResult{
		Fault:                 c.Fault,
		Workload:              c.Workload,
		Class:                 entry.Class.String(),
		Mechanism:             entry.Mechanism,
		ExpectDetect:          entry.ExpectDetect,
		DetectionLatencyTicks: -1,
	}

	var cum uint64 // metric computation points elapsed across iterations
	var faultEpoch uint64
	epochSet := false // first observed trigger
	var windowStart uint64
	windowSet := false // first fault-window iteration
	iter := 0

	runOne := func(ph *PhaseStats, faulty bool) {
		in := held[iter%len(held)]
		iter++
		var plan *faults.Plan
		if faulty {
			plan = faults.NewPlan().Enable(c.Fault, c.Config)
		}
		rep, crashed := r.iteration(w, in, plan)
		ph.Iterations++
		if crashed {
			ph.Crashes++
		}
		var iterTicks uint64
		if n := len(rep.Snapshots); n > 0 {
			iterTicks = rep.Snapshots[n-1].Tick
		}
		ph.Ticks += iterTicks
		res.Health.Add(rep.Health)

		if faulty {
			if !windowSet {
				windowStart = cum
				windowSet = true
			}
			if t := plan.Triggers(c.Fault); t > 0 {
				res.Triggers += t
				if !epochSet {
					faultEpoch = cum
					epochSet = true
				}
			}
		}
		for _, f := range detect.CheckReport(mdl, rep) {
			if !signal(f) {
				continue
			}
			ph.Findings++
			if !faulty {
				ph.FalsePositives++
				continue
			}
			if !res.Detected {
				res.Detected = true
				res.DetectedKind = f.Kind.String()
				res.DetectedMetric = f.Metric
				at := f.Tick
				if at == 0 {
					// Run-level finding (extreme stability,
					// instrumentation anomaly): the evidence is only
					// complete at the end of the iteration.
					at = iterTicks
				}
				// Mode faults (consulted via Plan().Enabled, never
				// incrementing Triggers) are active from the start of
				// the fault window; anchor their latency there.
				base := faultEpoch
				if !epochSet {
					base = windowStart
				}
				res.DetectionLatencyTicks = int64(cum + at - base)
			}
		}
		cum += iterTicks
	}

	// Phase time budgets split the cell's share 1:2:1; each phase
	// always runs its minimum iterations, then spends budget while the
	// global deadline holds.
	runPhase := func(ph *PhaseStats, min int, budget time.Duration, faulty bool) {
		start := time.Now()
		for i := 0; ; i++ {
			if i >= min {
				if r.deadline.IsZero() || time.Since(start) >= budget || !time.Now().Before(r.deadline) {
					break
				}
			}
			runOne(ph, faulty)
		}
	}

	wBudget := r.share / 4
	fBudget := r.share / 2
	rBudget := r.share - wBudget - fBudget
	runPhase(&res.Warmup, warmupIters, wBudget, false)
	runPhase(&res.FaultWindow, faultIters, fBudget, true)
	runPhase(&res.Recovery, recoveryIters, rBudget, false)

	res.Verdict, res.OK = verdictOf(res.ExpectDetect, res.Detected)
	r.progress("soak %-22s on %-11s %-12s triggers=%-6d latency=%d\n",
		c.Fault, c.Workload, res.Verdict, res.Triggers, res.DetectionLatencyTicks)
	return res, nil
}

func (r *runner) progress(format string, args ...any) {
	if r.opts.Progress == nil {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	fmt.Fprintf(r.opts.Progress, format, args...)
}
