// Package heapmd is a reproduction of "HeapMD: Identifying Heap-based
// Bugs using Anomaly Detection" (Chilimbi & Ganapathy, ASPLOS 2006):
// a dynamic-analysis tool that finds heap bugs by noticing when
// normally-stable degree metrics of the heap-graph leave their
// calibrated ranges.
//
// The package is a facade over the internal implementation. The
// pipeline mirrors the paper's two-phase architecture:
//
//	                ┌────────────┐   reports   ┌────────────┐
//	instrumented ──▶│ exec logger│────────────▶│ summarizer │──▶ Model
//	  program       └────────────┘  (training) └────────────┘
//	                ┌────────────┐    model    ┌────────────┐
//	instrumented ──▶│ exec logger│────────────▶│  detector  │──▶ findings
//	  program       └────────────┘  (checking) └────────────┘
//
// A minimal training-and-checking session:
//
//	sess := heapmd.NewSession(heapmd.Options{})
//	for _, input := range trainingInputs {
//		run := sess.NewRun("myprog", input)
//		execute(run.Process()) // your program, against run.Process()
//		sess.AddTraining(run)
//	}
//	model, summary, err := sess.Build()
//	...
//	run := sess.NewRun("myprog", testInput)
//	execute(run.Process())
//	findings := heapmd.Check(model, run.Report())
//
// Programs execute against a simulated heap (heapmd.Process), which
// plays the role of the paper's Vulcan-instrumented x86 binary: every
// allocation, free, pointer write and function entry is observed by
// the execution logger.
package heapmd

import (
	"fmt"
	"io"

	"heapmd/internal/detect"
	"heapmd/internal/event"
	"heapmd/internal/faults"
	"heapmd/internal/health"
	"heapmd/internal/logger"
	"heapmd/internal/metrics"
	"heapmd/internal/model"
	"heapmd/internal/prog"
	"heapmd/internal/sched"
	"heapmd/internal/stats"
	"heapmd/internal/trace"
)

// Core pipeline types, re-exported from the implementation packages.
type (
	// Process is the simulated program context: a heap plus call
	// tracking whose activity is fully observable.
	Process = prog.Process

	// Report is one execution's raw metric report.
	Report = logger.Report

	// Model is the calibrated heap-behaviour model: the ranges of
	// the globally stable metrics.
	Model = model.Model

	// Thresholds are the summarizer's stability thresholds.
	Thresholds = model.Thresholds

	// BuildResult couples a Model with per-metric classification
	// evidence.
	BuildResult = model.BuildResult

	// Finding is one anomaly-detector report.
	Finding = detect.Finding

	// Detector is the online execution checker.
	Detector = detect.Detector

	// FaultPlan configures fault injection for the bundled
	// workloads and data structures.
	FaultPlan = faults.Plan

	// MetricID identifies one heap-graph metric.
	MetricID = metrics.ID

	// Range is a calibrated [min, max] interval.
	Range = stats.Range

	// Event is one instrumentation record.
	Event = event.Event

	// Symtab resolves function IDs in findings and traces.
	Symtab = event.Symtab

	// HealthCounters tallies instrumentation the logger observed but
	// could not interpret (double frees, wild stores, ...); carried
	// in every Report and checked by the detector.
	HealthCounters = health.Counters

	// SalvageInfo describes what trace salvage recovered from a
	// damaged trace.
	SalvageInfo = trace.SalvageInfo

	// TraceStats is the storage accounting replay gathers: format
	// version, bytes per event, compression ratio.
	TraceStats = trace.Stats

	// ConnectivityMode is the type of the ignored Connectivity and
	// SCC option fields; its one value's String is "incremental".
	//
	// Deprecated: component counts are always incremental.
	ConnectivityMode = logger.ConnectivityMode
)

// ParseConnectivity accepts the retired -connectivity spellings
// (snapshot, incremental, verify) and returns the one mode there is.
//
// Deprecated: component counts are always incremental.
func ParseConnectivity(s string) (ConnectivityMode, error) {
	return parseComponentMode("connectivity", s)
}

// ParseSCC is ParseConnectivity for the retired -scc spellings.
//
// Deprecated: component counts are always incremental.
func ParseSCC(s string) (ConnectivityMode, error) {
	return parseComponentMode("scc", s)
}

func parseComponentMode(what, s string) (ConnectivityMode, error) {
	switch s {
	case "snapshot", "incremental", "verify":
		return 0, nil
	}
	return 0, fmt.Errorf("heapmd: unknown %s mode %q (want snapshot, incremental or verify)", what, s)
}

// SimulationFrequency is the default sampling frequency for simulated
// runs and trace replay; see logger.SimulationFrequency for why it
// differs from the paper's frq = 1/100,000.
const SimulationFrequency = logger.SimulationFrequency

// TraceFormatV3 is the columnar delta-encoded trace format that
// RecordTrace writes: CRC32-protected frames, several times smaller
// than fixed-width records on real event streams, with optional
// per-frame compression. Replay auto-detects the version from the
// header (TraceStats.Version) and still reads the legacy v1 and v2
// formats.
const TraceFormatV3 = trace.VersionV3

// The paper's seven degree-based metrics.
const (
	Roots   = metrics.Roots
	InDeg1  = metrics.InDeg1
	InDeg2  = metrics.InDeg2
	Leaves  = metrics.Leaves
	OutDeg1 = metrics.OutDeg1
	OutDeg2 = metrics.OutDeg2
	InEqOut = metrics.InEqOut
)

// DefaultThresholds returns the paper's stability thresholds: average
// change within ±1%, standard deviation of change below 5, 10%
// startup/shutdown trim, and the 40%-of-inputs rule.
func DefaultThresholds() Thresholds { return model.Defaults() }

// Options configures a Session.
type Options struct {
	// Frequency samples metrics once every Frequency function
	// entries; 0 means SimulationFrequency.
	Frequency uint64
	// Thresholds override the paper defaults field by field: each
	// zero field keeps its default.
	Thresholds Thresholds
	// FieldGranularity builds the heap-graph with one vertex per
	// word instead of per object (paper Figure 3 ablation).
	FieldGranularity bool
	// Connectivity is ignored.
	//
	// Deprecated: component counts are always incremental.
	Connectivity ConnectivityMode
	// SCC is ignored.
	//
	// Deprecated: component counts are always incremental.
	SCC ConnectivityMode
	// IngestWorkers is ignored: every run's logger is subscribed to
	// its process directly.
	//
	// Deprecated: ingestion is always serial.
	IngestWorkers int
}

// IngestStats are the counters of the retired speculative ingest
// stage. Run.IngestStats reports Workers 1 and zero counters.
//
// Deprecated: ingestion is always serial.
type IngestStats struct {
	Workers              int
	SpeculationHits      uint64
	SpeculationFallbacks uint64
	PreResolveStalls     uint64
	MutatorStalls        uint64
}

// Session manages model construction across training runs.
type Session struct {
	opts    Options
	reports []*Report
}

// NewSession creates an empty training session.
func NewSession(opts Options) *Session { return &Session{opts: opts} }

// Run couples a Process with the execution logger observing it.
type Run struct {
	process *Process
	log     *logger.Logger
}

// NewRun creates an instrumented process for one execution of the
// named program on the named input. seed drives the process RNG.
func (s *Session) NewRun(program, input string, seed int64) *Run {
	return s.newRun(program, input, seed, nil)
}

// NewFaultyRun is NewRun with a fault-injection plan, for testing the
// detector against known bugs.
func (s *Session) NewFaultyRun(program, input string, seed int64, plan *FaultPlan) *Run {
	return s.newRun(program, input, seed, plan)
}

func (s *Session) newRun(program, input string, seed int64, plan *FaultPlan) *Run {
	p := prog.NewProcess(prog.Options{Seed: seed, Plan: plan})
	gran := logger.ObjectGranularity
	if s.opts.FieldGranularity {
		gran = logger.FieldGranularity
	}
	l := logger.New(logger.Options{Frequency: s.opts.Frequency, Granularity: gran})
	l.SetRun(program, input, 1)
	p.Subscribe(l)
	return &Run{process: p, log: l}
}

// Process returns the simulated program context to execute against.
func (r *Run) Process() *Process { return r.process }

// Observe attaches a sample observer (e.g. an online Detector) to the
// run's logger. Must be called before executing the program.
func (r *Run) Observe(d *Detector) { r.log.Observe(d) }

// Report finalizes the run's metric report.
func (r *Run) Report() *Report { return r.log.Report() }

// IngestStats returns IngestStats{Workers: 1}.
//
// Deprecated: ingestion is always serial.
func (r *Run) IngestStats() IngestStats { return IngestStats{Workers: 1} }

// AddTraining adds a completed run's report to the training set.
func (s *Session) AddTraining(r *Run) { s.reports = append(s.reports, r.Report()) }

// AddReport adds a previously produced report (e.g. replayed from a
// trace) to the training set.
func (s *Session) AddReport(rep *Report) { s.reports = append(s.reports, rep) }

// TrainingInput names one training execution and seeds its process.
type TrainingInput struct {
	Name string
	Seed int64
}

// TrainMany executes body once per input — each against a fresh
// instrumented Run — and adds the resulting reports to the training
// set in input order. parallel is the worker count: 0 or 1 runs
// serially, negative uses GOMAXPROCS. Because every run owns its
// process and logger, the collected reports (and the error, if any
// body fails) are identical to a serial loop at any worker count; on
// error no reports are added. body must not touch shared state without
// its own synchronization.
func (s *Session) TrainMany(program string, inputs []TrainingInput, parallel int, body func(*Run, TrainingInput) error) error {
	reports, err := sched.Map(parallel, len(inputs), func(i int) (*Report, error) {
		run := s.newRun(program, inputs[i].Name, inputs[i].Seed, nil)
		if err := body(run, inputs[i]); err != nil {
			return nil, err
		}
		return run.Report(), nil
	})
	if err != nil {
		return err
	}
	s.reports = append(s.reports, reports...)
	return nil
}

// Build runs the metric summarizer over the training reports and
// returns the model with its classification evidence. Each zero
// threshold field takes its paper default (see model.Build).
func (s *Session) Build() (*Model, *BuildResult, error) {
	res, err := model.Build(s.reports, s.opts.Thresholds)
	if err != nil {
		return nil, nil, err
	}
	return res.Model, res, nil
}

// Check performs offline checking of a report against a model and
// returns the findings — the paper's post-mortem usage mode.
func Check(m *Model, rep *Report) []*Finding {
	return detect.CheckReport(m, rep)
}

// NewDetector builds an online detector for the model; attach it to a
// Run with Observe before executing, then call Finish after. The
// detector skips the startup window the model's summarizer also
// trimmed.
func NewDetector(m *Model) *Detector {
	return detect.New(m, metrics.DefaultSuite())
}

// SaveModel serializes a model as JSON.
func SaveModel(m *Model, w io.Writer) error { return m.Save(w) }

// LoadModel deserializes a model written by SaveModel.
func LoadModel(r io.Reader) (*Model, error) { return model.Load(r) }

// DefaultDecodeWorkers returns the decode-worker count replay should
// use on this machine: all cores on a multi-core machine, 0
// (synchronous) on a single core; see trace.DefaultDecodeWorkers.
func DefaultDecodeWorkers() int { return trace.DefaultDecodeWorkers() }

// TraceOptions configure RecordTraceWith.
type TraceOptions struct {
	// Compress flate-compresses event frames when that makes them
	// smaller; replay output is identical.
	Compress bool
}

// RecordTrace attaches a trace writer to a run so its event stream
// can be replayed later (post-mortem analysis). The writer is handed
// the run's symbol table up front, so the framed formats checkpoint
// it periodically and a run that crashes before the returned close
// function runs still leaves a salvageable, symbolized trace. Call
// the close function after execution for a cleanly-terminated trace.
// The trace is written in the columnar v3 format, uncompressed — the
// zero TraceOptions of RecordTraceWith, which also offers flate
// compression. Frames are encoded on the goroutine that emits the
// events.
func RecordTrace(r *Run, w io.Writer) (func() error, error) {
	return RecordTraceWith(r, w, TraceOptions{})
}

// RecordTraceWith is RecordTrace with control over compression; the
// zero options record uncompressed.
func RecordTraceWith(r *Run, w io.Writer, opts TraceOptions) (func() error, error) {
	tw, err := trace.NewWriterWith(w, trace.WriterOptions{Compress: opts.Compress})
	if err != nil {
		return nil, err
	}
	tw.SetSymtab(r.process.Sym())
	r.process.Subscribe(tw)
	return func() error { return tw.Close(r.process.Sym()) }, nil
}

// ReplayOptions configures trace ingestion.
type ReplayOptions struct {
	// Frequency samples metrics every Frequency-th function entry;
	// it must match the recording session's frequency for comparable
	// reports. 0 means SimulationFrequency, the session default.
	Frequency uint64
	// Salvage recovers the longest valid prefix of a truncated or
	// corrupted trace instead of failing; the loss is described in
	// the returned SalvageInfo and tallied in the report's health
	// counters.
	Salvage bool
	// Suite selects the metric suite for the replay; zero value
	// means the default seven-metric suite.
	Suite metrics.Suite
	// DecodeWorkers selects the trace decode path: 0 decodes
	// synchronously, and n ≥ 1 runs a framing scanner plus n decode
	// workers with ordered delivery. The report is identical at any
	// setting; negative values decode synchronously.
	// DefaultDecodeWorkers returns this machine's recommended value.
	// See trace.ReadOptions.DecodeWorkers.
	DecodeWorkers int
	// Stats, when non-nil, is filled with storage accounting for the
	// replayed trace: format version, bytes per event, compression
	// ratio.
	Stats *TraceStats
	// Connectivity is ignored.
	//
	// Deprecated: component counts are always incremental.
	Connectivity ConnectivityMode
	// SCC is ignored.
	//
	// Deprecated: component counts are always incremental.
	SCC ConnectivityMode
	// IngestWorkers is validated (negative values are an error) and
	// otherwise ignored: the decoded trace is applied to the logger
	// serially, in order. Stats.IngestWorkers reads 1.
	//
	// Deprecated: ingestion is always serial.
	IngestWorkers int
}

// ReplayTrace replays a recorded trace into an empty logger and
// returns the reconstructed report; see ReplayOptions.Frequency.
func ReplayTrace(rd io.ReadSeeker, program, input string, frequency uint64) (*Report, *Symtab, error) {
	rep, sym, _, err := ReplayTraceWith(rd, program, input, ReplayOptions{Frequency: frequency})
	return rep, sym, err
}

// ReplayTraceWith replays a recorded trace into an empty logger with
// full control over ingestion. With Salvage set, a damaged trace
// yields the report reconstructed from its longest valid prefix plus
// a SalvageInfo describing the loss; without it, damage yields an
// error wrapping trace.ErrCorrupt. The logger is released when the
// replay ends, so the next replay reuses its heap image (see
// logger.New); the report shares no storage with it. Concurrent
// replays are safe: each takes its own logger.
func ReplayTraceWith(rd io.ReadSeeker, program, input string, opts ReplayOptions) (*Report, *Symtab, *SalvageInfo, error) {
	if _, err := sched.ParseIngestWorkers(opts.IngestWorkers); err != nil {
		return nil, nil, nil, err
	}
	l := logger.New(logger.Options{Frequency: opts.Frequency, Suite: opts.Suite})
	defer l.Release()
	l.SetRun(program, input, 1)
	var (
		sym  *Symtab
		info *SalvageInfo
		err  error
	)
	ropts := trace.ReadOptions{DecodeWorkers: opts.DecodeWorkers, Stats: opts.Stats}
	if opts.Salvage {
		sym, info, err = trace.SalvageWith(rd, l, ropts)
	} else {
		var n uint64
		sym, n, err = trace.ReplayWith(rd, l, ropts)
		info = &SalvageInfo{EventsRecovered: n}
	}
	if opts.Stats != nil {
		opts.Stats.IngestWorkers = 1
	}
	if err != nil {
		return nil, nil, nil, err
	}
	if info.Salvaged() {
		h := l.Health()
		h.SalvagedGaps++
		h.SalvagedBytes += info.BytesDropped
	}
	return l.Report(), sym, info, nil
}

// NewFaultPlan returns an empty fault-injection plan; see package
// internal/faults for the catalogue of fault names.
func NewFaultPlan() *FaultPlan { return faults.NewPlan() }
