// Package detect implements HeapMD's anomaly detector / execution
// checker (paper Section 2.2, lower half of Figure 2).
//
// The detector compares metric samples from a monitored execution
// against the calibrated ranges in the model:
//
//   - A *range violation* — a globally stable metric leaving its
//     [min, max] band — is reported as a bug. Crucially, instability
//     alone is not: a metric that was stable in training may fluctuate
//     during checking so long as it stays in band.
//   - When a stable metric *approaches* its calibrated maximum with a
//     positive slope (or its minimum with a negative slope), the
//     detector arms call-stack logging into a circular buffer, and
//     keeps logging briefly after a crossing, so a bug report carries
//     call-stack context from before, during and after the violation.
//   - At the end of a run the detector performs two run-level checks:
//     *extreme-value stability* (a stable metric pinned at its
//     calibrated extreme for the whole run — the paper's "poorly
//     disguised" bugs, e.g. the oct-tree that became an oct-DAG) and
//     *unexpected stability* (a training-time-unstable metric holding
//     stable — the paper's "pathological" bugs).
package detect

import (
	"fmt"
	"strings"

	"heapmd/internal/callstack"
	"heapmd/internal/event"
	"heapmd/internal/health"
	"heapmd/internal/logger"
	"heapmd/internal/metrics"
	"heapmd/internal/model"
	"heapmd/internal/stats"
)

// Kind classifies a finding.
type Kind int

const (
	// RangeViolation is the paper's *heap anomaly* bug signal: a
	// stable metric outside its calibrated range.
	RangeViolation Kind = iota
	// ExtremeStability flags a stable metric pinned at its
	// calibrated extreme for an entire run ("poorly disguised").
	ExtremeStability
	// UnexpectedStability flags a training-time-unstable metric that
	// held a stable value during checking ("pathological").
	UnexpectedStability
	// InstrumentationAnomaly flags a nonzero bug-evidence health
	// counter: the logger observed events it could not
	// apply to the heap image (double frees, wild stores, ...).
	// These are direct evidence of the corruption bugs in the
	// paper's taxonomy, reported even when every degree metric
	// stayed in band.
	InstrumentationAnomaly
)

func (k Kind) String() string {
	switch k {
	case RangeViolation:
		return "range-violation"
	case ExtremeStability:
		return "extreme-stability"
	case UnexpectedStability:
		return "unexpected-stability"
	case InstrumentationAnomaly:
		return "instrumentation-anomaly"
	default:
		return fmt.Sprintf("detect.Kind(%d)", int(k))
	}
}

// Direction indicates which bound a violation crossed.
type Direction int

const (
	AboveMax Direction = iota
	BelowMin
)

func (d Direction) String() string {
	if d == BelowMin {
		return "below-min"
	}
	return "above-max"
}

// Finding is one detector report.
type Finding struct {
	Kind      Kind
	Metric    string
	Direction Direction
	// Tick is the metric computation point of the first violation.
	Tick uint64
	// Value is the offending metric value.
	Value float64
	// Range is the calibrated range that was violated.
	Range stats.Range
	// Recurrences counts further out-of-range samples for the same
	// metric and direction after the first report.
	Recurrences int
	// Captures holds the circular-buffer call stacks around the
	// violation (online mode only), oldest first.
	Captures []callstack.Capture
}

// Describe renders the finding with symbolized stacks.
func (f *Finding) Describe(sym *event.Symtab) string {
	var b strings.Builder
	if f.Kind == InstrumentationAnomaly {
		fmt.Fprintf(&b, "[%s] counter=%s count=%.0f threshold=%.0f",
			f.Kind, f.Metric, f.Value, f.Range.Max)
		return b.String()
	}
	fmt.Fprintf(&b, "[%s] metric=%s %s at tick %d: value=%.2f calibrated=[%.2f, %.2f]",
		f.Kind, f.Metric, f.Direction, f.Tick, f.Value, f.Range.Min, f.Range.Max)
	if f.Recurrences > 0 {
		fmt.Fprintf(&b, " (+%d recurrences)", f.Recurrences)
	}
	if sym != nil && len(f.Captures) > 0 {
		b.WriteString("\n  call-stack context:")
		for _, c := range f.Captures {
			fmt.Fprintf(&b, "\n    tick %d value %.2f: %s", c.Tick, c.Value, strings.Join(sym.Names(c.Stack), " > "))
		}
	}
	return b.String()
}

// The detector's fixed settings (paper Section 2.2).
const (
	// approachFrac is the fraction of the calibrated range width
	// within which a metric counts as "approaching" an extreme,
	// arming call-stack logging.
	approachFrac = 0.10
	// ringCapacity is the circular call-stack buffer size per metric.
	ringCapacity = 16
	// postSamples is how many samples after a crossing the detector
	// keeps logging stacks before finalizing the report.
	postSamples = 3
)

// metricState is the detector's per-stable-metric state machine.
type metricState struct {
	id      metrics.ID
	idx     int // index in the suite
	rng     stats.Range
	prev    float64
	hasPrev bool
	// ring holds the metric's logged call stacks; nil until the first
	// capture, so a run checked without stacks (CheckReport) never
	// allocates one.
	ring *callstack.Ring
	// open is the finding currently collecting post-crossing
	// context, if any.
	open     *Finding
	postLeft int
	reported [2]*Finding // first finding per Direction
	// values is the series the online detector observed, for the
	// run-level checks. The offline check keeps none: it reads the
	// series from the report (CheckReport).
	values []float64
}

// capture logs the current call stack, if there is one, into the
// metric's ring.
func (st *metricState) capture(tick uint64, v float64, stack *callstack.Tracker) {
	if stack == nil {
		return
	}
	if st.ring == nil {
		st.ring = callstack.NewRing(ringCapacity)
	}
	st.ring.Add(callstack.Capture{Tick: tick, Value: v, Stack: stack.Snapshot()})
}

// clearRing drops the logged call stacks.
func (st *metricState) clearRing() {
	if st.ring != nil {
		st.ring.Clear()
	}
}

// closeOpen hands the logged call stacks, oldest first, to the open
// finding — an empty, non-nil list when none were logged — and closes
// it.
func (st *metricState) closeOpen() {
	if st.ring == nil {
		st.open.Captures = []callstack.Capture{}
	} else {
		st.open.Captures = st.ring.Snapshot()
		st.ring.Clear()
	}
	st.open = nil
}

// Detector is the online execution checker. It implements
// logger.SampleObserver: attach it to a Logger with Observe and it
// will see every metric computation point.
type Detector struct {
	mdl    *model.Model
	suite  metrics.Suite
	states []metricState
	// unstable lists the suite indices of metrics classified unstable
	// during training, in suite order, for the pathological check.
	unstable []int
	findings []*Finding
	finished bool
	// series is the offline check's one scratch buffer for a metric's
	// series read from the report.
	series []float64
	// skipStart is the number of leading samples ignored: the
	// startup window the model constructor also discarded.
	skipStart int
	seen      int // samples observed, including skipped ones
}

// New builds an online detector for the given model against
// executions logged with the given metric suite. Stable metrics absent
// from the suite are ignored. The detector ignores the first
// mdl.SkipStartSamples() samples: metrics "change rapidly during
// program startup" (paper Section 2.1), and the model was calibrated
// on series with that prefix trimmed, so it would otherwise flag every
// startup transient.
func New(mdl *model.Model, suite metrics.Suite) *Detector {
	return newDetector(mdl, suite, mdl.SkipStartSamples())
}

// newDetector builds a detector that ignores the first skipStart
// samples.
func newDetector(mdl *model.Model, suite metrics.Suite, skipStart int) *Detector {
	d := &Detector{mdl: mdl, suite: suite, skipStart: skipStart}
	stable := mdl.StableIDs()
	d.states = make([]metricState, 0, len(stable))
	for _, id := range stable {
		if idx := suite.Index(id); idx >= 0 {
			rng, _ := mdl.RangeOf(id)
			d.states = append(d.states, metricState{id: id, idx: idx, rng: rng})
		}
	}
	for i, id := range suite.IDs() {
		if mdl.Classes[id.String()] == model.Unstable {
			d.unstable = append(d.unstable, i)
		}
	}
	return d
}

// Sample implements logger.SampleObserver.
func (d *Detector) Sample(snap metrics.Snapshot, stack *callstack.Tracker) {
	d.seen++
	if d.seen > d.skipStart {
		d.observe(snap, stack, true)
	}
}

// observe steps every metric's state machine through one sample and,
// with keep, appends the sample's values to the metrics' series.
func (d *Detector) observe(snap metrics.Snapshot, stack *callstack.Tracker, keep bool) {
	for i := range d.states {
		st := &d.states[i]
		if st.idx >= len(snap.Values) {
			// Snapshot narrower than the suite (v1 report against an
			// extended suite): no evidence for this metric, skip it.
			continue
		}
		v := snap.Values[st.idx]
		if keep {
			st.values = append(st.values, v)
		}
		d.step(st, v, snap.Tick, stack)
	}
}

func (d *Detector) step(st *metricState, v float64, tick uint64, stack *callstack.Tracker) {
	slope := 0.0
	if st.hasPrev {
		slope = v - st.prev
	}
	st.prev, st.hasPrev = v, true

	// Finish an open finding's post-crossing context window.
	if st.open != nil {
		st.capture(tick, v, stack)
		st.postLeft--
		if st.postLeft <= 0 {
			st.closeOpen()
		}
	}

	width := st.rng.Width()
	margin := width * approachFrac
	if width == 0 {
		// Degenerate calibrated range: any excursion is a
		// violation; use a small absolute arming margin.
		margin = 0.5
	}

	switch {
	case v > st.rng.Max:
		d.violate(st, v, tick, AboveMax, stack)
	case v < st.rng.Min:
		d.violate(st, v, tick, BelowMin, stack)
	case st.open == nil:
		// In range: arm or disarm the circular logging.
		nearMax := v >= st.rng.Max-margin && slope > 0
		nearMin := v <= st.rng.Min+margin && slope < 0
		if nearMax || nearMin {
			st.capture(tick, v, stack)
		} else if v < st.rng.Max-margin && v > st.rng.Min+margin {
			// Moved away from both extremes: drop stale context.
			st.clearRing()
		}
	}
}

func (d *Detector) violate(st *metricState, v float64, tick uint64, dir Direction, stack *callstack.Tracker) {
	if prev := st.reported[dir]; prev != nil {
		// Already reported in this direction; the open-window logging
		// in step (if still active) captures the context, so only
		// count the recurrence here.
		prev.Recurrences++
		return
	}
	f := &Finding{
		Kind:      RangeViolation,
		Metric:    st.id.String(),
		Direction: dir,
		Tick:      tick,
		Value:     v,
		Range:     st.rng,
	}
	st.capture(tick, v, stack)
	st.reported[dir] = f
	st.open = f
	st.postLeft = postSamples
	d.findings = append(d.findings, f)
}

// Finish runs the end-of-run checks and finalizes open findings. It
// must be called once after the monitored execution completes.
func (d *Detector) Finish() {
	d.finish(func(st *metricState) []float64 { return st.values })
}

// finish is Finish with each metric's observed series given by series.
func (d *Detector) finish(series func(*metricState) []float64) {
	if d.finished {
		return
	}
	d.finished = true
	th := d.mdl.Thresholds
	// Close findings still collecting context.
	for i := range d.states {
		if st := &d.states[i]; st.open != nil {
			st.closeOpen()
		}
	}
	// Poorly disguised: stable metric pinned at a calibrated extreme
	// all run (after trimming).
	for i := range d.states {
		st := &d.states[i]
		trimmed := stats.Trim(series(st), th.TrimFrac)
		if len(trimmed) < th.MinSamples {
			continue
		}
		obs, err := stats.RangeOf(trimmed)
		if err != nil {
			continue
		}
		width := st.rng.Width()
		eps := width * approachFrac
		if width == 0 {
			eps = 0.5
		}
		// Pinned near min or near max for the entire run, with the
		// run's own spread tiny compared to the calibrated band.
		pinnedMin := obs.Max <= st.rng.Min+eps && obs.Min >= st.rng.Min-eps
		pinnedMax := obs.Min >= st.rng.Max-eps && obs.Max <= st.rng.Max+eps
		if width > 0 && (pinnedMin || pinnedMax) {
			dir := AboveMax
			val := obs.Max
			if pinnedMin {
				dir = BelowMin
				val = obs.Min
			}
			d.findings = append(d.findings, &Finding{
				Kind:      ExtremeStability,
				Metric:    st.id.String(),
				Direction: dir,
				Tick:      0,
				Value:     val,
				Range:     st.rng,
			})
		}
	}
}

// checkUnstable evaluates the pathological-bug check against a full
// run report: metrics that were unstable in training but are stable in
// this run, by the summarizer's own per-input rule, are reported as
// UnexpectedStability findings, in suite order. It is split from
// finish because it needs the run's full report.
func (d *Detector) checkUnstable(rep *logger.Report) {
	ids := d.suite.IDs()
	for _, idx := range d.unstable {
		if sum, stable, ok := d.mdl.Thresholds.Classify(d.column(rep.Snapshots, idx)); ok && stable {
			d.findings = append(d.findings, &Finding{
				Kind:   UnexpectedStability,
				Metric: ids[idx].String(),
				Value:  sum.Observed.Max,
				Range:  sum.Observed,
			})
		}
	}
}

// column fills the detector's scratch buffer with column idx of snaps
// (metrics.AppendSeries: narrow snapshots are skipped) and returns it.
// The buffer is valid until the next call.
func (d *Detector) column(snaps []metrics.Snapshot, idx int) []float64 {
	d.series = metrics.AppendSeries(d.series[:0], snaps, idx)
	return d.series
}

// CheckHealth reports each nonzero bug-evidence counter of a run
// (health.Counters.Evidence) as an InstrumentationAnomaly finding
// whose range is [0, 0]: one occurrence is already out of range. The
// counters are themselves bug evidence: a double free or a spike in
// wild stores is a corruption bug from the paper's taxonomy even when
// every degree metric stayed inside its calibrated range.
func (d *Detector) CheckHealth(c health.Counters) {
	for _, it := range c.Evidence() {
		d.findings = append(d.findings, &Finding{
			Kind:      InstrumentationAnomaly,
			Metric:    it.Name,
			Direction: AboveMax,
			Value:     float64(it.Count),
		})
	}
}

// Findings returns all findings reported so far, in detection order.
func (d *Detector) Findings() []*Finding { return d.findings }

// Violations returns only the range-violation findings — the paper's
// bug reports.
func (d *Detector) Violations() []*Finding {
	var out []*Finding
	for _, f := range d.findings {
		if f.Kind == RangeViolation {
			out = append(out, f)
		}
	}
	return out
}

// CheckReport performs offline (post-mortem) checking of a recorded
// metric report against a model: the paper's second usage mode, where
// the execution trace is compared against the model after the fact.
// Startup and shutdown samples are trimmed with the model's TrimFrac,
// symmetric with how the model itself was calibrated; that trim is the
// only startup skip, so the detector skips nothing more. It returns the
// findings in detection order; no call stacks are available in this
// mode. The detector keeps no series of its own: the run-level checks
// read each metric's series from the report into one scratch buffer.
func CheckReport(mdl *model.Model, rep *logger.Report) []*Finding {
	suite, err := suiteOf(rep)
	if err != nil {
		return nil
	}
	lo, hi := stats.TrimBounds(len(rep.Snapshots), mdl.Thresholds.TrimFrac)
	checked := rep.Snapshots[lo:hi]
	d := newDetector(mdl, suite, 0)
	d.series = make([]float64, 0, len(rep.Snapshots))
	for _, snap := range checked {
		d.observe(snap, nil, false)
	}
	d.finish(func(st *metricState) []float64 { return d.column(checked, st.idx) })
	d.checkUnstable(rep)
	d.CheckHealth(rep.Health)
	return d.Findings()
}

// suiteOf reconstructs the metric suite from a report's metric names.
func suiteOf(rep *logger.Report) (metrics.Suite, error) {
	ids := make([]metrics.ID, 0, len(rep.Suite))
	for _, name := range rep.Suite {
		id, err := metrics.ParseID(name)
		if err != nil {
			return metrics.Suite{}, err
		}
		ids = append(ids, id)
	}
	return metrics.NewSuite(ids...), nil
}
