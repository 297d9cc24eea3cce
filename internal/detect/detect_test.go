package detect

import (
	"strings"
	"testing"

	"heapmd/internal/callstack"
	"heapmd/internal/event"
	"heapmd/internal/logger"
	"heapmd/internal/metrics"
	"heapmd/internal/model"
	"heapmd/internal/stats"
)

var (
	testSuite = metrics.NewSuite(metrics.Roots, metrics.Leaves)
)

// testModel builds a model in which Roots is globally stable in
// [10, 20] and Leaves was classified unstable.
func testModel() *model.Model {
	return &model.Model{
		Program:    "prog",
		Thresholds: model.Defaults(),
		Stable: map[string]stats.Range{
			metrics.Roots.String(): {Min: 10, Max: 20},
		},
		Classes: map[string]model.Class{
			metrics.Roots.String():  model.GloballyStable,
			metrics.Leaves.String(): model.Unstable,
		},
		TrainingInputs: 5,
	}
}

// feed sends a sequence of (roots, leaves) samples to the detector.
func feed(d *Detector, rootVals []float64) {
	for i, v := range rootVals {
		snap := metrics.Snapshot{Tick: uint64(i + 1), Values: []float64{v, 50}}
		d.Sample(snap, nil)
	}
}

func TestNoViolationInBand(t *testing.T) {
	d := New(testModel(), testSuite)
	feed(d, []float64{12, 15, 18, 11, 19.9, 10.0, 20.0})
	d.Finish()
	if len(d.Violations()) != 0 {
		t.Fatalf("in-band run produced violations: %+v", d.Violations()[0])
	}
}

func TestInstabilityAloneIsNotABug(t *testing.T) {
	// Wild swings inside the calibrated band must not be reported
	// (paper Section 2.2: stability is not re-checked, only range).
	d := New(testModel(), testSuite)
	feed(d, []float64{10, 20, 10, 20, 10, 20, 10, 20})
	d.Finish()
	if len(d.Violations()) != 0 {
		t.Fatal("in-band oscillation reported as a bug")
	}
}

func TestViolationAboveMax(t *testing.T) {
	d := New(testModel(), testSuite)
	feed(d, []float64{12, 15, 21.5})
	d.Finish()
	v := d.Violations()
	if len(v) != 1 {
		t.Fatalf("violations = %d, want 1", len(v))
	}
	f := v[0]
	if f.Metric != "Roots" || f.Direction != AboveMax || f.Tick != 3 || f.Value != 21.5 {
		t.Errorf("finding = %+v", f)
	}
}

func TestViolationBelowMin(t *testing.T) {
	d := New(testModel(), testSuite)
	feed(d, []float64{12, 9})
	d.Finish()
	v := d.Violations()
	if len(v) != 1 || v[0].Direction != BelowMin {
		t.Fatalf("violations = %+v", v)
	}
}

func TestRecurrencesDeduplicated(t *testing.T) {
	d := New(testModel(), testSuite)
	feed(d, []float64{12, 25, 26, 27, 9})
	d.Finish()
	v := d.Violations()
	if len(v) != 2 {
		t.Fatalf("violations = %d, want 2 (one per direction)", len(v))
	}
	if v[0].Direction != AboveMax || v[0].Recurrences != 2 {
		t.Errorf("above-max finding = %+v, want 2 recurrences", v[0])
	}
	if v[1].Direction != BelowMin || v[1].Recurrences != 0 {
		t.Errorf("below-min finding = %+v", v[1])
	}
}

// stackFor builds a tracker with the given frames.
func stackFor(fns ...event.FnID) *callstack.Tracker {
	tr := callstack.NewTracker()
	for _, f := range fns {
		tr.Enter(f)
	}
	return tr
}

func TestCallStackArmingAndCapture(t *testing.T) {
	d := New(testModel(), testSuite)
	send := func(tick uint64, v float64, st *callstack.Tracker) {
		d.Sample(metrics.Snapshot{Tick: tick, Values: []float64{v, 0}}, st)
	}
	send(1, 15, stackFor(1))   // mid-band: not armed
	send(2, 19.5, stackFor(2)) // within 10% of max=20, rising: armed
	send(3, 19.8, stackFor(3)) // still approaching
	send(4, 21, stackFor(4))   // crossing: violation
	send(5, 22, stackFor(5))   // post-crossing context
	send(6, 22, stackFor(6))   // post-crossing context (closes window)
	d.Finish()
	v := d.Violations()
	if len(v) != 1 {
		t.Fatalf("violations = %d, want 1", len(v))
	}
	caps := v[0].Captures
	if len(caps) < 4 {
		t.Fatalf("captures = %d, want pre+crossing+post context", len(caps))
	}
	// The capture window must span before (tick 2, 3), during (4)
	// and after (5, 6) the crossing.
	ticks := map[uint64]bool{}
	for _, c := range caps {
		ticks[c.Tick] = true
	}
	for _, want := range []uint64{2, 3, 4, 5} {
		if !ticks[want] {
			t.Errorf("capture window missing tick %d (got %v)", want, ticks)
		}
	}
	if ticks[1] {
		t.Error("mid-band sample must not be captured")
	}
}

func TestDisarmClearsStaleContext(t *testing.T) {
	d := New(testModel(), testSuite)
	send := func(tick uint64, v float64, st *callstack.Tracker) {
		d.Sample(metrics.Snapshot{Tick: tick, Values: []float64{v, 0}}, st)
	}
	send(1, 19.5, stackFor(1)) // armed near max
	send(2, 15, stackFor(2))   // retreat to mid-band: disarm, clear
	send(3, 21, stackFor(3))   // sudden violation
	d.Finish()
	v := d.Violations()
	if len(v) != 1 {
		t.Fatalf("violations = %d", len(v))
	}
	for _, c := range v[0].Captures {
		if c.Tick == 1 {
			t.Error("stale pre-disarm capture leaked into the report")
		}
	}
}

func TestExtremeStabilityPoorlyDisguised(t *testing.T) {
	// Metric pinned at its calibrated minimum the whole run: the
	// oct-DAG pattern (paper Section 4.3).
	d := New(testModel(), testSuite)
	vals := make([]float64, 50)
	for i := range vals {
		vals[i] = 10.2 // hugs min=10 within 10% of width (1.0)
	}
	feed(d, vals)
	d.Finish()
	var found *Finding
	for _, f := range d.Findings() {
		if f.Kind == ExtremeStability {
			found = f
		}
	}
	if found == nil {
		t.Fatal("pinned-at-min run did not produce ExtremeStability")
	}
	if found.Direction != BelowMin {
		t.Errorf("direction = %v, want below-min", found.Direction)
	}
}

func TestNoExtremeStabilityMidBand(t *testing.T) {
	d := New(testModel(), testSuite)
	vals := make([]float64, 50)
	for i := range vals {
		vals[i] = 15
	}
	feed(d, vals)
	d.Finish()
	for _, f := range d.Findings() {
		if f.Kind == ExtremeStability {
			t.Fatal("mid-band stable run flagged as extreme stability")
		}
	}
}

// mkReport builds a report over testSuite with the given series.
func mkReport(roots, leaves []float64) *logger.Report {
	rep := &logger.Report{
		Program: "prog",
		Input:   "in",
		Suite:   []string{metrics.Roots.String(), metrics.Leaves.String()},
	}
	for i := range roots {
		rep.Snapshots = append(rep.Snapshots, metrics.Snapshot{
			Tick:   uint64(i + 1),
			Values: []float64{roots[i], leaves[i]},
		})
	}
	return rep
}

func TestUnexpectedStabilityPathological(t *testing.T) {
	// Leaves was unstable in training; a run where it sits rigidly
	// flat is the paper's "pathological" signal.
	roots := make([]float64, 60)
	leaves := make([]float64, 60)
	for i := range roots {
		roots[i] = 15
		leaves[i] = 42
	}
	rep := mkReport(roots, leaves)
	findings := CheckReport(testModel(), rep)
	var got *Finding
	for _, f := range findings {
		if f.Kind == UnexpectedStability {
			got = f
		}
	}
	if got == nil {
		t.Fatal("flat unstable metric did not produce UnexpectedStability")
	}
	if got.Metric != "Leaves" {
		t.Errorf("metric = %s, want Leaves", got.Metric)
	}
}

func TestCheckReportOffline(t *testing.T) {
	roots := []float64{12, 14, 25, 13}
	leaves := []float64{1, 50, 3, 80} // unstable as trained
	findings := CheckReport(testModel(), mkReport(roots, leaves))
	var violations int
	for _, f := range findings {
		if f.Kind == RangeViolation {
			violations++
			if len(f.Captures) != 0 {
				t.Error("offline checking cannot have stack captures")
			}
		}
	}
	if violations != 1 {
		t.Errorf("violations = %d, want 1", violations)
	}
}

func TestDescribe(t *testing.T) {
	sym := event.NewSymtab()
	a := sym.Intern("alloc_node")
	f := &Finding{
		Kind: RangeViolation, Metric: "Roots", Direction: AboveMax,
		Tick: 7, Value: 25, Range: stats.Range{Min: 10, Max: 20},
		Recurrences: 2,
		Captures: []callstack.Capture{
			{Tick: 6, Value: 19.5, Stack: []event.FnID{a}},
		},
	}
	s := f.Describe(sym)
	for _, want := range []string{"range-violation", "Roots", "above-max", "25.00", "alloc_node", "+2 recurrences"} {
		if !strings.Contains(s, want) {
			t.Errorf("Describe missing %q in:\n%s", want, s)
		}
	}
}

func TestKindAndDirectionStrings(t *testing.T) {
	if RangeViolation.String() != "range-violation" ||
		ExtremeStability.String() != "extreme-stability" ||
		UnexpectedStability.String() != "unexpected-stability" {
		t.Error("Kind strings wrong")
	}
	if AboveMax.String() != "above-max" || BelowMin.String() != "below-min" {
		t.Error("Direction strings wrong")
	}
	if !strings.Contains(Kind(42).String(), "42") {
		t.Error("unknown Kind should embed number")
	}
}

func TestStableMetricMissingFromSuite(t *testing.T) {
	// Model knows Roots, but the run's suite lacks it: no states, no
	// panic, no findings.
	suite := metrics.NewSuite(metrics.Leaves)
	d := New(testModel(), suite)
	d.Sample(metrics.Snapshot{Tick: 1, Values: []float64{50}}, nil)
	d.Finish()
	if len(d.Findings()) != 0 {
		t.Error("suite without stable metrics produced findings")
	}
}

func TestDegenerateRangeViolation(t *testing.T) {
	mdl := testModel()
	mdl.Stable[metrics.Roots.String()] = stats.Range{Min: 15, Max: 15}
	d := New(mdl, testSuite)
	feed(d, []float64{15, 15, 16})
	d.Finish()
	if len(d.Violations()) != 1 {
		t.Fatalf("degenerate-range violation count = %d, want 1", len(d.Violations()))
	}
}

func BenchmarkDetectorSample(b *testing.B) {
	d := New(testModel(), testSuite)
	snap := metrics.Snapshot{Tick: 1, Values: []float64{15, 50}}
	st := stackFor(1, 2, 3)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		snap.Tick = uint64(i)
		d.Sample(snap, st)
	}
}

// TestUnexpectedStabilityOrder pins the pathological findings to suite
// order: heapmd check prints findings in order, and its output must
// read the same on every run.
func TestUnexpectedStabilityOrder(t *testing.T) {
	unstable := []metrics.ID{metrics.Leaves, metrics.InDeg1, metrics.InDeg2, metrics.OutDeg1}
	mdl := testModel()
	for _, id := range unstable {
		mdl.Classes[id.String()] = model.Unstable
	}
	suite := metrics.NewSuite(append([]metrics.ID{metrics.Roots}, unstable...)...)
	rep := &logger.Report{Program: "prog", Input: "in"}
	for _, id := range suite.IDs() {
		rep.Suite = append(rep.Suite, id.String())
	}
	for i := 0; i < 60; i++ {
		// Every metric flat: Roots in band, the rest stable in this
		// run although unstable in training.
		rep.Snapshots = append(rep.Snapshots, metrics.Snapshot{
			Tick: uint64(i + 1), Values: []float64{15, 42, 42, 42, 42},
		})
	}
	for run := 0; run < 50; run++ {
		var got []string
		for _, f := range CheckReport(mdl, rep) {
			if f.Kind == UnexpectedStability {
				got = append(got, f.Metric)
			}
		}
		if len(got) != len(unstable) {
			t.Fatalf("run %d: unexpected-stability findings = %v, want %d", run, got, len(unstable))
		}
		for i, id := range unstable {
			if got[i] != id.String() {
				t.Fatalf("run %d: finding order = %v, want suite order %v", run, got, unstable)
			}
		}
	}
}

// trainedModel is testModel with 50 training samples per run, so the
// online detector skips SkipStartSamples() = 5 samples.
func trainedModel(t *testing.T) *model.Model {
	t.Helper()
	mdl := testModel()
	mdl.TrainingSamples = 50
	if mdl.SkipStartSamples() != 5 {
		t.Fatalf("SkipStartSamples = %d, want 5", mdl.SkipStartSamples())
	}
	return mdl
}

// TestNewSkipsStartupWindow pins New's startup skip to exactly the
// model's SkipStartSamples.
func TestNewSkipsStartupWindow(t *testing.T) {
	mdl := trainedModel(t)
	skip := mdl.SkipStartSamples()

	// Out-of-range samples inside the window are ignored.
	d := New(mdl, testSuite)
	vals := make([]float64, 20)
	for i := range vals {
		vals[i] = 15
		if i < skip {
			vals[i] = 30
		}
	}
	feed(d, vals)
	d.Finish()
	if v := d.Violations(); len(v) != 0 {
		t.Fatalf("violation inside the %d-sample startup window reported: %+v", skip, v[0])
	}

	// The first sample after the window is checked.
	d = New(mdl, testSuite)
	vals[skip-1], vals[skip] = 15, 30
	feed(d, vals)
	d.Finish()
	if v := d.Violations(); len(v) != 1 || v[0].Tick != uint64(skip+1) {
		t.Fatalf("violations = %+v, want one at tick %d", v, skip+1)
	}
}

// TestCheckReportTrimsOnce pins offline checking to one startup trim:
// the report's own TrimFrac trim, with no online skip on top of it.
func TestCheckReportTrimsOnce(t *testing.T) {
	mdl := trainedModel(t)
	skip := mdl.SkipStartSamples()
	const n = 60
	lo, _ := stats.TrimBounds(n, mdl.Thresholds.TrimFrac)
	report := func(at int) *logger.Report {
		roots := make([]float64, n)
		leaves := make([]float64, n)
		for i := range roots {
			roots[i] = 15
			leaves[i] = float64((i * 37) % 100)
		}
		roots[at] = 30
		return mkReport(roots, leaves)
	}
	violations := func(rep *logger.Report) []*Finding {
		var out []*Finding
		for _, f := range CheckReport(mdl, rep) {
			if f.Kind == RangeViolation {
				out = append(out, f)
			}
		}
		return out
	}

	// Inside the report's trimmed prefix: not checked.
	if v := violations(report(lo - 1)); len(v) != 0 {
		t.Fatalf("violation in the trimmed prefix reported: %+v", v[0])
	}
	// The last sample a second, online-style skip of the trimmed
	// series would drop: checked, so the series is trimmed once.
	at := lo + skip - 1
	if v := violations(report(at)); len(v) != 1 || v[0].Tick != uint64(at+1) {
		t.Fatalf("violations = %+v, want one at tick %d", v, at+1)
	}
}
