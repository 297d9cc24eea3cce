package model

import (
	"bytes"
	"math"
	"strings"
	"testing"

	"heapmd/internal/logger"
	"heapmd/internal/metrics"
	"heapmd/internal/stats"
)

// mkReport builds a raw report with the given per-metric series. All
// series must have equal length.
func mkReport(input string, names []string, series ...[]float64) *logger.Report {
	rep := &logger.Report{Program: "prog", Input: input, Suite: names}
	n := len(series[0])
	for i := 0; i < n; i++ {
		snap := metrics.Snapshot{Tick: uint64(i + 1), Values: make([]float64, len(series))}
		for j := range series {
			snap.Values[j] = series[j][i]
		}
		rep.Snapshots = append(rep.Snapshots, snap)
	}
	return rep
}

// flat returns a constant series of length n with small jitter-free
// value v.
func flat(v float64, n int) []float64 {
	out := make([]float64, n)
	for i := range out {
		out[i] = v
	}
	return out
}

// ramp returns a steadily growing series.
func ramp(start, step float64, n int) []float64 {
	out := make([]float64, n)
	for i := range out {
		out[i] = start + step*float64(i)
	}
	return out
}

// phased returns a two-phase series: value a for the first half, b
// for the second.
func phased(a, b float64, n int) []float64 {
	out := make([]float64, n)
	for i := range out {
		if i < n/2 {
			out[i] = a
		} else {
			out[i] = b
		}
	}
	return out
}

var testNames = []string{metrics.Roots.String(), metrics.Leaves.String()}

func TestBuildNoReports(t *testing.T) {
	if _, err := Build(nil, Defaults()); err != ErrNoReports {
		t.Fatalf("err = %v, want ErrNoReports", err)
	}
}

func TestGloballyStableFlatMetric(t *testing.T) {
	reports := []*logger.Report{
		mkReport("in1", testNames, flat(10, 100), ramp(5, 1, 100)),
		mkReport("in2", testNames, flat(12, 100), ramp(5, 1, 100)),
		mkReport("in3", testNames, flat(11, 100), ramp(5, 1, 100)),
	}
	res, err := Build(reports, Defaults())
	if err != nil {
		t.Fatal(err)
	}
	roots := res.Report(metrics.Roots)
	if roots == nil || roots.Class != GloballyStable {
		t.Fatalf("Roots class = %+v, want globally stable", roots)
	}
	if roots.StableInputs != 3 {
		t.Errorf("StableInputs = %d, want 3", roots.StableInputs)
	}
	if roots.Range.Min != 10 || roots.Range.Max != 12 {
		t.Errorf("Range = %+v, want [10,12]", roots.Range)
	}
	leaves := res.Report(metrics.Leaves)
	if leaves.Class == GloballyStable {
		t.Error("steadily growing metric classified globally stable")
	}
	// Model contains only the stable metric.
	if _, ok := res.Model.RangeOf(metrics.Roots); !ok {
		t.Error("model missing Roots")
	}
	if _, ok := res.Model.RangeOf(metrics.Leaves); ok {
		t.Error("model contains unstable Leaves")
	}
	if res.StableCount() != 1 {
		t.Errorf("StableCount = %d, want 1", res.StableCount())
	}
}

func TestLocallyStableClassification(t *testing.T) {
	// One 80% step between two long flat phases: average change is
	// tiny (single spike averaged over many samples) but the
	// deviation blows past the threshold.
	series := phased(10, 18, 200)
	reports := []*logger.Report{
		mkReport("in1", testNames, series, flat(1, 200)),
		mkReport("in2", testNames, series, flat(1, 200)),
	}
	res, err := Build(reports, Defaults())
	if err != nil {
		t.Fatal(err)
	}
	got := res.Report(metrics.Roots)
	if got.Class != LocallyStable {
		t.Fatalf("phase-shift metric class = %v, want locally-stable", got.Class)
	}
	if _, ok := res.Model.RangeOf(metrics.Roots); ok {
		t.Error("locally stable metric must not enter the model")
	}
}

func TestFortyPercentRule(t *testing.T) {
	mk := func(stableCount, total int) []*logger.Report {
		var reps []*logger.Report
		for i := 0; i < total; i++ {
			var s []float64
			if i < stableCount {
				s = flat(20, 100)
			} else {
				s = ramp(1, 2, 100) // wildly unstable
			}
			reps = append(reps, mkReport("in"+string(rune('a'+i)), testNames, s, flat(1, 100)))
		}
		return reps
	}
	// 2 of 5 = 40%: exactly at threshold -> stable.
	res, err := Build(mk(2, 5), Defaults())
	if err != nil {
		t.Fatal(err)
	}
	if res.Report(metrics.Roots).Class != GloballyStable {
		t.Error("metric stable on exactly 40% of inputs should be globally stable")
	}
	// 1 of 5 = 20%: below threshold.
	res, err = Build(mk(1, 5), Defaults())
	if err != nil {
		t.Fatal(err)
	}
	if res.Report(metrics.Roots).Class == GloballyStable {
		t.Error("metric stable on 20% of inputs must not be globally stable")
	}
}

func TestRangeComesFromStableInputsOnly(t *testing.T) {
	reports := []*logger.Report{
		mkReport("s1", testNames, flat(10, 100), flat(1, 100)),
		mkReport("s2", testNames, flat(15, 100), flat(1, 100)),
		// Unstable input ranging far beyond: must not widen range.
		mkReport("u1", testNames, ramp(0, 5, 100), flat(1, 100)),
	}
	res, err := Build(reports, Defaults())
	if err != nil {
		t.Fatal(err)
	}
	got := res.Report(metrics.Roots)
	if got.Class != GloballyStable {
		t.Fatalf("class = %v", got.Class)
	}
	if got.Range.Min != 10 || got.Range.Max != 15 {
		t.Errorf("Range = %+v, want [10,15]", got.Range)
	}
	// The unstable input left the calibrated range: suspect.
	if len(got.SuspectInputs) != 1 || got.SuspectInputs[0] != "u1" {
		t.Errorf("SuspectInputs = %v, want [u1]", got.SuspectInputs)
	}
}

func TestUnstableInputWithinRangeNotSuspect(t *testing.T) {
	// An input can be non-stable (oscillating) yet remain within the
	// calibrated range: permitted, not suspect (paper Section 2.2).
	osc := make([]float64, 100)
	for i := range osc {
		if i%2 == 0 {
			osc[i] = 10
		} else {
			osc[i] = 14 // 40% swings: stddev >> 5
		}
	}
	reports := []*logger.Report{
		mkReport("s1", testNames, flat(10, 100), flat(1, 100)),
		mkReport("s2", testNames, flat(15, 100), flat(1, 100)),
		mkReport("osc", testNames, osc, flat(1, 100)),
	}
	res, err := Build(reports, Defaults())
	if err != nil {
		t.Fatal(err)
	}
	got := res.Report(metrics.Roots)
	if got.Class != GloballyStable {
		t.Fatalf("class = %v", got.Class)
	}
	if len(got.SuspectInputs) != 0 {
		t.Errorf("SuspectInputs = %v, want none", got.SuspectInputs)
	}
}

func TestTrimmingShieldsStartupNoise(t *testing.T) {
	// Wild startup and shutdown samples around a flat middle: with
	// 10% trimming the metric is stable.
	series := make([]float64, 100)
	for i := range series {
		switch {
		case i < 8:
			series[i] = float64(90 - 10*i) // startup churn
		case i >= 92:
			series[i] = float64(10 * (i - 91)) // shutdown churn
		default:
			series[i] = 25
		}
	}
	reports := []*logger.Report{
		mkReport("in1", testNames, series, flat(1, 100)),
	}
	res, err := Build(reports, Defaults())
	if err != nil {
		t.Fatal(err)
	}
	got := res.Report(metrics.Roots)
	if got.Class != GloballyStable {
		t.Fatalf("class with trimming = %v, want globally stable", got.Class)
	}
	if got.Range.Min != 25 || got.Range.Max != 25 {
		t.Errorf("Range = %+v, want [25,25]", got.Range)
	}
}

func TestMinSamplesSkip(t *testing.T) {
	reports := []*logger.Report{
		mkReport("tiny", testNames, flat(10, 2), flat(1, 2)),
	}
	res, err := Build(reports, Defaults())
	if err != nil {
		t.Fatal(err)
	}
	got := res.Report(metrics.Roots)
	if !got.Inputs[0].Skipped {
		t.Error("2-sample input should be skipped")
	}
	if got.Class == GloballyStable {
		t.Error("no classified inputs must not produce a stable metric")
	}
}

func TestMismatchedSuites(t *testing.T) {
	a := mkReport("a", testNames, flat(1, 10), flat(1, 10))
	b := mkReport("b", []string{"Roots", "Outdeg=1"}, flat(1, 10), flat(1, 10))
	if _, err := Build([]*logger.Report{a, b}, Defaults()); err == nil {
		t.Fatal("mismatched suites must be rejected")
	}
}

func TestZeroThresholdsUseDefaults(t *testing.T) {
	reports := []*logger.Report{mkReport("a", testNames, flat(3, 50), flat(1, 50))}
	res, err := Build(reports, Thresholds{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Model.Thresholds != Defaults() {
		t.Errorf("thresholds = %+v, want defaults %+v", res.Model.Thresholds, Defaults())
	}
}

// TestBuildKeepsPartialThresholds pins the per-field default rule: a
// caller overriding only some fields keeps them, and every zero field
// takes its paper default.
func TestBuildKeepsPartialThresholds(t *testing.T) {
	reports := []*logger.Report{mkReport("a", testNames, flat(3, 50), flat(1, 50))}
	res, err := Build(reports, Thresholds{TrimFrac: 0.25, MinStableFraction: 0.9})
	if err != nil {
		t.Fatal(err)
	}
	want := Defaults()
	want.TrimFrac, want.MinStableFraction = 0.25, 0.9
	if got := res.Model.Thresholds; got != want {
		t.Errorf("thresholds = %+v, want %+v", got, want)
	}
}

func TestModelSaveLoadRoundTrip(t *testing.T) {
	reports := []*logger.Report{
		mkReport("in1", testNames, flat(10, 100), flat(7, 100)),
		mkReport("in2", testNames, flat(12, 100), flat(9, 100)),
	}
	res, err := Build(reports, Defaults())
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := res.Model.Save(&buf); err != nil {
		t.Fatal(err)
	}
	loaded, err := Load(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if loaded.Program != "prog" || loaded.TrainingInputs != 2 {
		t.Errorf("loaded header = %+v", loaded)
	}
	r1, ok1 := res.Model.RangeOf(metrics.Roots)
	r2, ok2 := loaded.RangeOf(metrics.Roots)
	if ok1 != ok2 || math.Abs(r1.Min-r2.Min) > 1e-12 || math.Abs(r1.Max-r2.Max) > 1e-12 {
		t.Errorf("range round-trip mismatch: %+v vs %+v", r1, r2)
	}
	ids := loaded.StableIDs()
	if len(ids) != 2 {
		t.Errorf("StableIDs = %v, want both metrics", ids)
	}
}

func TestLoadGarbage(t *testing.T) {
	if _, err := Load(bytes.NewBufferString("{nope")); err == nil {
		t.Fatal("Load of garbage should fail")
	}
	// A class name the summarizer never writes is rejected, not read
	// as some class: it would decide which metrics the pathological
	// check watches.
	for _, class := range []string{"stable", "Unstable", ""} {
		in := `{"program": "prog", "classes": {"Roots": "globally-stable", "Leaves": "` + class + `"}}`
		if _, err := Load(bytes.NewBufferString(in)); err == nil || !strings.Contains(err.Error(), "unknown class") {
			t.Errorf("Load with class %q: err = %v, want unknown class", class, err)
		}
	}
	for _, class := range []Class{Unstable, LocallyStable, GloballyStable} {
		in := `{"program": "prog", "classes": {"Roots": "` + string(class) + `"}}`
		m, err := Load(bytes.NewBufferString(in))
		if err != nil {
			t.Fatalf("Load with class %q: %v", class, err)
		}
		if m.Classes["Roots"] != class {
			t.Errorf("Classes[Roots] = %q, want %q", m.Classes["Roots"], class)
		}
	}
}

func BenchmarkBuild(b *testing.B) {
	var reports []*logger.Report
	for i := 0; i < 50; i++ {
		reports = append(reports, mkReport("in", testNames, flat(10+float64(i%5), 1000), ramp(1, 0.5, 1000)))
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Build(reports, Defaults()); err != nil {
			b.Fatal(err)
		}
	}
}

// TestSkipStartSamplesMatchesTrim is the regression test for the
// summarizer/detector trim divergence: the online detector's
// startup-skip window must equal the number of leading samples the
// summarizer's stats.Trim discards, for every run length and TrimFrac
// — including the short runs and out-of-range fractions where the old
// int(TrimFrac*TrainingSamples) formula disagreed with Trim's
// clamping.
func TestSkipStartSamplesMatchesTrim(t *testing.T) {
	lengths := []int{0, 1, 2, 3, 4, 5, 7, 9, 10, 11, 19, 20, 21, 100, 997}
	fracs := []float64{-0.2, 0, 0.05, 0.10, 0.25, 0.4999, 0.5, 0.9}
	for _, n := range lengths {
		for _, frac := range fracs {
			m := &Model{TrainingSamples: n}
			m.Thresholds.TrimFrac = frac
			skip := m.SkipStartSamples()
			lo, _ := stats.TrimBounds(n, frac)
			if skip != lo {
				t.Errorf("n=%d frac=%v: SkipStartSamples=%d, summarizer trims %d", n, frac, skip, lo)
			}
			// The skip window must never swallow the whole run the
			// summarizer calibrated on.
			if n >= 1 && 2*skip >= n {
				t.Errorf("n=%d frac=%v: skip=%d leaves no samples", n, frac, skip)
			}
		}
	}

	// The specific divergence the fix closes: a short run with a
	// half-range fraction. The old formula skipped 5 of 10 samples;
	// Trim keeps indices [4, 6), so the detector must skip 4.
	m := &Model{TrainingSamples: 10}
	m.Thresholds.TrimFrac = 0.5
	if got := m.SkipStartSamples(); got != 4 {
		t.Errorf("n=10 frac=0.5: SkipStartSamples = %d, want 4", got)
	}
}
