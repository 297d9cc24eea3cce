// Package model implements HeapMD's metric summarizer and the heap
// behaviour model it produces (paper Sections 2.1 and 3).
//
// The summarizer consolidates raw metric reports from runs of the
// program on a training input set. For each metric it computes, per
// input, the fluctuation series (percentage change between consecutive
// metric computation points, after trimming startup and shutdown
// samples) and classifies the metric on that input as stable when the
// average change is within ±MaxAvgChange percent and the standard
// deviation of change is below MaxStdDev (paper defaults: ±1% and 5).
// A metric is *globally stable* when it is stable on at least
// MinStableFraction of the training inputs (paper: 40%). The model
// records, for each globally stable metric, the [min, max] range it
// attained on the stable training runs; the anomaly detector treats
// leaving that range as a bug signal.
//
// Training inputs on which a globally stable metric was not stable are
// still required to stay inside the calibrated range; if one does not,
// the summarizer flags that input as suspect — "this training input is
// treated as buggy" in the paper's words (Section 4.1).
package model

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"sort"

	"heapmd/internal/logger"
	"heapmd/internal/metrics"
	"heapmd/internal/stats"
)

// Thresholds are the stability thresholds of the summarizer.
type Thresholds struct {
	// MaxAvgChange is the largest absolute average inter-sample
	// change (in percent) a stable metric may have. Paper: 1.0.
	MaxAvgChange float64 `json:"max_avg_change"`
	// MaxStdDev is the largest standard deviation of inter-sample
	// change a stable metric may have. Paper: 5.0.
	MaxStdDev float64 `json:"max_std_dev"`
	// TrimFrac is the fraction of samples discarded at each end of a
	// run as startup/shutdown noise. Paper: 0.10.
	TrimFrac float64 `json:"trim_frac"`
	// MinStableFraction is the fraction of training inputs on which
	// a metric must be stable to be globally stable. Paper: 0.40.
	MinStableFraction float64 `json:"min_stable_fraction"`
	// MinSamples is the minimum number of post-trim samples a run
	// must contribute to participate in classification; shorter runs
	// are skipped (too little evidence either way).
	MinSamples int `json:"min_samples"`
	// GuardFrac widens each calibrated range by this fraction of its
	// width on both sides before it enters the model. The paper uses
	// the raw observed min/max; a small guard band compensates for
	// training sets that undersample the extremes of a metric's
	// natural excursion (real bugs move metrics far past any guard).
	GuardFrac float64 `json:"guard_frac"`
}

// Defaults returns the paper's thresholds. Build gives each zero
// field of its thresholds the value here.
func Defaults() Thresholds {
	return Thresholds{
		MaxAvgChange:      1.0,
		MaxStdDev:         5.0,
		TrimFrac:          0.10,
		MinStableFraction: 0.40,
		MinSamples:        3,
		GuardFrac:         0.15,
	}
}

// withDefaults replaces each zero field of th with the paper default
// for that field, keeping the fields the caller did set. Zero is
// "unset" throughout (a MaxAvgChange of 0 would classify every metric
// unstable, so no meaningful configuration is lost).
func (th Thresholds) withDefaults() Thresholds {
	def := Defaults()
	if th.MaxAvgChange == 0 {
		th.MaxAvgChange = def.MaxAvgChange
	}
	if th.MaxStdDev == 0 {
		th.MaxStdDev = def.MaxStdDev
	}
	if th.TrimFrac == 0 {
		th.TrimFrac = def.TrimFrac
	}
	if th.MinStableFraction == 0 {
		th.MinStableFraction = def.MinStableFraction
	}
	if th.MinSamples == 0 {
		th.MinSamples = def.MinSamples
	}
	if th.GuardFrac == 0 {
		th.GuardFrac = def.GuardFrac
	}
	return th
}

// Classify applies the per-input stability rule to one run's series of
// a metric. It trims the series' startup and shutdown samples; ok is
// false when fewer than MinSamples remain, too little evidence either
// way. Otherwise sum summarizes the trimmed series, and stable reports
// whether the metric met both thresholds on it: an average change
// within ±MaxAvgChange and a deviation of change within MaxStdDev. The
// summarizer classifies each training input with it, and the detector
// each checked run of a training-time-unstable metric.
func (th Thresholds) Classify(series []float64) (sum stats.Summary, stable, ok bool) {
	trimmed := stats.Trim(series, th.TrimFrac)
	if len(trimmed) < th.MinSamples {
		return sum, false, false
	}
	sum, err := stats.Summarize(trimmed)
	if err != nil {
		return sum, false, false
	}
	return sum, math.Abs(sum.AvgChange) <= th.MaxAvgChange && sum.StdDevChange <= th.MaxStdDev, true
}

// Class is the stability classification of one metric across the
// training set (paper Section 2.1, "metric summarizer"). Its values
// are the names model files record.
type Class string

const (
	// Unstable metrics are neither globally nor locally stable.
	Unstable Class = "unstable"
	// LocallyStable metrics have near-zero average change but large
	// deviation: they jump between program phases yet hold steady
	// within each phase. The model records their class only; the
	// paper leaves ranges for them to future work.
	LocallyStable Class = "locally-stable"
	// GloballyStable metrics satisfy both thresholds on enough
	// training inputs; only these enter the model.
	GloballyStable Class = "globally-stable"
)

// InputSummary is the per-training-input evidence for one metric.
type InputSummary struct {
	Input   string        `json:"input"`
	Stable  bool          `json:"stable"`
	Summary stats.Summary `json:"summary"`
	// Skipped marks inputs with too few samples to classify.
	Skipped bool `json:"skipped,omitempty"`
}

// MetricReport is the summarizer's verdict on one metric.
type MetricReport struct {
	Metric string         `json:"metric"`
	Class  Class          `json:"class"`
	Inputs []InputSummary `json:"inputs"`
	// StableInputs counts inputs where the metric met both
	// thresholds.
	StableInputs int `json:"stable_inputs"`
	// Range is the union of observed value ranges on stable inputs;
	// meaningful only for globally stable metrics.
	Range stats.Range `json:"range"`
	// AvgChange / StdDevChange are the means of the per-stable-input
	// statistics, the numbers reported in the paper's Figure 7.
	AvgChange    float64 `json:"avg_change"`
	StdDevChange float64 `json:"std_dev_change"`
	// SuspectInputs are training inputs on which the metric was not
	// stable AND left the calibrated range — treated as potentially
	// buggy training runs.
	SuspectInputs []string `json:"suspect_inputs,omitempty"`
}

// Model is the summarized metric report: the artifact handed to the
// anomaly detector. It contains the calibrated ranges of the globally
// stable metrics only.
type Model struct {
	Program    string     `json:"program"`
	Thresholds Thresholds `json:"thresholds"`
	// Stable maps metric name -> calibrated range.
	Stable map[string]stats.Range `json:"stable"`
	// Classes records the training-time classification of every
	// metric in the suite. The anomaly detector uses it to notice
	// *pathological* bugs: normally-unstable metrics that become
	// stable during checking (paper Section 4.1).
	Classes map[string]Class `json:"classes"`
	// TrainingInputs is the number of inputs used for calibration.
	TrainingInputs int `json:"training_inputs"`
	// TrainingSamples is the mean number of metric samples per
	// training run. Online detectors derive their startup-skip
	// window from it (the paper configures the skip count in the
	// settings file).
	TrainingSamples int `json:"training_samples"`
}

// SkipStartSamples returns the number of leading samples an online
// detector should ignore, mirroring the summarizer's startup trim. It
// shares stats.TrimCount with stats.Trim so the detector and the
// summarizer always agree on the ignored prefix — computing the count
// independently here (the old int(TrimFrac*TrainingSamples)) diverged
// from Trim's clamping on short runs and out-of-range TrimFrac values.
func (m *Model) SkipStartSamples() int {
	return stats.TrimCount(m.TrainingSamples, m.Thresholds.TrimFrac)
}

// StableIDs returns the globally stable metric IDs in the model,
// sorted by name for determinism.
func (m *Model) StableIDs() []metrics.ID {
	names := make([]string, 0, len(m.Stable))
	for n := range m.Stable {
		names = append(names, n)
	}
	sort.Strings(names)
	out := make([]metrics.ID, 0, len(names))
	for _, n := range names {
		if id, err := metrics.ParseID(n); err == nil {
			out = append(out, id)
		}
	}
	return out
}

// RangeOf returns the calibrated range of a metric, if globally
// stable.
func (m *Model) RangeOf(id metrics.ID) (stats.Range, bool) {
	r, ok := m.Stable[id.String()]
	return r, ok
}

// Save serializes the model as JSON.
func (m *Model) Save(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(m)
}

// Load deserializes a model previously written by Save. It rejects a
// model that records a class it does not know.
func Load(r io.Reader) (*Model, error) {
	var m Model
	if err := json.NewDecoder(r).Decode(&m); err != nil {
		return nil, fmt.Errorf("model: decoding: %w", err)
	}
	for name, c := range m.Classes {
		switch c {
		case Unstable, LocallyStable, GloballyStable:
		default:
			return nil, fmt.Errorf("model: metric %q has unknown class %q", name, c)
		}
	}
	if m.Stable == nil {
		m.Stable = make(map[string]stats.Range)
	}
	return &m, nil
}

// BuildResult couples the model with the full per-metric evidence, so
// experiment harnesses can print Figure 6/7-style tables.
type BuildResult struct {
	Model   *Model
	Reports []MetricReport // one per metric in the suite, suite order
}

// StableCount returns the number of globally stable metrics found.
func (b *BuildResult) StableCount() int {
	n := 0
	for _, r := range b.Reports {
		if r.Class == GloballyStable {
			n++
		}
	}
	return n
}

// ErrNoReports is returned when Build receives no usable reports.
var ErrNoReports = errors.New("model: no training reports")

// Build runs the metric summarizer over raw reports from the training
// inputs and produces the model. All reports must come from the same
// program and share the same metric suite (the suite of the first
// report is authoritative; reports with a different suite are
// rejected). Each zero field of th takes its paper default, so a
// caller overriding only (say) TrimFrac keeps the defaults for
// everything else.
func Build(reports []*logger.Report, th Thresholds) (*BuildResult, error) {
	if len(reports) == 0 {
		return nil, ErrNoReports
	}
	th = th.withDefaults()
	suite := reports[0].Suite
	for _, r := range reports[1:] {
		if len(r.Suite) != len(suite) {
			return nil, fmt.Errorf("model: report %q has mismatched suite", r.Input)
		}
		for i := range suite {
			if r.Suite[i] != suite[i] {
				return nil, fmt.Errorf("model: report %q has mismatched suite", r.Input)
			}
		}
	}

	totalSamples := 0
	for _, r := range reports {
		totalSamples += len(r.Snapshots)
	}
	res := &BuildResult{
		Model: &Model{
			Program:         reports[0].Program,
			Thresholds:      th,
			Stable:          make(map[string]stats.Range),
			Classes:         make(map[string]Class),
			TrainingInputs:  len(reports),
			TrainingSamples: totalSamples / len(reports),
		},
	}

	res.Reports = make([]MetricReport, 0, len(suite))
	// One scratch series, reused across every (metric, report) pair:
	// Classify consumes it before the next iteration overwrites it, so
	// nothing escapes.
	var scratch []float64
	for mi, name := range suite {
		mr := MetricReport{Metric: name, Inputs: make([]InputSummary, 0, len(reports))}
		var stableRange stats.Range
		haveRange := false
		var sumAvg, sumStd float64
		classified := 0
		for _, rep := range reports {
			scratch = metrics.AppendSeries(scratch[:0], rep.Snapshots, mi)
			sum, stable, ok := th.Classify(scratch)
			if !ok {
				mr.Inputs = append(mr.Inputs, InputSummary{Input: rep.Input, Skipped: true})
				continue
			}
			classified++
			mr.Inputs = append(mr.Inputs, InputSummary{Input: rep.Input, Stable: stable, Summary: sum})
			if stable {
				mr.StableInputs++
				sumAvg += sum.AvgChange
				sumStd += sum.StdDevChange
				if haveRange {
					stableRange = stableRange.Union(sum.Observed)
				} else {
					stableRange = sum.Observed
					haveRange = true
				}
			}
		}
		// Classify the metric across the training set.
		switch {
		case classified > 0 && float64(mr.StableInputs) >= th.MinStableFraction*float64(classified):
			mr.Class = GloballyStable
		case classified > 0 && locallyStable(mr.Inputs, th):
			mr.Class = LocallyStable
		default:
			mr.Class = Unstable
		}
		res.Model.Classes[name] = mr.Class
		if mr.Class == GloballyStable && haveRange {
			mr.Range = stableRange
			mr.AvgChange = sumAvg / float64(mr.StableInputs)
			mr.StdDevChange = sumStd / float64(mr.StableInputs)
			guarded := stableRange
			if g := th.GuardFrac * stableRange.Width(); g > 0 {
				guarded.Min -= g
				guarded.Max += g
			}
			res.Model.Stable[name] = guarded
			// Non-stable training inputs must still respect the
			// range; flag the ones that do not (paper 4.1).
			for _, in := range mr.Inputs {
				if in.Stable || in.Skipped {
					continue
				}
				if in.Summary.Observed.Min < stableRange.Min || in.Summary.Observed.Max > stableRange.Max {
					mr.SuspectInputs = append(mr.SuspectInputs, in.Input)
				}
			}
		}
		res.Reports = append(res.Reports, mr)
	}
	return res, nil
}

// locallyStable reports whether the per-input evidence matches the
// locally-stable pattern: average change near zero on most inputs but
// deviation beyond the global threshold (phase transitions).
func locallyStable(inputs []InputSummary, th Thresholds) bool {
	nearZeroAvg := 0
	classified := 0
	for _, in := range inputs {
		if in.Skipped {
			continue
		}
		classified++
		if math.Abs(in.Summary.AvgChange) <= th.MaxAvgChange {
			nearZeroAvg++
		}
	}
	return classified > 0 && float64(nearZeroAvg) >= th.MinStableFraction*float64(classified)
}
