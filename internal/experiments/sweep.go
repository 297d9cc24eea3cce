package experiments

import (
	"fmt"
	"strings"

	"heapmd/internal/model"
	"heapmd/internal/sched"
	"heapmd/internal/workloads"
)

// SweepPoint is the stable-metric count at one threshold setting.
type SweepPoint struct {
	MaxAvgChange float64
	MaxStdDev    float64
	StableCount  int
}

// SweepRow is one benchmark's threshold-sensitivity curve.
type SweepRow struct {
	Benchmark string
	Points    []SweepPoint
	// BaselineStable is the count at the paper's thresholds.
	BaselineStable int
}

// ThresholdSweepResult reproduces the paper's Section 3 finding: "the
// number of globally stable metrics was fairly resilient to our
// choice of threshold values... Increasing these thresholds
// moderately does not result in additional metrics being classified
// as globally-stable. On the other hand, decreasing these thresholds
// results in fewer metrics being classified as globally-stable."
type ThresholdSweepResult struct {
	Rows []SweepRow
}

// sweepSettings are (avg, stddev) threshold pairs swept around the
// paper's (1.0, 5.0), scaling both together.
var sweepSettings = []struct{ avg, std float64 }{
	{0.25, 1.25},
	{0.5, 2.5},
	{1.0, 5.0}, // paper defaults
	{2.0, 10.0},
	{4.0, 20.0},
}

// ThresholdSweep recomputes the model for a subset of benchmarks at
// each threshold setting, reusing the same raw training reports.
func ThresholdSweep(cfg Config) (*ThresholdSweepResult, error) {
	benchmarks := []string{"twolf", "gzip", "parser", "multimedia", "productivity"}
	if cfg.Quick {
		benchmarks = benchmarks[:2]
	}
	rows, err := sched.Map(cfg.Parallel, len(benchmarks), func(i int) (SweepRow, error) {
		name := benchmarks[i]
		w, err := workloads.Get(name)
		if err != nil {
			return SweepRow{}, err
		}
		n := cfg.cap(paperInputs(name))
		reports, err := workloads.Train(w, n, workloads.RunConfig{})
		if err != nil {
			return SweepRow{}, err
		}
		row := SweepRow{Benchmark: name}
		for _, set := range sweepSettings {
			th := model.Defaults()
			th.MaxAvgChange = set.avg
			th.MaxStdDev = set.std
			build, err := model.Build(reports, th)
			if err != nil {
				return SweepRow{}, err
			}
			pt := SweepPoint{MaxAvgChange: set.avg, MaxStdDev: set.std, StableCount: build.StableCount()}
			row.Points = append(row.Points, pt)
			if set.avg == 1.0 && set.std == 5.0 {
				row.BaselineStable = pt.StableCount
			}
		}
		return row, nil
	})
	if err != nil {
		return nil, err
	}
	return &ThresholdSweepResult{Rows: rows}, nil
}

// String prints the sweep grid.
func (r *ThresholdSweepResult) String() string {
	var b strings.Builder
	b.WriteString("Threshold sweep: globally stable metric count vs stability thresholds\n")
	b.WriteString("(paper setting is avg=1.0, std=5.0; the count should plateau above it\n")
	b.WriteString("and shrink below it)\n\n")
	fmt.Fprintf(&b, "%-13s", "Benchmark")
	for _, set := range sweepSettings {
		fmt.Fprintf(&b, " (%.2g,%.3g)", set.avg, set.std)
	}
	b.WriteString("\n")
	for _, row := range r.Rows {
		fmt.Fprintf(&b, "%-13s", row.Benchmark)
		for _, pt := range row.Points {
			fmt.Fprintf(&b, " %9d", pt.StableCount)
		}
		b.WriteString("\n")
	}
	return b.String()
}
