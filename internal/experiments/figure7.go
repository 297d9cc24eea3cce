package experiments

import (
	"fmt"
	"strings"

	"heapmd/internal/model"
	"heapmd/internal/sched"
	"heapmd/internal/workloads"
)

// Figure7Row is one benchmark's line in Figure 7(A): how many metrics
// were globally stable and the statistics of the example stable
// metric.
type Figure7Row struct {
	Benchmark     string
	Inputs        int
	StableCount   int
	ExampleMetric string
	AvgChange     float64
	StdDev        float64
	Min, Max      float64
	// Paper reference values for the same row (Figure 7(A)).
	Paper PaperFigure7Row
	// ExampleStable reports whether the example metric was indeed
	// classified globally stable — the reproduction's key claim.
	ExampleStable bool
}

// PaperFigure7Row carries the values printed in the paper.
type PaperFigure7Row struct {
	Inputs   int
	Stable   int
	Metric   string
	Avg, Std float64
	Min, Max float64
}

// paperFigure7A reproduces the paper's Figure 7(A) reference data.
var paperFigure7A = map[string]PaperFigure7Row{
	"twolf":        {3, 6, "Outdeg=2", -0.1, 0.5, 26.4, 32.3},
	"crafty":       {3, 2, "Leaves", 0.1, 0.6, 85.3, 97.1},
	"mcf":          {3, 4, "Roots", 0.1, 3.2, 0, 5.4},
	"vpr":          {6, 1, "Outdeg=1", -0.9, 2.6, 3.7, 36.8},
	"vortex":       {5, 1, "Indeg=1", -0.8, 3, 37.8, 69.5},
	"gzip":         {100, 2, "Leaves", 0, 1.7, 82.9, 90.2},
	"parser":       {100, 3, "In=Out", 0.3, 4.3, 14.2, 17.7},
	"gcc":          {100, 2, "Outdeg=1", -1, 5, 8.7, 37.1},
	"multimedia":   {50, 2, "In=Out", 0.1, 2.6, 6.7, 9.7},
	"webapp":       {50, 2, "Indeg=1", -0.4, 3.1, 43.5, 55.1},
	"game_sim":     {50, 2, "Outdeg=1", 0.1, 1.4, 17.9, 28.8},
	"game_action":  {50, 1, "Indeg=1", 0.2, 2.3, 13.2, 18.5},
	"productivity": {50, 2, "Leaves", 0.1, 1.1, 27.9, 41.1},
}

// Figure7AResult is the full table.
type Figure7AResult struct {
	Rows []Figure7Row
}

// Figure7A reproduces the globally-stable-metrics table: run every
// benchmark on its training inputs, summarize, and report the
// designated example metric's statistics.
func Figure7A(cfg Config) (*Figure7AResult, error) {
	ws := workloads.All()
	// Each benchmark row is an independent training fleet; rows come
	// back in benchmark order, so the table is bit-identical to a
	// serial run at any worker count.
	rows, err := sched.Map(cfg.Parallel, len(ws), func(i int) (Figure7Row, error) {
		w := ws[i]
		n := cfg.cap(paperInputs(w.Name()))
		_, build, err := train(w, n, cfg)
		if err != nil {
			return Figure7Row{}, err
		}
		row := Figure7Row{
			Benchmark:   w.Name(),
			Inputs:      n,
			StableCount: build.StableCount(),
			Paper:       paperFigure7A[w.Name()],
		}
		row.ExampleMetric = w.StableMetric()
		for _, mr := range build.Reports {
			if mr.Metric == row.ExampleMetric {
				row.ExampleStable = mr.Class == model.GloballyStable
				row.AvgChange = mr.AvgChange
				row.StdDev = mr.StdDevChange
				row.Min, row.Max = mr.Range.Min, mr.Range.Max
			}
		}
		return row, nil
	})
	if err != nil {
		return nil, err
	}
	return &Figure7AResult{Rows: rows}, nil
}

// String prints the table with paper values alongside.
func (r *Figure7AResult) String() string {
	var b strings.Builder
	b.WriteString("Figure 7(A): globally stable metrics per benchmark\n")
	b.WriteString("(each cell: measured value, paper value in parentheses)\n\n")
	fmt.Fprintf(&b, "%-13s %-8s %-9s %-10s %-14s %-12s %-14s %-14s %s\n",
		"Benchmark", "#Inputs", "#Stable", "Example", "Avg %chg", "Std.dev", "Min %", "Max %", "Example stable?")
	for _, row := range r.Rows {
		p := row.Paper
		fmt.Fprintf(&b, "%-13s %-8s %-9s %-10s %-14s %-12s %-14s %-14s %v\n",
			row.Benchmark,
			fmt.Sprintf("%d(%d)", row.Inputs, p.Inputs),
			fmt.Sprintf("%d(%d)", row.StableCount, p.Stable),
			row.ExampleMetric,
			fmt.Sprintf("%+.1f(%+.1f)", row.AvgChange, p.Avg),
			fmt.Sprintf("%.1f(%.1f)", row.StdDev, p.Std),
			fmt.Sprintf("%.1f(%.1f)", row.Min, p.Min),
			fmt.Sprintf("%.1f(%.1f)", row.Max, p.Max),
			row.ExampleStable)
	}
	return b.String()
}

// Figure7BRow is one commercial benchmark's line in Figure 7(B): the
// per-version evidence that the same metrics stay stable across
// development versions.
type Figure7BRow struct {
	Benchmark     string
	Inputs        int
	Versions      int
	ExampleMetric string
	// StableEveryVersion reports whether the example metric was
	// globally stable in all versions — the paper's headline claim.
	StableEveryVersion bool
	// StableCount is the number of metrics globally stable in EVERY
	// version (the cross-version intersection).
	StableCount int
	// Min/Max are the example metric's range across all versions.
	Min, Max float64
	// PerVersionRange records the example metric's range per version
	// to show range persistence (paper: ranges identical with one
	// exception).
	PerVersionRange []struct{ Min, Max float64 }
	Paper           PaperFigure7Row
}

// paperFigure7B carries Figure 7(B)'s reference rows.
var paperFigure7B = map[string]PaperFigure7Row{
	"multimedia":   {10, 2, "In=Out", 0.2, 2.8, 6.7, 9.7},
	"webapp":       {10, 2, "Indeg=1", -0.4, 3.1, 43.5, 55.1},
	"game_sim":     {10, 2, "Outdeg=1", 0.1, 1.5, 17.9, 28.8},
	"game_action":  {10, 1, "Indeg=1", 0.4, 3.7, 13.2, 19.7},
	"productivity": {10, 2, "Leaves", 0.1, 1.2, 27.9, 41.1},
}

// Figure7BResult is the cross-version table.
type Figure7BResult struct {
	Rows []Figure7BRow
}

// Figure7B runs all five development versions of each commercial
// benchmark on the same inputs and checks that stable metrics (and
// their ranges) persist across versions.
func Figure7B(cfg Config) (*Figure7BResult, error) {
	res := &Figure7BResult{}
	nInputs := cfg.cap(10)
	versions := workloads.Versions
	if cfg.Quick {
		versions = 2
	}
	ws := workloads.Commercials()
	// The experiment cells are the (benchmark, version) pairs — each
	// an independent training fleet. Train and summarize them on the
	// worker pool, then fold per-version builds into rows serially in
	// cell order so the aggregation is order-identical to the old
	// nested loops.
	builds, err := sched.Map(cfg.Parallel, len(ws)*versions, func(idx int) (*model.BuildResult, error) {
		w, v := ws[idx/versions], idx%versions+1
		reports, err := workloads.Train(w, nInputs, workloads.RunConfig{Version: v})
		if err != nil {
			return nil, err
		}
		return model.Build(reports, model.Defaults())
	})
	if err != nil {
		return nil, err
	}
	for wi, w := range ws {
		row := Figure7BRow{
			Benchmark:     w.Name(),
			Inputs:        nInputs,
			Versions:      versions,
			ExampleMetric: w.StableMetric(),
			Paper:         paperFigure7B[w.Name()],
		}
		stableInAll := map[string]int{}
		exampleStableVersions := 0
		for v := 1; v <= versions; v++ {
			build := builds[wi*versions+v-1]
			for _, mr := range build.Reports {
				if mr.Class == model.GloballyStable {
					stableInAll[mr.Metric]++
				}
				if mr.Metric == row.ExampleMetric && mr.Class == model.GloballyStable {
					exampleStableVersions++
					if len(row.PerVersionRange) == 0 || mr.Range.Min < row.Min {
						row.Min = mr.Range.Min
					}
					if len(row.PerVersionRange) == 0 || mr.Range.Max > row.Max {
						row.Max = mr.Range.Max
					}
					row.PerVersionRange = append(row.PerVersionRange, struct{ Min, Max float64 }{mr.Range.Min, mr.Range.Max})
				}
			}
		}
		row.StableEveryVersion = exampleStableVersions == versions
		for _, count := range stableInAll {
			if count == versions {
				row.StableCount++
			}
		}
		res.Rows = append(res.Rows, row)
	}
	return res, nil
}

// String prints the cross-version table.
func (r *Figure7BResult) String() string {
	var b strings.Builder
	b.WriteString("Figure 7(B): globally stable metrics across development versions\n")
	b.WriteString("(#Stable counts metrics stable in EVERY version; paper values in parentheses)\n\n")
	fmt.Fprintf(&b, "%-13s %-8s %-10s %-9s %-10s %-14s %-14s %s\n",
		"Benchmark", "#Inputs", "#Versions", "#Stable", "Example", "Min %", "Max %", "Stable in all versions?")
	for _, row := range r.Rows {
		p := row.Paper
		fmt.Fprintf(&b, "%-13s %-8d %-10d %-9s %-10s %-14s %-14s %v\n",
			row.Benchmark, row.Inputs, row.Versions,
			fmt.Sprintf("%d(%d)", row.StableCount, p.Stable),
			row.ExampleMetric,
			fmt.Sprintf("%.1f(%.1f)", row.Min, p.Min),
			fmt.Sprintf("%.1f(%.1f)", row.Max, p.Max),
			row.StableEveryVersion)
		for v, rg := range row.PerVersionRange {
			fmt.Fprintf(&b, "%-13s   version %d range: [%.1f, %.1f]\n", "", v+1, rg.Min, rg.Max)
		}
	}
	return b.String()
}
