// Package experiments regenerates every table and figure of the
// paper's evaluation (Sections 3 and 4) on the simulated benchmark
// suite. Each experiment returns a structured result whose String
// method prints a paper-style table or chart, together with the
// paper's reference numbers where the paper states them, so the
// comparison EXPERIMENTS.md records is mechanical.
//
// The experiments run at two scales. Paper scale uses the input
// counts of Figure 7 (up to 100 inputs for gzip/parser/gcc, 50 per
// commercial application) and takes a minute or two in total; Quick
// scale caps every input set for use in tests and benchmarks.
package experiments

import (
	"fmt"

	"heapmd/internal/logger"
	"heapmd/internal/model"
	"heapmd/internal/workloads"
)

// Config controls experiment scale.
type Config struct {
	// Quick caps input counts (5 training, 3 test) so experiments
	// finish in test/bench budgets.
	Quick bool
	// Parallel is the worker count for independent experiment cells
	// (benchmark rows, per-version training fleets, injection
	// scenarios), as sched.Map reads it: 0 or 1 runs serially, <0
	// uses GOMAXPROCS. Every experiment aggregates cell results in
	// deterministic cell order, so outputs are bit-identical to a
	// serial run.
	Parallel int
}

// cap applies Quick-mode input capping.
func (c Config) cap(n int) int {
	if c.Quick && n > 5 {
		return 5
	}
	return n
}

func (c Config) capTest(n int) int {
	if c.Quick && n > 3 {
		return 3
	}
	return n
}

// paperInputs returns the number of training inputs Figure 7(A) used
// for each benchmark.
func paperInputs(name string) int {
	switch name {
	case "twolf", "crafty", "mcf":
		return 3
	case "vpr":
		return 6
	case "vortex":
		return 5
	case "gzip", "parser", "gcc":
		return 100
	default: // the five commercial applications
		return 50
	}
}

// train builds a model for the workload from its first n inputs.
func train(w workloads.Workload, n int, cfg Config) ([]*logger.Report, *model.BuildResult, error) {
	reports, err := workloads.Train(w, n, workloads.RunConfig{})
	if err != nil {
		return nil, nil, fmt.Errorf("training %s: %w", w.Name(), err)
	}
	res, err := model.Build(reports, model.Defaults())
	if err != nil {
		return nil, nil, fmt.Errorf("summarizing %s: %w", w.Name(), err)
	}
	return reports, res, nil
}
