package experiments

import (
	"fmt"
	"strings"

	"heapmd/internal/faults"
	"heapmd/internal/sched"
)

// InjectionRow is one (SPEC benchmark, injected bug) outcome of the
// Section 4.2 validation study: "we also validated HeapMD by using it
// to successfully identify artificially-injected bugs in several SPEC
// 2000 benchmarks."
type InjectionRow struct {
	Benchmark string
	Fault     string
	Detected  bool
	Metric    string
}

// InjectionResult is the study's outcome table.
type InjectionResult struct {
	Rows []InjectionRow
}

// specInjectionScenarios pairs each SPEC-like benchmark with the
// fault its data structures expose.
func specInjectionScenarios() []Scenario {
	always := faults.Config{}
	return []Scenario{
		{"crafty-dlist", "crafty", DataStructInvariant, faults.DListNoPrev, always, ""},
		{"parser-badhash", "parser", Indirect, faults.BadHash, always, ""},
		{"gcc-singlechild", "gcc", Indirect, faults.SingleChild, always, ""},
		{"mcf-atypical", "mcf", Indirect, faults.AtypicalGraph, always, ""},
		{"gzip-singlechild", "gzip", Indirect, faults.SingleChild, always, ""},
	}
}

// SPECInjection injects one bug into each of five SPEC-like
// benchmarks and checks HeapMD detects it against a clean model.
func SPECInjection(cfg Config) (*InjectionResult, error) {
	scs := specInjectionScenarios()
	rows, err := sched.Map(cfg.Parallel, len(scs), func(i int) (InjectionRow, error) {
		sc := scs[i]
		trainN := cfg.cap(paperInputs(sc.Workload))
		out, err := runScenario(sc, trainN, cfg.capTest(6), cfg, false)
		if err != nil {
			return InjectionRow{}, err
		}
		return InjectionRow{
			Benchmark: sc.Workload,
			Fault:     sc.Fault,
			Detected:  out.HeapMD,
			Metric:    out.Metric,
		}, nil
	})
	if err != nil {
		return nil, err
	}
	return &InjectionResult{Rows: rows}, nil
}

// String prints the injection study outcome.
func (r *InjectionResult) String() string {
	var b strings.Builder
	b.WriteString("Section 4.2: artificially-injected bugs in SPEC benchmarks\n\n")
	fmt.Fprintf(&b, "%-10s %-26s %-10s %s\n", "Benchmark", "Injected fault", "Detected", "Violated metric")
	for _, row := range r.Rows {
		metric := row.Metric
		if metric == "" {
			metric = "-"
		}
		fmt.Fprintf(&b, "%-10s %-26s %-10v %s\n", row.Benchmark, row.Fault, row.Detected, metric)
	}
	return b.String()
}
