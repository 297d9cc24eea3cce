// Leakhunt: run HeapMD and the SWAT staleness detector side by side
// on the bundled web-application workload with the paper's Figure 11
// typo leak injected, reproducing the Table 1 division of labour:
//
//   - the systemic typo leak moves heap-graph metrics out of their
//     calibrated band — both tools catch it;
//   - a small reachable "cache" leak never moves a metric — only
//     staleness-based SWAT sees it.
//
// Run with: go run ./examples/leakhunt
package main

import (
	"fmt"
	"os"

	"heapmd/internal/detect"
	"heapmd/internal/event"
	"heapmd/internal/faults"
	"heapmd/internal/model"
	"heapmd/internal/swat"
	"heapmd/internal/workloads"
)

func main() {
	w, err := workloads.Get("webapp")
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}

	// Calibrate on clean regression inputs.
	const trainN = 25
	fmt.Printf("training %s on %d clean inputs...\n", w.Name(), trainN)
	reports, err := workloads.Train(w, trainN, workloads.RunConfig{})
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	build, err := model.Build(reports, model.Defaults())
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	fmt.Printf("model has %d stable metrics\n\n", build.StableCount())

	testInputs := w.Inputs(trainN + 5)[trainN:]
	scenarios := []struct {
		name string
		plan func() *faults.Plan
	}{
		{"systemic typo leak (Figure 11)",
			func() *faults.Plan { return faults.NewPlan().EnableAlways(faults.TypoLeak) }},
		{"small reachable cache leak",
			func() *faults.Plan {
				return faults.NewPlan().Enable(faults.ReachableLeak, faults.Config{MaxTriggers: 6})
			}},
	}

	for _, sc := range scenarios {
		fmt.Printf("=== %s ===\n", sc.name)
		heapmdHits, swatHits := 0, 0
		var firstFinding, firstLeak string
		for _, in := range testInputs {
			sw := swat.New()
			rep, p, err := workloads.RunLogged(w, in, workloads.RunConfig{
				Plan:       sc.plan(),
				ExtraSinks: []event.Sink{sw},
			})
			if err != nil {
				fmt.Fprintln(os.Stderr, err)
				os.Exit(1)
			}
			if findings := detect.CheckReport(build.Model, rep); len(findings) > 0 {
				heapmdHits++
				if firstFinding == "" {
					firstFinding = findings[0].Describe(nil)
				}
			}
			if leaks := sw.Report(p.Sym()); len(leaks) > 0 {
				swatHits++
				if firstLeak == "" {
					firstLeak = fmt.Sprintf("%d stale objects (of %d live) allocated at %s",
						leaks[0].Stale, leaks[0].Live, leaks[0].SiteName)
				}
			}
		}
		fmt.Printf("HeapMD flagged %d of %d test inputs\n", heapmdHits, len(testInputs))
		if firstFinding != "" {
			fmt.Printf("  e.g. %s\n", firstFinding)
		}
		fmt.Printf("SWAT   flagged %d of %d test inputs\n", swatHits, len(testInputs))
		if firstLeak != "" {
			fmt.Printf("  e.g. %s\n", firstLeak)
		}
		fmt.Println()
	}
}
