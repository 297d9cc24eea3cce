// Crossversion: the paper's Figure 7(B) claim in miniature — a model
// calibrated on version 1 of an application keeps working on versions
// 2 through 5, because the stable heap-graph metrics and their ranges
// persist across development versions. A fault injected into version
// 4 is caught by the version-1 model, the cross-version bug-finding
// mode the paper reports ("the anomaly detector can be used to find
// bugs ... in another version of the program").
//
// Run with: go run ./examples/crossversion
package main

import (
	"fmt"
	"os"

	"heapmd/internal/detect"
	"heapmd/internal/faults"
	"heapmd/internal/model"
	"heapmd/internal/workloads"
)

func main() {
	w, err := workloads.Get("productivity")
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}

	// Calibrate on version 1 only.
	const trainN = 20
	fmt.Printf("calibrating %s v1 on %d inputs...\n", w.Name(), trainN)
	reports, err := workloads.Train(w, trainN, workloads.RunConfig{Version: 1})
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	build, err := model.Build(reports, model.Defaults())
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	for _, id := range build.Model.StableIDs() {
		rng, _ := build.Model.RangeOf(id)
		fmt.Printf("  %-9s [%.2f%%, %.2f%%]\n", id, rng.Min, rng.Max)
	}

	// Clean runs of every later version must stay in band.
	testInputs := w.Inputs(trainN + 2)[trainN:]
	fmt.Println("\nclean runs against the v1 model:")
	for v := 1; v <= workloads.Versions; v++ {
		violations := 0
		for _, in := range testInputs {
			rep, _, err := workloads.RunLogged(w, in, workloads.RunConfig{Version: v})
			if err != nil {
				fmt.Fprintln(os.Stderr, err)
				os.Exit(1)
			}
			for _, f := range detect.CheckReport(build.Model, rep) {
				if f.Kind == detect.RangeViolation {
					violations++
				}
			}
		}
		fmt.Printf("  version %d: %d violations\n", v, violations)
	}

	// A bug introduced in version 4 is caught by the version-1 model.
	fmt.Println("\nversion 4 with the Figure 1 bug, checked against the v1 model:")
	plan := faults.NewPlan().EnableAlways(faults.DListNoPrev)
	rep, p, err := workloads.RunLogged(w, testInputs[0], workloads.RunConfig{Version: 4, Plan: plan})
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	findings := detect.CheckReport(build.Model, rep)
	if len(findings) == 0 {
		fmt.Println("  not detected — unexpected")
		os.Exit(1)
	}
	for _, f := range findings {
		fmt.Printf("  %s\n", f.Describe(p.Sym()))
	}
}
