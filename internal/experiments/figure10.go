package experiments

import (
	"fmt"
	"strings"

	"heapmd/internal/detect"
	"heapmd/internal/faults"
	"heapmd/internal/logger"
	"heapmd/internal/metrics"
	"heapmd/internal/plot"
	"heapmd/internal/stats"
	"heapmd/internal/workloads"
)

// Figure10Result reproduces the paper's Figure 10: the percentage of
// vertices with indegree = 1 in PC Game/Action violating its
// calibrated bounds when the missing-parent-pointer bug is active.
type Figure10Result struct {
	Series      []float64   // Indeg=1 trajectory on the buggy input
	Calibrated  stats.Range // trained bounds
	Violation   *detect.Finding
	CallStacks  []string // symbolized context around the violation
	TrainInputs int
}

// Figure10 trains PC Game/Action on clean inputs, then replays a
// held-out input with the TreeNoParent fault and captures the metric
// crossing its calibrated maximum.
func Figure10(cfg Config) (*Figure10Result, error) {
	w, err := workloads.Get("game_action")
	if err != nil {
		return nil, err
	}
	n := cfg.cap(25)
	_, build, err := train(w, n, cfg)
	if err != nil {
		return nil, err
	}
	rng, ok := build.Model.RangeOf(metrics.InDeg1)
	if !ok {
		return nil, fmt.Errorf("figure10: Indeg=1 not stable after training")
	}
	res := &Figure10Result{Calibrated: rng, TrainInputs: n}

	// The paper's bug fired from "a specific call-site that was only
	// exercised on the buggy input": a held-out input with the fault
	// plan active.
	testIn := w.Inputs(n + 1)[n]
	plan := faults.NewPlan().EnableAlways(faults.TreeNoParent)

	// Online detection: attach the detector as a sample observer so
	// call stacks are captured around the crossing.
	det := detect.New(build.Model, metrics.DefaultSuite())
	rep, p, err := workloads.RunLogged(w, testIn, workloads.RunConfig{
		Plan:      plan,
		Observers: []logger.SampleObserver{det},
	})
	if err != nil {
		return nil, err
	}
	det.Finish()
	res.Series = rep.Series(metrics.InDeg1)
	for _, f := range det.Findings() {
		if f.Kind == detect.RangeViolation && f.Metric == metrics.InDeg1.String() {
			res.Violation = f
			for _, c := range f.Captures {
				res.CallStacks = append(res.CallStacks,
					fmt.Sprintf("tick %d (%.2f%%): %s", c.Tick, c.Value,
						strings.Join(p.Sym().Names(c.Stack), " > ")))
			}
			break
		}
	}
	return res, nil
}

// String renders the trajectory with the calibrated bounds and the
// captured call-stack context.
func (r *Figure10Result) String() string {
	var b strings.Builder
	b.WriteString("Figure 10: Indeg=1 violating its calibrated range for PC Game/Action\n")
	fmt.Fprintf(&b, "(trained on %d clean inputs; missing-parent-pointer fault active)\n\n", r.TrainInputs)
	b.WriteString(plot.Render(plot.Options{
		Width: 64, Height: 14,
		HLines: map[string]float64{
			"calibrated max": r.Calibrated.Max,
			"calibrated min": r.Calibrated.Min,
		},
	}, plot.Series{Name: "Indeg=1 (%)", Values: r.Series}))
	if r.Violation != nil {
		fmt.Fprintf(&b, "\nviolation: %s crossed %s at tick %d (value %.2f%%, +%d recurrences)\n",
			r.Violation.Metric, r.Violation.Direction, r.Violation.Tick,
			r.Violation.Value, r.Violation.Recurrences)
		if len(r.CallStacks) > 0 {
			b.WriteString("call-stack context (circular buffer):\n")
			for _, s := range r.CallStacks {
				fmt.Fprintf(&b, "  %s\n", s)
			}
		}
	} else {
		b.WriteString("\nno violation detected (unexpected)\n")
	}
	return b.String()
}
