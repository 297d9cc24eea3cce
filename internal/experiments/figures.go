package experiments

import (
	"fmt"
	"strings"

	"heapmd/internal/metrics"
	"heapmd/internal/model"
	"heapmd/internal/plot"
	"heapmd/internal/stats"
	"heapmd/internal/workloads"
)

// Figure4Result holds the metric trajectories of vpr on two inputs
// (paper Figure 4: percentage of vertices with indegree = outdegree
// and with outdegree = 1, on the test and train inputs).
type Figure4Result struct {
	Inputs  [2]string
	InEqOut [2][]float64
	OutDeg1 [2][]float64
}

// Figure4 runs vpr on two inputs and records the two metric series.
func Figure4(cfg Config) (*Figure4Result, error) {
	w, err := workloads.Get("vpr")
	if err != nil {
		return nil, err
	}
	ins := w.Inputs(2)
	res := &Figure4Result{}
	for i, in := range ins {
		rep, _, err := workloads.RunLogged(w, in, workloads.RunConfig{})
		if err != nil {
			return nil, err
		}
		res.Inputs[i] = in.Name
		res.InEqOut[i] = rep.Series(metrics.InEqOut)
		res.OutDeg1[i] = rep.Series(metrics.OutDeg1)
	}
	return res, nil
}

// String renders the four panels as ASCII charts.
func (r *Figure4Result) String() string {
	var b strings.Builder
	b.WriteString("Figure 4: metric reports for two degree-based metrics for vpr on two inputs\n\n")
	for i := 0; i < 2; i++ {
		b.WriteString(plot.Render(plot.Options{
			Title: fmt.Sprintf("(%c) %s", 'A'+i, r.Inputs[i]),
			Width: 64, Height: 10,
		},
			plot.Series{Name: "In=Out (%)", Values: r.InEqOut[i]},
			plot.Series{Name: "Outdeg=1 (%)", Values: r.OutDeg1[i]},
		))
		b.WriteString("\n")
	}
	return b.String()
}

// Figure5Result holds the fluctuation (percentage-change) series of
// the Figure 4 trajectories, after discarding the startup samples —
// paper Figure 5.
type Figure5Result struct {
	Inputs  [2]string
	InEqOut [2][]float64
	OutDeg1 [2][]float64
}

// Figure5 derives the fluctuation series from a fresh Figure 4 run.
func Figure5(cfg Config) (*Figure5Result, error) {
	f4, err := Figure4(cfg)
	if err != nil {
		return nil, err
	}
	trim := model.Defaults().TrimFrac
	res := &Figure5Result{Inputs: f4.Inputs}
	for i := 0; i < 2; i++ {
		res.InEqOut[i] = stats.Fluctuation(stats.Trim(f4.InEqOut[i], trim))
		res.OutDeg1[i] = stats.Fluctuation(stats.Trim(f4.OutDeg1[i], trim))
	}
	return res, nil
}

// String renders the fluctuation panels.
func (r *Figure5Result) String() string {
	var b strings.Builder
	b.WriteString("Figure 5: fluctuation of the metrics in Figure 4 (% change between\n")
	b.WriteString("consecutive metric computation points, startup/shutdown trimmed)\n\n")
	for i := 0; i < 2; i++ {
		b.WriteString(plot.Render(plot.Options{
			Title: fmt.Sprintf("(%c) %s", 'A'+i, r.Inputs[i]),
			Width: 64, Height: 10,
		},
			plot.Series{Name: "In=Out Δ%", Values: r.InEqOut[i]},
			plot.Series{Name: "Outdeg=1 Δ%", Values: r.OutDeg1[i]},
		))
		b.WriteString("\n")
	}
	return b.String()
}

// Figure6Cell is one (metric, input) entry of the paper's Figure 6:
// the average and standard deviation of the fluctuation series.
type Figure6Cell struct {
	Average float64
	StdDev  float64
}

// Figure6Result is the 2x2 statistics table for vpr.
type Figure6Result struct {
	Inputs  [2]string
	InEqOut [2]Figure6Cell
	OutDeg1 [2]Figure6Cell
	// Paper reference values for the same table.
	PaperInEqOut [2]Figure6Cell
	PaperOutDeg1 [2]Figure6Cell
}

// Figure6 computes the average/stddev-of-change statistics underlying
// the paper's stability decision for vpr's two example metrics.
func Figure6(cfg Config) (*Figure6Result, error) {
	f5, err := Figure5(cfg)
	if err != nil {
		return nil, err
	}
	res := &Figure6Result{
		Inputs: f5.Inputs,
		PaperInEqOut: [2]Figure6Cell{
			{Average: 2.47, StdDev: 24.80},
			{Average: -0.18, StdDev: 5.27},
		},
		PaperOutDeg1: [2]Figure6Cell{
			{Average: -0.10, StdDev: 1.72},
			{Average: -0.02, StdDev: 1.79},
		},
	}
	for i := 0; i < 2; i++ {
		res.InEqOut[i] = Figure6Cell{stats.Mean(f5.InEqOut[i]), stats.StdDev(f5.InEqOut[i])}
		res.OutDeg1[i] = Figure6Cell{stats.Mean(f5.OutDeg1[i]), stats.StdDev(f5.OutDeg1[i])}
	}
	return res, nil
}

// String renders the statistics table with the paper's values
// alongside.
func (r *Figure6Result) String() string {
	var b strings.Builder
	b.WriteString("Figure 6: average and standard deviation of the Figure 5 fluctuations\n")
	b.WriteString("(paper values in parentheses; stability thresholds: |avg| <= 1%, stddev <= 5)\n\n")
	fmt.Fprintf(&b, "%-22s %-24s %-24s\n", "", "Input1", "Input2")
	row := func(name string, got [2]Figure6Cell, paper [2]Figure6Cell, f string) {
		fmt.Fprintf(&b, "%-22s", name)
		for i := 0; i < 2; i++ {
			fmt.Fprintf(&b, " %-24s", fmt.Sprintf(f, got[i].Average, paper[i].Average))
		}
		b.WriteString("\n")
		fmt.Fprintf(&b, "%-22s", "  std. deviation")
		for i := 0; i < 2; i++ {
			fmt.Fprintf(&b, " %-24s", fmt.Sprintf("%.2f (%.2f)", got[i].StdDev, paper[i].StdDev))
		}
		b.WriteString("\n")
	}
	row("In=Out: average %", r.InEqOut, r.PaperInEqOut, "%+.2f%% (%+.2f%%)")
	row("Outdeg=1: average %", r.OutDeg1, r.PaperOutDeg1, "%+.2f%% (%+.2f%%)")
	return b.String()
}
