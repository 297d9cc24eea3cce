package experiments

import (
	"fmt"
	"strings"

	"heapmd/internal/detect"
	"heapmd/internal/event"
	"heapmd/internal/faults"
	"heapmd/internal/sched"
	"heapmd/internal/swat"
	"heapmd/internal/workloads"
)

// BugCategory classifies a scenario per the paper's Figure 8/9
// taxonomy.
type BugCategory int

const (
	ProgrammingTypo BugCategory = iota
	SharedState
	DataStructInvariant
	Indirect
	// LeakReachable and LeakSmall are the Table 1 / Section 4.2
	// negative-control categories.
	LeakReachable
	LeakSmall
)

func (c BugCategory) String() string {
	switch c {
	case ProgrammingTypo:
		return "programming-typo"
	case SharedState:
		return "shared-state"
	case DataStructInvariant:
		return "ds-invariant"
	case Indirect:
		return "indirect"
	case LeakReachable:
		return "leak-reachable"
	case LeakSmall:
		return "leak-small"
	default:
		return fmt.Sprintf("BugCategory(%d)", int(c))
	}
}

// Scenario is one synthetic bug: a fault wired into one workload with
// a specific configuration. Distinct scenarios of the same category
// on the same workload differ in configuration — different call-site
// activation probabilities and budgets, the way the paper's distinct
// bugs shared mechanisms but lived at different sites.
type Scenario struct {
	Name     string
	Workload string
	Category BugCategory
	Fault    string
	Config   faults.Config
	// LeakSite names the allocation site SWAT must report for the
	// scenario to count as a SWAT detection (Table 1 scenarios).
	LeakSite string
}

// scenarioOutcome is the per-scenario result of a detection study.
type scenarioOutcome struct {
	Scenario Scenario
	// HeapMD: detected by a range violation (or extreme-stability
	// for the poorly-disguised oct-DAG) on at least one test input.
	HeapMD bool
	// SWATFound: SWAT reported the scenario's leak site (Table 1).
	SWATFound bool
	// Crashed counts runs aborted by simulator faults (double free
	// etc.) — dangling-pointer bugs occasionally do crash.
	Crashed int
	// DetectedOn names the first input the bug was caught on.
	DetectedOn string
	// Metric is the violated metric on the first detection.
	Metric string
}

// runScenario trains the workload (clean) and tests the scenario's
// fault on held-out inputs, with optional SWAT attached.
func runScenario(sc Scenario, trainN, testN int, cfg Config, withSWAT bool) (*scenarioOutcome, error) {
	w, err := workloads.Get(sc.Workload)
	if err != nil {
		return nil, err
	}
	_, build, err := train(w, trainN, cfg)
	if err != nil {
		return nil, err
	}
	out := &scenarioOutcome{Scenario: sc}
	all := w.Inputs(trainN + testN)
	for _, in := range all[trainN:] {
		plan := faults.NewPlan().Enable(sc.Fault, sc.Config)
		var sw *swat.Detector
		rc := workloads.RunConfig{Plan: plan}
		if withSWAT {
			sw = swat.New()
			rc.ExtraSinks = []event.Sink{sw}
		}
		rep, p, err := workloads.RunLogged(w, in, rc)
		if err != nil {
			out.Crashed++
			continue
		}
		findings := detect.CheckReport(build.Model, rep)
		for _, f := range findings {
			if f.Kind == detect.RangeViolation || f.Kind == detect.ExtremeStability {
				if !out.HeapMD {
					out.HeapMD = true
					out.DetectedOn = in.Name
					out.Metric = f.Metric
				}
			}
		}
		if sw != nil && sc.LeakSite != "" {
			for _, l := range sw.Report(p.Sym()) {
				if l.SiteName == sc.LeakSite {
					out.SWATFound = true
				}
			}
		}
		if out.HeapMD && (!withSWAT || out.SWATFound) {
			break // enough evidence for this scenario
		}
	}
	return out, nil
}

// ---------------------------------------------------------------------------
// Table 1: SWAT vs HeapMD on synthesized leak inputs.

// table1Scenarios reproduces the paper's synthesized leak study: per
// application, a mix of leak bugs only some of which move heap-graph
// metrics. Paper counts — multimedia: SWAT 4 / HeapMD 2; web-app:
// SWAT 9 / HeapMD 4; game-sim: SWAT 4 / HeapMD 3.
func table1Scenarios() []Scenario {
	always := faults.Config{}
	return []Scenario{
		// multimedia: 2 typo leaks (both tools), 1 reachable + 1
		// small (SWAT only).
		{"mm-typo-1", "multimedia", ProgrammingTypo, faults.TypoLeak, always, "mm.props.chain"},
		{"mm-typo-2", "multimedia", ProgrammingTypo, faults.TypoLeak, faults.Config{Prob: 0.6}, "mm.props.chain"},
		{"mm-reach", "multimedia", LeakReachable, faults.ReachableLeak, faults.Config{MaxTriggers: 4}, "mm.cacheStore"},
		{"mm-small", "multimedia", LeakSmall, faults.SmallLeak, faults.Config{MaxTriggers: 2}, "mm.leak"},

		// webapp: 4 typo leaks, 3 reachable, 2 small.
		{"web-typo-1", "webapp", ProgrammingTypo, faults.TypoLeak, always, "web.props.chain"},
		{"web-typo-2", "webapp", ProgrammingTypo, faults.TypoLeak, faults.Config{Prob: 0.7}, "web.props.chain"},
		{"web-typo-3", "webapp", ProgrammingTypo, faults.TypoLeak, faults.Config{Prob: 0.5}, "web.props.chain"},
		{"web-typo-4", "webapp", ProgrammingTypo, faults.TypoLeak, faults.Config{Prob: 0.4}, "web.props.chain"},
		{"web-reach-1", "webapp", LeakReachable, faults.ReachableLeak, faults.Config{MaxTriggers: 5}, "web.cacheStore"},
		{"web-reach-2", "webapp", LeakReachable, faults.ReachableLeak, faults.Config{MaxTriggers: 4}, "web.cacheStore"},
		{"web-reach-3", "webapp", LeakReachable, faults.ReachableLeak, faults.Config{MaxTriggers: 3}, "web.cacheStore"},
		{"web-small-1", "webapp", LeakSmall, faults.SmallLeak, faults.Config{MaxTriggers: 2}, "web.leak"},
		{"web-small-2", "webapp", LeakSmall, faults.SmallLeak, faults.Config{MaxTriggers: 2}, "web.leak"},

		// game_sim: 3 typo leaks, 1 reachable.
		{"sim-typo-1", "game_sim", ProgrammingTypo, faults.TypoLeak, always, "sim.props.chain"},
		{"sim-typo-2", "game_sim", ProgrammingTypo, faults.TypoLeak, faults.Config{Prob: 0.7}, "sim.props.chain"},
		{"sim-typo-3", "game_sim", ProgrammingTypo, faults.TypoLeak, faults.Config{Prob: 0.5}, "sim.props.chain"},
		{"sim-reach", "game_sim", LeakReachable, faults.ReachableLeak, faults.Config{MaxTriggers: 4}, "sim.cacheStore"},
	}
}

// Table1Row is one application's line in Table 1.
type Table1Row struct {
	Program     string
	SWATLeaks   int
	SWATFP      int
	HeapMDLeaks int
	HeapMDFP    int
	// Paper reference values.
	PaperSWAT, PaperSWATFP, PaperHeapMD, PaperHeapMDFP int
}

// Table1Result is the SWAT-vs-HeapMD comparison.
type Table1Result struct {
	Rows     []Table1Row
	Outcomes []*scenarioOutcome
}

// Table1 runs the synthesized-leak comparison.
func Table1(cfg Config) (*Table1Result, error) {
	paper := map[string][4]int{ // SWAT, SWAT FP, HeapMD, HeapMD FP
		"multimedia": {4, 0, 2, 0},
		"webapp":     {9, 1, 4, 0},
		"game_sim":   {4, 1, 3, 0},
	}
	trainN, testN := cfg.cap(25), cfg.capTest(8)
	// Every scenario — and later every application's clean-run
	// false-positive sweep — is an independent cell: it trains its own
	// model and runs its own inputs. Fan the cells out on the worker
	// pool, then fold the ordered results exactly as the serial loops
	// did, so the table is bit-identical at any worker count.
	scs := table1Scenarios()
	outcomes, err := sched.Map(cfg.Parallel, len(scs), func(i int) (*scenarioOutcome, error) {
		return runScenario(scs[i], trainN, testN, cfg, true)
	})
	if err != nil {
		return nil, err
	}
	res := &Table1Result{Outcomes: outcomes}
	found := map[string]*Table1Row{}
	for _, out := range outcomes {
		sc := out.Scenario
		row := found[sc.Workload]
		if row == nil {
			p := paper[sc.Workload]
			row = &Table1Row{Program: sc.Workload,
				PaperSWAT: p[0], PaperSWATFP: p[1], PaperHeapMD: p[2], PaperHeapMDFP: p[3]}
			found[sc.Workload] = row
		}
		if out.SWATFound {
			row.SWATLeaks++
		}
		if out.HeapMD {
			row.HeapMDLeaks++
		}
	}
	// False positives: clean runs — HeapMD range violations and SWAT
	// reports at sites no scenario leaks from.
	knownLeakSites := map[string]map[string]bool{}
	for _, sc := range scs {
		if knownLeakSites[sc.Workload] == nil {
			knownLeakSites[sc.Workload] = map[string]bool{}
		}
		knownLeakSites[sc.Workload][sc.LeakSite] = true
	}
	names := []string{"multimedia", "webapp", "game_sim"}
	type fpCount struct{ heapmd, swat int }
	fps, err := sched.Map(cfg.Parallel, len(names), func(i int) (fpCount, error) {
		name := names[i]
		var fp fpCount
		w, err := workloads.Get(name)
		if err != nil {
			return fp, err
		}
		_, build, err := train(w, trainN, cfg)
		if err != nil {
			return fp, err
		}
		all := w.Inputs(trainN + testN)
		for _, in := range all[trainN:] {
			sw := swat.New()
			rep, p, err := workloads.RunLogged(w, in, workloads.RunConfig{
				ExtraSinks: []event.Sink{sw},
			})
			if err != nil {
				return fp, err
			}
			for _, f := range detect.CheckReport(build.Model, rep) {
				if f.Kind == detect.RangeViolation {
					fp.heapmd++
				}
			}
			for _, l := range sw.Report(p.Sym()) {
				if !knownLeakSites[name][l.SiteName] {
					fp.swat++
				}
			}
		}
		return fp, nil
	})
	if err != nil {
		return nil, err
	}
	for i, name := range names {
		found[name].HeapMDFP = fps[i].heapmd
		found[name].SWATFP = fps[i].swat
		res.Rows = append(res.Rows, *found[name])
	}
	return res, nil
}

// String prints the comparison table.
func (r *Table1Result) String() string {
	var b strings.Builder
	b.WriteString("Table 1: memory leaks found by SWAT and HeapMD on synthesized leak inputs\n")
	b.WriteString("(measured, paper value in parentheses; FP counted across all clean test runs)\n\n")
	fmt.Fprintf(&b, "%-13s %-16s %-16s %-16s %-16s\n",
		"Program", "SWAT leaks", "SWAT FP", "HeapMD leaks", "HeapMD FP")
	for _, row := range r.Rows {
		fmt.Fprintf(&b, "%-13s %-16s %-16s %-16s %-16s\n", row.Program,
			fmt.Sprintf("%d(%d)", row.SWATLeaks, row.PaperSWAT),
			fmt.Sprintf("%d(%d)", row.SWATFP, row.PaperSWATFP),
			fmt.Sprintf("%d(%d)", row.HeapMDLeaks, row.PaperHeapMD),
			fmt.Sprintf("%d(%d)", row.HeapMDFP, row.PaperHeapMDFP))
	}
	b.WriteString("\nper-scenario outcomes:\n")
	for _, o := range r.Outcomes {
		fmt.Fprintf(&b, "  %-12s %-16s swat=%-5v heapmd=%-5v metric=%s\n",
			o.Scenario.Name, o.Scenario.Category, o.SWATFound, o.HeapMD, o.Metric)
	}
	return b.String()
}

// ---------------------------------------------------------------------------
// Table 2: the full bug census.

// table2Scenarios lays out the paper's 40 bugs: 11 programming typos,
// 6 shared-state errors, 17 data-structure-invariant violations and 6
// indirect bugs, distributed across the five applications exactly as
// Table 2 reports.
func table2Scenarios() []Scenario {
	always := faults.Config{}
	p := func(prob float64) faults.Config { return faults.Config{Prob: prob} }
	return []Scenario{
		// multimedia: 2 typos, 2 shared, 3 invariants, 1 indirect.
		{"mm-typo-1", "multimedia", ProgrammingTypo, faults.TypoLeak, always, ""},
		{"mm-typo-2", "multimedia", ProgrammingTypo, faults.TypoLeak, p(0.6), ""},
		{"mm-shared-1", "multimedia", SharedState, faults.SharedFree, always, ""},
		{"mm-shared-2", "multimedia", SharedState, faults.SharedFree, p(0.6), ""},
		{"mm-inv-1", "multimedia", DataStructInvariant, faults.DListNoPrev, always, ""},
		{"mm-inv-2", "multimedia", DataStructInvariant, faults.DListNoPrev, p(0.7), ""},
		{"mm-inv-3", "multimedia", DataStructInvariant, faults.DListNoPrev, p(0.5), ""},
		{"mm-ind-1", "multimedia", Indirect, faults.BadHash, always, ""},

		// webapp: 4 typos, 0 shared, 5 invariants, 1 indirect.
		{"web-typo-1", "webapp", ProgrammingTypo, faults.TypoLeak, always, ""},
		{"web-typo-2", "webapp", ProgrammingTypo, faults.TypoLeak, p(0.7), ""},
		{"web-typo-3", "webapp", ProgrammingTypo, faults.TypoLeak, p(0.5), ""},
		{"web-typo-4", "webapp", ProgrammingTypo, faults.TypoLeak, p(0.4), ""},
		{"web-inv-1", "webapp", DataStructInvariant, faults.DListNoPrev, always, ""},
		{"web-inv-2", "webapp", DataStructInvariant, faults.DListNoPrev, p(0.8), ""},
		{"web-inv-3", "webapp", DataStructInvariant, faults.DListNoPrev, p(0.6), ""},
		{"web-inv-4", "webapp", DataStructInvariant, faults.DListNoPrev, p(0.5), ""},
		{"web-inv-5", "webapp", DataStructInvariant, faults.DListNoPrev, p(0.4), ""},
		{"web-ind-1", "webapp", Indirect, faults.BadHash, always, ""},

		// game_sim: 3 typos, 3 shared, 2 invariants, 1 indirect.
		{"sim-typo-1", "game_sim", ProgrammingTypo, faults.TypoLeak, always, ""},
		{"sim-typo-2", "game_sim", ProgrammingTypo, faults.TypoLeak, p(0.7), ""},
		{"sim-typo-3", "game_sim", ProgrammingTypo, faults.TypoLeak, p(0.5), ""},
		{"sim-shared-1", "game_sim", SharedState, faults.SharedFree, always, ""},
		{"sim-shared-2", "game_sim", SharedState, faults.SharedFree, p(0.8), ""},
		{"sim-shared-3", "game_sim", SharedState, faults.SharedFree, p(0.9), ""},
		{"sim-inv-1", "game_sim", DataStructInvariant, faults.DListNoPrev, always, ""},
		{"sim-inv-2", "game_sim", DataStructInvariant, faults.DListNoPrev, p(0.6), ""},
		{"sim-ind-1", "game_sim", Indirect, faults.AtypicalGraph, always, ""},

		// game_action: 2 typos, 1 shared, 3 invariants, 2 indirect.
		{"act-typo-1", "game_action", ProgrammingTypo, faults.TypoLeak, always, ""},
		{"act-typo-2", "game_action", ProgrammingTypo, faults.TypoLeak, p(0.6), ""},
		{"act-shared-1", "game_action", SharedState, faults.SharedFree, always, ""},
		{"act-inv-1", "game_action", DataStructInvariant, faults.TreeNoParent, always, ""},
		{"act-inv-2", "game_action", DataStructInvariant, faults.TreeNoParent, p(0.6), ""},
		{"act-inv-3", "game_action", DataStructInvariant, faults.OctDAG, always, ""},
		{"act-ind-1", "game_action", Indirect, faults.SingleChild, always, ""},
		{"act-ind-2", "game_action", Indirect, faults.SingleChild, p(0.7), ""},

		// productivity: 0 typos, 0 shared, 4 invariants, 1 indirect.
		{"prod-inv-1", "productivity", DataStructInvariant, faults.DListNoPrev, always, ""},
		{"prod-inv-2", "productivity", DataStructInvariant, faults.DListNoPrev, p(0.8), ""},
		{"prod-inv-3", "productivity", DataStructInvariant, faults.DListNoPrev, p(0.6), ""},
		{"prod-inv-4", "productivity", DataStructInvariant, faults.DListNoPrev, p(0.4), ""},
		{"prod-ind-1", "productivity", Indirect, faults.BadHash, always, ""},
	}
}

// Table2Row is one application's row of the bug census.
type Table2Row struct {
	Program                                                 string
	Found                                                   map[BugCategory]int
	Planted                                                 map[BugCategory]int
	FalsePos                                                int
	PaperTypos, PaperShared, PaperInvariants, PaperIndirect int
}

// Table2Result is the bug census.
type Table2Result struct {
	Rows                     []Table2Row
	Outcomes                 []*scenarioOutcome
	TotalFound, TotalPlanted int
}

// Table2 plants the paper's 40-bug census and reports how many each
// application's model catches, plus clean-run false positives.
func Table2(cfg Config) (*Table2Result, error) {
	paper := map[string][4]int{ // typos, shared, invariants, indirect
		"multimedia":   {2, 2, 3, 1},
		"webapp":       {4, 0, 5, 1},
		"game_sim":     {3, 3, 2, 1},
		"game_action":  {2, 1, 3, 2},
		"productivity": {0, 0, 4, 1},
	}
	trainN, testN := cfg.cap(25), cfg.capTest(10)
	rows := map[string]*Table2Row{}
	order := []string{"multimedia", "webapp", "game_sim", "game_action", "productivity"}
	for _, name := range order {
		p := paper[name]
		rows[name] = &Table2Row{
			Program:    name,
			Found:      map[BugCategory]int{},
			Planted:    map[BugCategory]int{},
			PaperTypos: p[0], PaperShared: p[1], PaperInvariants: p[2], PaperIndirect: p[3],
		}
	}
	// The 40 scenarios and the five clean-run sweeps are independent
	// cells; run them on the worker pool and aggregate in cell order
	// (see Table1 for the determinism argument).
	scs := table2Scenarios()
	outcomes, err := sched.Map(cfg.Parallel, len(scs), func(i int) (*scenarioOutcome, error) {
		return runScenario(scs[i], trainN, testN, cfg, false)
	})
	if err != nil {
		return nil, err
	}
	res := &Table2Result{Outcomes: outcomes}
	for _, out := range outcomes {
		sc := out.Scenario
		rows[sc.Workload].Planted[sc.Category]++
		res.TotalPlanted++
		if out.HeapMD {
			rows[sc.Workload].Found[sc.Category]++
			res.TotalFound++
		}
	}
	// Clean-run false positives per application.
	fps, err := sched.Map(cfg.Parallel, len(order), func(i int) (int, error) {
		w, err := workloads.Get(order[i])
		if err != nil {
			return 0, err
		}
		_, build, err := train(w, trainN, cfg)
		if err != nil {
			return 0, err
		}
		falsePos := 0
		all := w.Inputs(trainN + testN)
		for _, in := range all[trainN:] {
			rep, _, err := workloads.RunLogged(w, in, workloads.RunConfig{})
			if err != nil {
				return 0, err
			}
			for _, f := range detect.CheckReport(build.Model, rep) {
				if f.Kind == detect.RangeViolation {
					falsePos++
				}
			}
		}
		return falsePos, nil
	})
	if err != nil {
		return nil, err
	}
	for i, name := range order {
		rows[name].FalsePos = fps[i]
		res.Rows = append(res.Rows, *rows[name])
	}
	return res, nil
}

// String prints the census in the paper's Table 2 shape.
func (r *Table2Result) String() string {
	var b strings.Builder
	b.WriteString("Table 2: summary of bugs found by HeapMD\n")
	b.WriteString("(found/planted per category; paper count in parentheses)\n\n")
	fmt.Fprintf(&b, "%-13s %-14s %-14s %-18s %-12s %s\n",
		"Program", "Prog. typos", "Shared state", "DS invariants", "Indirect", "False positives")
	cell := func(row Table2Row, c BugCategory, paper int) string {
		return fmt.Sprintf("%d/%d(%d)", row.Found[c], row.Planted[c], paper)
	}
	totals := [4]int{}
	for _, row := range r.Rows {
		fmt.Fprintf(&b, "%-13s %-14s %-14s %-18s %-12s %d\n", row.Program,
			cell(row, ProgrammingTypo, row.PaperTypos),
			cell(row, SharedState, row.PaperShared),
			cell(row, DataStructInvariant, row.PaperInvariants),
			cell(row, Indirect, row.PaperIndirect),
			row.FalsePos)
		totals[0] += row.Found[ProgrammingTypo]
		totals[1] += row.Found[SharedState]
		totals[2] += row.Found[DataStructInvariant]
		totals[3] += row.Found[Indirect]
	}
	fmt.Fprintf(&b, "%-13s %-14s %-14s %-18s %-12s\n", "Total",
		fmt.Sprintf("%d(11)", totals[0]), fmt.Sprintf("%d(6)", totals[1]),
		fmt.Sprintf("%d(17)", totals[2]), fmt.Sprintf("%d(6)", totals[3]))
	fmt.Fprintf(&b, "\nbugs found: %d of %d planted (paper: 40 found)\n", r.TotalFound, r.TotalPlanted)
	b.WriteString("\nper-scenario outcomes:\n")
	for _, o := range r.Outcomes {
		status := "MISSED"
		if o.HeapMD {
			status = "found via " + o.Metric
		}
		if o.Crashed > 0 {
			status += fmt.Sprintf(" (%d runs crashed)", o.Crashed)
		}
		fmt.Fprintf(&b, "  %-14s %-18s %s\n", o.Scenario.Name, o.Scenario.Category, status)
	}
	return b.String()
}
