package soak

import (
	"encoding/json"
	"fmt"
	"io"

	"heapmd/internal/faults"
	"heapmd/internal/health"
)

// Cell pairs one catalog fault with the workload and configuration
// the soak harness drives it through. Every cell soaks independently:
// it trains (or reuses) a clean model for its workload, then runs the
// warmup → fault window → recovery schedule against it.
type Cell struct {
	Fault    string
	Workload string
	Config   faults.Config
}

// DefaultCells pairs every catalog entry with a workload whose
// structures exercise the fault's code site (the pairings proven by
// the Table 1/2 experiments, extended to the new catalog entries), in
// catalog order.
func DefaultCells() []Cell {
	return []Cell{
		{faults.DListNoPrev, "webapp", faults.Always()},
		{faults.TypoLeak, "multimedia", faults.Always()},
		{faults.SharedFree, "multimedia", faults.Always()},
		{faults.TreeNoParent, "game_action", faults.Always()},
		{faults.OctDAG, "game_action", faults.Always()},
		{faults.BadHash, "webapp", faults.Always()},
		{faults.SingleChild, "game_action", faults.Always()},
		{faults.AtypicalGraph, "game_sim", faults.Always()},
		{faults.SmallLeak, "multimedia", faults.Config{MaxTriggers: 2}},
		{faults.ReachableLeak, "multimedia", faults.Config{MaxTriggers: 4}},
		{faults.FragStorm, "multimedia", faults.ProbOf(0.25)},
		{faults.LeakPlateau, "webapp", faults.Config{MaxTriggers: 160}},
		{faults.ABARewire, "webapp", faults.Always()},
		{faults.AllocCascade, "webapp", faults.Always()},
		{faults.SlowDrift, "multimedia", faults.ProbOf(0.08)},
	}
}

// selectCells resolves an optional fault-name filter against the
// default cell set, preserving catalog order.
func selectCells(names []string) ([]Cell, error) {
	all := DefaultCells()
	if len(names) == 0 {
		return all, nil
	}
	byFault := make(map[string]Cell, len(all))
	for _, c := range all {
		byFault[c.Fault] = c
	}
	want := make(map[string]bool, len(names))
	for _, n := range names {
		if _, ok := byFault[n]; !ok {
			return nil, fmt.Errorf("soak: unknown fault %q (see 'heapmd faults')", n)
		}
		want[n] = true
	}
	var out []Cell
	for _, c := range all {
		if want[c.Fault] {
			out = append(out, c)
		}
	}
	return out, nil
}

// PhaseStats accounts one phase of a cell's schedule.
type PhaseStats struct {
	// Iterations is the number of complete workload runs in the phase.
	Iterations int `json:"iterations"`
	// Ticks is the total metric computation points observed.
	Ticks uint64 `json:"ticks"`
	// Findings counts detection-signal findings (range violations,
	// extreme stability and instrumentation anomalies) across the
	// phase's iterations.
	Findings int `json:"findings"`
	// FalsePositives equals Findings for fault-free phases (warmup,
	// recovery), where any signal is spurious; it is zero for the
	// fault window.
	FalsePositives int `json:"false_positives"`
	// Crashes counts iterations aborted by simulator faults (dangling
	// frees do occasionally crash, as in the paper).
	Crashes int `json:"crashes"`
}

// CellResult is one row of the scoreboard.
type CellResult struct {
	Fault     string `json:"fault"`
	Workload  string `json:"workload"`
	Class     string `json:"class"`
	Mechanism string `json:"mechanism"`
	// ExpectDetect is the taxonomy verdict the cell is scored
	// against.
	ExpectDetect bool `json:"expect_detect"`
	// Detected reports whether any fault-window iteration produced a
	// detection signal.
	Detected bool `json:"detected"`
	// Verdict is "detected", "missed", "quiet" or "false-alarm";
	// OK marks the two verdicts that match the taxonomy.
	Verdict string `json:"verdict"`
	OK      bool   `json:"ok"`
	// DetectionLatencyTicks is the distance in metric computation
	// points from the first fault trigger to the first finding
	// (cumulative across fault-window iterations); -1 when not
	// detected.
	DetectionLatencyTicks int64 `json:"detection_latency_ticks"`
	// DetectedKind/DetectedMetric identify the first signal.
	DetectedKind   string `json:"detected_kind,omitempty"`
	DetectedMetric string `json:"detected_metric,omitempty"`
	// Triggers is the total number of fault firings across the fault
	// window.
	Triggers int `json:"triggers"`

	Warmup      PhaseStats `json:"warmup"`
	FaultWindow PhaseStats `json:"fault_window"`
	Recovery    PhaseStats `json:"recovery"`

	// Health aggregates the instrumentation-health counters of every
	// iteration in the cell.
	Health health.Counters `json:"health"`
}

// Summary aggregates the scoreboard.
type Summary struct {
	Cells       int `json:"cells"`
	OK          int `json:"ok"`
	Missed      int `json:"missed"`
	FalseAlarms int `json:"false_alarms"`
	// WarmupFalsePositives and RecoveryFalsePositives sum the
	// fault-free phases' spurious findings across all cells; the
	// acceptance bar is zero on warmup.
	WarmupFalsePositives   int `json:"warmup_false_positives"`
	RecoveryFalsePositives int `json:"recovery_false_positives"`
	Crashes                int `json:"crashes"`
}

// Scoreboard is the soak run's machine-readable result.
type Scoreboard struct {
	Seed        int64        `json:"seed"`
	Duration    string       `json:"duration"`
	TrainInputs int          `json:"train_inputs"`
	Cells       []CellResult `json:"cells"`
	Summary     Summary      `json:"summary"`
}

// OK reports whether every cell's verdict matched the taxonomy and
// the fault-free warmup phases stayed silent.
func (s *Scoreboard) OK() bool {
	return s.Summary.Missed == 0 && s.Summary.FalseAlarms == 0 &&
		s.Summary.WarmupFalsePositives == 0
}

// WriteJSON renders the scoreboard as indented JSON.
func (s *Scoreboard) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(s)
}

func (s *Scoreboard) summarize() {
	var sum Summary
	sum.Cells = len(s.Cells)
	for _, c := range s.Cells {
		if c.OK {
			sum.OK++
		}
		switch c.Verdict {
		case "missed":
			sum.Missed++
		case "false-alarm":
			sum.FalseAlarms++
		}
		sum.WarmupFalsePositives += c.Warmup.FalsePositives
		sum.RecoveryFalsePositives += c.Recovery.FalsePositives
		sum.Crashes += c.Warmup.Crashes + c.FaultWindow.Crashes + c.Recovery.Crashes
	}
	s.Summary = sum
}

func verdictOf(expect, detected bool) (string, bool) {
	switch {
	case expect && detected:
		return "detected", true
	case expect && !detected:
		return "missed", false
	case !expect && detected:
		return "false-alarm", false
	default:
		return "quiet", true
	}
}
