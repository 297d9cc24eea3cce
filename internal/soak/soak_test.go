package soak

import (
	"bytes"
	"encoding/json"
	"testing"

	"heapmd/internal/faults"
)

// TestSoakShortScoreboard is the CI smoke: the minimum schedule
// (Duration 0) over the full default cell set must reproduce the
// paper's taxonomy exactly — every systemic, indirect and
// poorly-disguised fault detected with finite latency, every
// well-disguised and invisible fault quiet, and not a single false
// positive on the fault-free warmup phases.
func TestSoakShortScoreboard(t *testing.T) {
	sb, err := Run(Options{Seed: 1, Parallel: -1})
	if err != nil {
		t.Fatal(err)
	}
	if got, want := len(sb.Cells), len(DefaultCells()); got != want {
		t.Fatalf("scoreboard has %d cells, want %d", got, want)
	}
	for _, c := range sb.Cells {
		if !c.OK {
			t.Errorf("%s on %s: verdict %s (expect_detect=%v, detected=%v)",
				c.Fault, c.Workload, c.Verdict, c.ExpectDetect, c.Detected)
		}
		if c.ExpectDetect {
			if c.DetectionLatencyTicks < 0 {
				t.Errorf("%s: detected but latency = %d", c.Fault, c.DetectionLatencyTicks)
			}
		} else if c.DetectionLatencyTicks != -1 {
			t.Errorf("%s: quiet cell has latency %d", c.Fault, c.DetectionLatencyTicks)
		}
		if c.Warmup.FalsePositives != 0 {
			t.Errorf("%s: %d warmup false positives", c.Fault, c.Warmup.FalsePositives)
		}
		if c.Warmup.Iterations < 2 || c.FaultWindow.Iterations < 3 || c.Recovery.Iterations < 2 {
			t.Errorf("%s: schedule %d/%d/%d below minimums", c.Fault,
				c.Warmup.Iterations, c.FaultWindow.Iterations, c.Recovery.Iterations)
		}
	}
	// Spot-check the taxonomy anchors by name.
	verdicts := map[string]string{}
	for _, c := range sb.Cells {
		verdicts[c.Fault] = c.Verdict
	}
	for _, f := range []string{faults.DListNoPrev, faults.TypoLeak, faults.FragStorm,
		faults.LeakPlateau, faults.ABARewire, faults.AllocCascade} {
		if verdicts[f] != "detected" {
			t.Errorf("%s: verdict %q, want detected", f, verdicts[f])
		}
	}
	for _, f := range []string{faults.SmallLeak, faults.ReachableLeak, faults.SlowDrift} {
		if verdicts[f] != "quiet" {
			t.Errorf("%s: verdict %q, want quiet", f, verdicts[f])
		}
	}
	if !sb.OK() {
		t.Errorf("scoreboard not OK: %+v", sb.Summary)
	}
	if sb.Summary.OK != len(sb.Cells) {
		t.Errorf("summary OK=%d, want %d", sb.Summary.OK, len(sb.Cells))
	}

	// The scoreboard must round-trip as JSON.
	var buf bytes.Buffer
	if err := sb.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var back Scoreboard
	if err := json.Unmarshal(buf.Bytes(), &back); err != nil {
		t.Fatalf("scoreboard JSON does not round-trip: %v", err)
	}
	if back.Summary != sb.Summary {
		t.Errorf("summary changed across JSON round-trip: %+v vs %+v", back.Summary, sb.Summary)
	}
}

// TestSoakHealthBasedDetection: a fault whose only footprint is in
// the instrumentation-health counters (ABARewire's wild stores) must
// be expected and detected through the wild-store counter.
func TestSoakHealthBasedDetection(t *testing.T) {
	sb, err := Run(Options{Seed: 1, Faults: []string{faults.ABARewire}})
	if err != nil {
		t.Fatal(err)
	}
	if len(sb.Cells) != 1 {
		t.Fatalf("got %d cells, want 1", len(sb.Cells))
	}
	c := sb.Cells[0]
	if !c.ExpectDetect || c.Verdict != "detected" {
		t.Errorf("expect=%v verdict=%s, want detected", c.ExpectDetect, c.Verdict)
	}
	if c.DetectedKind != "instrumentation-anomaly" || c.DetectedMetric != "wild-stores" {
		t.Errorf("detected via %s/%s, want instrumentation-anomaly/wild-stores",
			c.DetectedKind, c.DetectedMetric)
	}
	if c.Health.WildStores == 0 {
		t.Error("ABARewire produced no wild stores")
	}
}

// TestSoakDeterministic: equal options must produce byte-identical
// scoreboards — the property CI assertions and bisection depend on.
func TestSoakDeterministic(t *testing.T) {
	opts := Options{Seed: 3, Faults: []string{faults.DListNoPrev}}
	var runs [2]bytes.Buffer
	for i := range runs {
		sb, err := Run(opts)
		if err != nil {
			t.Fatal(err)
		}
		if err := sb.WriteJSON(&runs[i]); err != nil {
			t.Fatal(err)
		}
	}
	if !bytes.Equal(runs[0].Bytes(), runs[1].Bytes()) {
		t.Error("same options produced different scoreboards")
	}
}

func TestSelectCells(t *testing.T) {
	all, err := selectCells(nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(all) != len(faults.Catalog()) {
		t.Errorf("default cells = %d, want one per catalog entry (%d)",
			len(all), len(faults.Catalog()))
	}
	for _, c := range all {
		if _, ok := faults.Lookup(c.Fault); !ok {
			t.Errorf("cell fault %q not in catalog", c.Fault)
		}
	}
	two, err := selectCells([]string{faults.FragStorm, faults.TypoLeak})
	if err != nil {
		t.Fatal(err)
	}
	if len(two) != 2 || two[0].Fault != faults.TypoLeak || two[1].Fault != faults.FragStorm {
		t.Errorf("filtered cells = %+v, want typo then frag-storm in catalog order", two)
	}
	if _, err := selectCells([]string{"bogus"}); err == nil {
		t.Error("unknown fault name accepted")
	}
}

func TestVerdictOf(t *testing.T) {
	cases := []struct {
		expect, detected bool
		verdict          string
		ok               bool
	}{
		{true, true, "detected", true},
		{true, false, "missed", false},
		{false, true, "false-alarm", false},
		{false, false, "quiet", true},
	}
	for _, c := range cases {
		v, ok := verdictOf(c.expect, c.detected)
		if v != c.verdict || ok != c.ok {
			t.Errorf("verdictOf(%v, %v) = %s, %v; want %s, %v",
				c.expect, c.detected, v, ok, c.verdict, c.ok)
		}
	}
}
