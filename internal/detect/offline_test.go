package detect

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"heapmd/internal/logger"
	"heapmd/internal/metrics"
	"heapmd/internal/model"
	"heapmd/internal/stats"
)

// sampledFindings is the reference for CheckReport: a detector that
// keeps its own series, fed the report's trimmed snapshots through
// Sample, then finished and checked as CheckReport does.
func sampledFindings(mdl *model.Model, rep *logger.Report) []*Finding {
	suite, err := suiteOf(rep)
	if err != nil {
		return nil
	}
	lo, hi := stats.TrimBounds(len(rep.Snapshots), mdl.Thresholds.TrimFrac)
	d := newDetector(mdl, suite, 0)
	for _, snap := range rep.Snapshots[lo:hi] {
		d.Sample(snap, nil)
	}
	d.Finish()
	d.CheckUnstable(rep)
	d.CheckHealth(rep.Health)
	return d.Findings()
}

// TestCheckReportMatchesSampledDetector: CheckReport, which reads the
// run-level checks' series from the report, finds exactly what a
// detector that copies every sample's values finds. The reports mix
// in-band noise, excursions, runs pinned at a calibrated extreme and
// flat unstable metrics; some are shorter than MinSamples after the
// trim, and some hold narrow (v1-width) snapshots that lack the
// extension metric.
func TestCheckReportMatchesSampledDetector(t *testing.T) {
	mdl := testModel()
	mdl.Stable[metrics.Components.String()] = stats.Range{Min: 5, Max: 6}
	mdl.Classes[metrics.Components.String()] = model.GloballyStable.String()
	mdl.Classes[metrics.InDeg1.String()] = model.Unstable.String()
	suite := metrics.NewSuite(metrics.Roots, metrics.Leaves, metrics.InDeg1, metrics.Components)
	names := make([]string, suite.Len())
	for i, id := range suite.IDs() {
		names[i] = id.String()
	}
	rng := rand.New(rand.NewSource(1))
	kinds := map[Kind]int{}
	for _, n := range []int{0, 1, 2, 3, 4, 5, 9, 24, 25, 60, 400} {
		for _, narrowFrac := range []float64{0, 0.3, 1} {
			for _, shape := range []string{"noise", "excursion", "pinned", "flat"} {
				rep := &logger.Report{Program: "prog", Input: shape, Suite: names}
				for i := 0; i < n; i++ {
					roots, leaves, indeg1, wcc := 10+10*rng.Float64(), 100*rng.Float64(), 100*rng.Float64(), 5+rng.Float64()
					switch shape {
					case "excursion":
						if rng.Intn(8) == 0 {
							roots = 25
						}
						if rng.Intn(8) == 0 {
							wcc = 4
						}
					case "pinned":
						roots, wcc = 19.5+0.5*rng.Float64(), 6
					case "flat":
						leaves, indeg1 = 42, 7
					}
					vals := []float64{roots, leaves, indeg1, wcc}
					if rng.Float64() < narrowFrac {
						vals = vals[:2] // recorded with a two-metric suite
					}
					rep.Snapshots = append(rep.Snapshots, metrics.Snapshot{Tick: uint64(i + 1), Values: vals})
				}
				got, want := CheckReport(mdl, rep), sampledFindings(mdl, rep)
				name := fmt.Sprintf("n=%d/narrow=%v/%s", n, narrowFrac, shape)
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("%s: CheckReport findings differ from a sampling detector's:\n got %s\nwant %s", name, describeAll(got), describeAll(want))
				}
				for _, f := range got {
					kinds[f.Kind]++
				}
			}
		}
	}
	for _, k := range []Kind{RangeViolation, ExtremeStability, UnexpectedStability} {
		if kinds[k] == 0 {
			t.Errorf("no case raised a %s finding; the comparison does not cover it", k)
		}
	}
}

func describeAll(fs []*Finding) string {
	s := ""
	for _, f := range fs {
		s += fmt.Sprintf("\n  %s", f.Describe(nil))
	}
	return s
}
