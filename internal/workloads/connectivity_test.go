package workloads

import (
	"bytes"
	"encoding/json"
	"reflect"
	"testing"

	"heapmd/internal/callstack"
	"heapmd/internal/detect"
	"heapmd/internal/faults"
	"heapmd/internal/heapgraph"
	"heapmd/internal/logger"
	"heapmd/internal/metrics"
	"heapmd/internal/model"
	"heapmd/internal/prog"
)

// componentOracle diffs the logger's incremental component trackers
// against the reference walks at every metric point. It records the
// first disagreement instead of panicking: the logger quarantines a
// panicking observer.
type componentOracle struct {
	g       *heapgraph.Graph
	points  int
	failure string
}

func (o *componentOracle) Sample(metrics.Snapshot, *callstack.Tracker) {
	o.points++
	if o.failure == "" {
		o.failure = o.g.CheckComponents()
	}
}

// runWithOracle is RunLogged with the component oracle observing the
// logger: one run of w on in under suite. It fails the test on the
// first tracker divergence.
func runWithOracle(t *testing.T, w Workload, in Input, suite metrics.Suite, plan *faults.Plan) *logger.Report {
	t.Helper()
	p := prog.NewProcess(prog.Options{Seed: in.Seed, Plan: plan})
	l := logger.New(logger.Options{Frequency: DefaultFrequency, Suite: suite})
	l.SetRun(w.Name(), in.Name, 1)
	oracle := &componentOracle{g: l.Graph()}
	l.Observe(oracle)
	p.Subscribe(l)
	if err := prog.Run(func() { w.Run(p, in, 1) }); err != nil {
		t.Fatalf("%s: %v", w.Name(), err)
	}
	if oracle.failure != "" {
		t.Fatalf("%s: %s", w.Name(), oracle.failure)
	}
	if oracle.points == 0 {
		t.Fatalf("%s: no metric points", w.Name())
	}
	return l.Report()
}

// runPlain is one production run (no oracle).
func runPlain(t *testing.T, w Workload, in Input, suite metrics.Suite, plan *faults.Plan) *logger.Report {
	t.Helper()
	rep, _, err := RunLogged(w, in, RunConfig{Plan: plan, Logger: logger.Options{Suite: suite}})
	if err != nil {
		t.Fatalf("%s: %v", w.Name(), err)
	}
	return rep
}

func mustJSON(t *testing.T, rep *logger.Report) []byte {
	t.Helper()
	buf, err := json.Marshal(rep)
	if err != nil {
		t.Fatal(err)
	}
	return buf
}

// checkOracleReports runs every workload under suite with the oracle
// and requires the report to be byte-identical to the production
// run's.
func checkOracleReports(t *testing.T, suite metrics.Suite) {
	for _, w := range All() {
		w := w
		t.Run(w.Name(), func(t *testing.T) {
			t.Parallel()
			in := w.Inputs(1)[0]
			base := mustJSON(t, runPlain(t, w, in, suite, nil))
			got := mustJSON(t, runWithOracle(t, w, in, suite, nil))
			if !bytes.Equal(base, got) {
				t.Fatalf("report under the oracle differs from the production run:\nproduction: %s\ngot:        %s",
					base, got)
			}
		})
	}
}

// TestConnectivityModesByteIdenticalReports is the weak-connectivity
// oracle sweep over all 13 workloads' allocation patterns: with only
// the WCC tracker on (the degree suite plus Components), the tracker
// must agree with the reference walk at every metric point without
// changing a byte of the report.
func TestConnectivityModesByteIdenticalReports(t *testing.T) {
	ids := append(append([]metrics.ID(nil), metrics.DefaultSuite().IDs()...), metrics.Components)
	checkOracleReports(t, metrics.NewSuite(ids...))
}

// TestSCCModesByteIdenticalReports is the same sweep for the full
// extended suite, both trackers on.
func TestSCCModesByteIdenticalReports(t *testing.T) {
	checkOracleReports(t, metrics.ExtendedSuite())
}

// checkFindingsUnderOracle closes the loop through the detector: a
// model trained on production extended-suite reports must yield the
// same findings for a faulty run whether it ran on the production path
// or under the oracle.
func checkFindingsUnderOracle(t *testing.T, suite metrics.Suite) {
	w, _ := Get("webapp")
	training, err := Train(w, 4, RunConfig{Logger: logger.Options{Suite: suite}})
	if err != nil {
		t.Fatal(err)
	}
	built, err := model.Build(training, model.Thresholds{})
	if err != nil {
		t.Fatal(err)
	}
	in := w.Inputs(2)[1]
	plan := func() *faults.Plan { return faults.NewPlan().EnableAlways(faults.TypoLeak) }
	want := detect.CheckReport(built.Model, runPlain(t, w, in, suite, plan()), detect.Options{})
	got := detect.CheckReport(built.Model, runWithOracle(t, w, in, suite, plan()), detect.Options{})
	if !reflect.DeepEqual(want, got) {
		t.Fatalf("findings under the oracle differ:\nproduction: %v\noracle:     %v", want, got)
	}
}

// TestConnectivityModesIdenticalFindings runs the findings check with
// the WCC tracker alone.
func TestConnectivityModesIdenticalFindings(t *testing.T) {
	ids := append(append([]metrics.ID(nil), metrics.DefaultSuite().IDs()...), metrics.Components)
	checkFindingsUnderOracle(t, metrics.NewSuite(ids...))
}

// TestSCCModesIdenticalFindings runs the findings check with both
// trackers.
func TestSCCModesIdenticalFindings(t *testing.T) {
	checkFindingsUnderOracle(t, metrics.ExtendedSuite())
}
