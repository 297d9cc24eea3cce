package workloads

import (
	"errors"
	"reflect"
	"sync"
	"testing"

	"heapmd/internal/callstack"
	"heapmd/internal/faults"
	"heapmd/internal/logger"
	"heapmd/internal/metrics"
	"heapmd/internal/model"
	"heapmd/internal/prog"
)

func TestRegistry(t *testing.T) {
	names := Names()
	if len(names) != 13 {
		t.Fatalf("registered %d workloads, want 13", len(names))
	}
	// SPEC first, then commercial, each alphabetical.
	wantFirst := []string{"crafty", "gcc", "gzip", "mcf", "parser", "twolf", "vortex", "vpr"}
	for i, n := range wantFirst {
		if names[i] != n {
			t.Fatalf("names[%d] = %s, want %s (full: %v)", i, names[i], n, names)
		}
	}
	if len(Commercials()) != 5 {
		t.Errorf("Commercials = %d, want 5", len(Commercials()))
	}
	if _, err := Get("gzip"); err != nil {
		t.Error(err)
	}
	if _, err := Get("nonesuch"); err == nil {
		t.Error("Get of unknown workload should fail")
	}
}

func TestInputsDeterministic(t *testing.T) {
	w, _ := Get("gzip")
	a := w.Inputs(5)
	b := w.Inputs(5)
	if len(a) != 5 {
		t.Fatalf("inputs = %d", len(a))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("input %d differs across calls: %+v vs %+v", i, a[i], b[i])
		}
	}
	// Distinct workloads must get distinct seeds.
	v, _ := Get("vpr")
	if v.Inputs(1)[0].Seed == a[0].Seed {
		t.Error("different workloads share input seeds")
	}
}

func TestRunsAreDeterministic(t *testing.T) {
	w, _ := Get("parser")
	in := w.Inputs(1)[0]
	r1, _, err := RunLogged(w, in, RunConfig{})
	if err != nil {
		t.Fatal(err)
	}
	r2, _, err := RunLogged(w, in, RunConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if r1.Events != r2.Events || r1.FnEntries != r2.FnEntries {
		t.Fatalf("rerun diverged: %d/%d events, %d/%d entries",
			r1.Events, r2.Events, r1.FnEntries, r2.FnEntries)
	}
	if len(r1.Snapshots) != len(r2.Snapshots) {
		t.Fatalf("snapshot counts differ")
	}
	for i := range r1.Snapshots {
		for j := range r1.Snapshots[i].Values {
			if r1.Snapshots[i].Values[j] != r2.Snapshots[i].Values[j] {
				t.Fatalf("snapshot %d metric %d differs", i, j)
			}
		}
	}
}

// TestEndedRunKeepsEmitting: the process RunLogged returns has ended
// its run. Running the workload on it again, on another goroutine,
// while a new run takes the logger the ended run released, must leave
// the new run's report equal to a clean one; under the race detector
// the two must share nothing.
func TestEndedRunKeepsEmitting(t *testing.T) {
	w, _ := Get("parser")
	in := w.Inputs(2)
	want, _, err := RunLogged(w, in[0], RunConfig{})
	if err != nil {
		t.Fatal(err)
	}
	_, ended, err := RunLogged(w, in[1], RunConfig{})
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		// Whether the re-run crashes does not matter, only where its
		// events go.
		_ = prog.Run(func() { w.Run(ended, in[1], 1) })
	}()
	got, _, err := RunLogged(w, in[0], RunConfig{})
	wg.Wait()
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("a run beside an ended process: %d events, %d snapshots; clean run: %d events, %d snapshots",
			got.Events, len(got.Snapshots), want.Events, len(want.Snapshots))
	}
}

func TestAllWorkloadsRunCleanly(t *testing.T) {
	for _, w := range All() {
		w := w
		t.Run(w.Name(), func(t *testing.T) {
			t.Parallel()
			in := w.Inputs(1)[0]
			rep, p, err := RunLogged(w, in, RunConfig{})
			if err != nil {
				t.Fatalf("run failed: %v", err)
			}
			if len(rep.Snapshots) < 10 {
				t.Errorf("only %d metric samples; workloads must generate enough function entries", len(rep.Snapshots))
			}
			// Fault-free runs must not leak beyond the deliberate
			// caches: heap should be nearly empty after shutdown.
			if live := p.Heap().Live(); live > 5 {
				t.Errorf("clean run left %d live objects", live)
			}
		})
	}
}

// TestStableMetricIdentity reproduces the core of Figure 7(A) at small
// scale: for every benchmark, the metric the paper names must be
// classified globally stable from a handful of training inputs.
func TestStableMetricIdentity(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-run training in -short mode")
	}
	for _, w := range All() {
		w := w
		t.Run(w.Name(), func(t *testing.T) {
			t.Parallel()
			reports, err := Train(w, 5, RunConfig{})
			if err != nil {
				t.Fatal(err)
			}
			res, err := model.Build(reports, model.Defaults())
			if err != nil {
				t.Fatal(err)
			}
			if res.StableCount() < 1 {
				t.Fatalf("no globally stable metrics at all")
			}
			mr := res.Reports[indexOf(reports[0].Suite, w.StableMetric())]
			if mr.Class != model.GloballyStable {
				t.Errorf("designated metric %s classified %s", w.StableMetric(), mr.Class)
			}
		})
	}
}

func indexOf(names []string, want string) int {
	for i, n := range names {
		if n == want {
			return i
		}
	}
	return -1
}

func TestVersionsChangeWorkNotMix(t *testing.T) {
	w, _ := Get("multimedia")
	in := w.Inputs(1)[0]
	r1, _, err := RunLogged(w, in, RunConfig{Version: 1})
	if err != nil {
		t.Fatal(err)
	}
	r5, _, err := RunLogged(w, in, RunConfig{Version: 5})
	if err != nil {
		t.Fatal(err)
	}
	if r5.FnEntries <= r1.FnEntries {
		t.Errorf("version 5 should do more work: %d vs %d entries", r5.FnEntries, r1.FnEntries)
	}
	if r1.Version != 1 || r5.Version != 5 {
		t.Errorf("versions not recorded in reports")
	}
}

func TestFaultPlanThreadsThrough(t *testing.T) {
	w, _ := Get("multimedia")
	in := w.Inputs(1)[0]
	plan := faults.NewPlan().EnableAlways(faults.DListNoPrev)
	_, _, err := RunLogged(w, in, RunConfig{Plan: plan})
	if err != nil {
		t.Fatal(err)
	}
	if plan.Triggers(faults.DListNoPrev) == 0 {
		t.Error("fault site never hit during multimedia run")
	}
}

func TestTypoLeakLeaksObjects(t *testing.T) {
	w, _ := Get("webapp")
	in := w.Inputs(1)[0]
	_, clean, err := RunLogged(w, in, RunConfig{})
	if err != nil {
		t.Fatal(err)
	}
	plan := faults.NewPlan().EnableAlways(faults.TypoLeak)
	_, faulty, err := RunLogged(w, in, RunConfig{Plan: plan})
	if err != nil {
		t.Fatal(err)
	}
	if faulty.Heap().Live() <= clean.Heap().Live() {
		t.Errorf("typo fault should leak: clean=%d faulty=%d live objects",
			clean.Heap().Live(), faulty.Heap().Live())
	}
}

func TestTrainProducesOneReportPerInput(t *testing.T) {
	w, _ := Get("mcf")
	reports, err := Train(w, 3, RunConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if len(reports) != 3 {
		t.Fatalf("reports = %d", len(reports))
	}
	seen := map[string]bool{}
	for _, r := range reports {
		if r.Program != "mcf" {
			t.Errorf("program = %s", r.Program)
		}
		if seen[r.Input] {
			t.Errorf("duplicate input %s", r.Input)
		}
		seen[r.Input] = true
	}
}

func TestObserversAttached(t *testing.T) {
	w, _ := Get("mcf")
	in := w.Inputs(1)[0]
	n := 0
	obs := observerFunc(func() { n++ })
	if _, _, err := RunLogged(w, in, RunConfig{Observers: []logger.SampleObserver{obs}}); err != nil {
		t.Fatal(err)
	}
	if n == 0 {
		t.Error("observer never invoked")
	}
}

type observerFunc func()

func (f observerFunc) Sample(metrics.Snapshot, *callstack.Tracker) { f() }

func TestExtendedSuiteOnWorkload(t *testing.T) {
	// The extension metrics (weakly/strongly connected component
	// counts, paper Section 2.1's "other choices for metrics") run
	// through the same pipeline: sample a workload with the
	// extended suite and check the structure metrics behave.
	w, _ := Get("mcf")
	in := w.Inputs(1)[0]
	rep, _, err := RunLogged(w, in, RunConfig{
		Logger: logger.Options{Suite: metrics.ExtendedSuite(), Frequency: 32},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Suite) != 9 {
		t.Fatalf("suite = %v", rep.Suite)
	}
	wcc := rep.Series(metrics.Components)
	scc := rep.Series(metrics.SCCs)
	if len(wcc) == 0 || len(scc) == 0 {
		t.Fatal("extension metric series missing")
	}
	for i := range wcc {
		// mcf's network hangs off a handful of headers: very few
		// weak components per 100 vertices. Its object graph is
		// cyclic (vertex -> adjacency node -> vertex loops), so the
		// SCC count per 100 vertices sits well below 100 — but a
		// strong decomposition can never be coarser than the weak
		// one.
		if wcc[i] <= 0 || wcc[i] > 50 {
			t.Fatalf("WCC/100v sample %d = %v out of plausible range", i, wcc[i])
		}
		if scc[i] < wcc[i] || scc[i] > 100.5 {
			t.Fatalf("SCC/100v sample %d = %v vs WCC %v: inconsistent", i, scc[i], wcc[i])
		}
	}
}

func TestCrashesSurfaceAsErrors(t *testing.T) {
	// An aggressive shared-free plan on multimedia can cascade into
	// a double free; the harness must return it as an error, never
	// panic. (Whether a particular input crashes is incidental —
	// this asserts the error pathway only.)
	w, _ := Get("multimedia")
	for _, in := range w.Inputs(4) {
		plan := faults.NewPlan().EnableAlways(faults.SharedFree)
		_, _, err := RunLogged(w, in, RunConfig{Plan: plan})
		if err != nil {
			var f *prog.Fault
			if !errors.As(err, &f) {
				t.Fatalf("crash surfaced as %T (%v), want *prog.Fault", err, err)
			}
		}
	}
}
