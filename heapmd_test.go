package heapmd

import (
	"bytes"
	"testing"

	"heapmd/internal/faults"
)

// buildListProgram is a tiny "program": it maintains a doubly linked
// structure of nodes with forward and back pointers, churning steadily
// so degree metrics stabilize. With breakPrev set, insertions skip the
// back-pointer — the paper's Figure 1 bug.
func buildListProgram(p *Process, breakPrev bool, iters int) {
	leave := p.Enter("main")
	defer leave()

	var nodes []uint64
	push := func() {
		defer p.Enter("push")()
		n := p.AllocWords(3)
		if len(nodes) > 0 {
			prev := nodes[len(nodes)-1]
			p.StoreField(prev, 2, n) // next
			if !breakPrev {
				p.StoreField(n, 1, prev) // prev
			}
		}
		nodes = append(nodes, n)
	}
	pop := func() {
		defer p.Enter("pop")()
		if len(nodes) < 2 {
			return
		}
		last := nodes[len(nodes)-1]
		p.StoreField(nodes[len(nodes)-2], 2, 0)
		p.Free(last)
		nodes = nodes[:len(nodes)-1]
	}
	for i := 0; i < 60; i++ {
		push()
	}
	rng := p.Rand()
	for i := 0; i < iters; i++ {
		if rng.Intn(2) == 0 {
			pop()
			push()
		} else {
			push()
			pop()
		}
	}
	for len(nodes) > 1 {
		pop()
	}
	if len(nodes) == 1 {
		p.Free(nodes[0])
	}
}

func TestEndToEndTrainAndDetect(t *testing.T) {
	sess := NewSession(Options{Frequency: 4})
	for seed := int64(1); seed <= 6; seed++ {
		run := sess.NewRun("listprog", "input", seed)
		buildListProgram(run.Process(), false, 400)
		sess.AddTraining(run)
	}
	mdl, build, err := sess.Build()
	if err != nil {
		t.Fatal(err)
	}
	if build.StableCount() == 0 {
		t.Fatal("no stable metrics on a steady-state list program")
	}

	// Clean held-out run: no findings.
	clean := sess.NewRun("listprog", "clean", 99)
	buildListProgram(clean.Process(), false, 400)
	for _, f := range Check(mdl, clean.Report()) {
		t.Errorf("false positive on clean run: %v", f.Metric)
	}

	// Buggy run: missing prev pointers must violate a range.
	buggy := sess.NewRun("listprog", "buggy", 100)
	buildListProgram(buggy.Process(), true, 400)
	if len(Check(mdl, buggy.Report())) == 0 {
		t.Fatal("missing-prev bug not detected")
	}
}

func TestOnlineDetector(t *testing.T) {
	sess := NewSession(Options{Frequency: 4})
	for seed := int64(1); seed <= 5; seed++ {
		run := sess.NewRun("listprog", "input", seed)
		buildListProgram(run.Process(), false, 400)
		sess.AddTraining(run)
	}
	mdl, _, err := sess.Build()
	if err != nil {
		t.Fatal(err)
	}
	det := NewDetector(mdl)
	run := sess.NewRun("listprog", "buggy", 7)
	run.Observe(det)
	buildListProgram(run.Process(), true, 400)
	det.Finish()
	if len(det.Violations()) == 0 {
		t.Fatal("online detector missed the bug")
	}
	// Online findings should carry call-stack context.
	found := false
	for _, f := range det.Violations() {
		if len(f.Captures) > 0 {
			found = true
		}
	}
	if !found {
		t.Error("no call-stack captures on online detection")
	}
}

func TestModelSaveLoadFacade(t *testing.T) {
	sess := NewSession(Options{Frequency: 4})
	run := sess.NewRun("p", "i", 1)
	buildListProgram(run.Process(), false, 300)
	sess.AddTraining(run)
	mdl, _, err := sess.Build()
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := SaveModel(mdl, &buf); err != nil {
		t.Fatal(err)
	}
	loaded, err := LoadModel(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(loaded.Stable) != len(mdl.Stable) {
		t.Errorf("round trip lost metrics: %d vs %d", len(loaded.Stable), len(mdl.Stable))
	}
}

func TestTraceRoundTripFacade(t *testing.T) {
	sess := NewSession(Options{Frequency: 4})
	run := sess.NewRun("p", "i", 1)
	var buf bytes.Buffer
	closeTrace, err := RecordTrace(run, &buf)
	if err != nil {
		t.Fatal(err)
	}
	buildListProgram(run.Process(), false, 200)
	if err := closeTrace(); err != nil {
		t.Fatal(err)
	}
	live := run.Report()

	replayed, sym, err := ReplayTrace(bytes.NewReader(buf.Bytes()), "p", "i", 4)
	if err != nil {
		t.Fatal(err)
	}
	if sym.Len() == 0 {
		t.Error("symtab lost in trace")
	}
	if len(replayed.Snapshots) != len(live.Snapshots) {
		t.Fatalf("replayed %d snapshots, live %d", len(replayed.Snapshots), len(live.Snapshots))
	}
	for i := range live.Snapshots {
		for j := range live.Snapshots[i].Values {
			if live.Snapshots[i].Values[j] != replayed.Snapshots[i].Values[j] {
				t.Fatalf("metric drift at snapshot %d", i)
			}
		}
	}
}

func TestFaultPlanFacade(t *testing.T) {
	plan := NewFaultPlan().EnableAlways(faults.SmallLeak)
	sess := NewSession(Options{Frequency: 4})
	run := sess.NewFaultyRun("p", "i", 1, plan)
	if !run.Process().Hit(faults.SmallLeak) {
		t.Error("fault plan not threaded into the run's process")
	}
}

// TestParseConnectivity pins the deprecated -connectivity parser the
// benchmark module still calls: every retired spelling resolves to the
// one path there is, whose String is "incremental", and anything else
// is an error.
func TestParseConnectivity(t *testing.T) {
	checkComponentParser(t, "ParseConnectivity", ParseConnectivity)
}

// TestParseSCC is TestParseConnectivity for the deprecated -scc parser.
func TestParseSCC(t *testing.T) {
	checkComponentParser(t, "ParseSCC", ParseSCC)
}

func checkComponentParser(t *testing.T, name string, parse func(string) (ConnectivityMode, error)) {
	t.Helper()
	for _, s := range []string{"snapshot", "incremental", "verify"} {
		m, err := parse(s)
		if err != nil || m.String() != "incremental" {
			t.Errorf("%s(%q) = %v, %v; want incremental", name, s, m, err)
		}
	}
	if _, err := parse("eventual"); err == nil {
		t.Errorf("%s accepted an unknown mode", name)
	}
}
