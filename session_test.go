package heapmd

import (
	"bytes"
	"encoding/json"
	"fmt"
	"runtime"
	"slices"
	"sync"
	"testing"

	"heapmd/internal/event"
	"heapmd/internal/prog"
	"heapmd/internal/workloads"
)

// TestRunReportEndsRun: the first Report ends the run. A second call
// returns the same report, and the buggy program the process runs
// afterwards changes nothing: not the report, and not a detector
// attached after the end, which the same bug trips on a live run.
func TestRunReportEndsRun(t *testing.T) {
	mdl := trainListModel(t)
	sess := NewSession(Options{Frequency: 4})
	live := sess.NewRun("listprog", "live", 7)
	liveDet := NewDetector(mdl)
	live.Observe(liveDet)
	buildListProgram(live.Process(), true, 400)
	live.Report()
	liveDet.Finish()
	if len(liveDet.Violations()) == 0 {
		t.Fatal("the detector missed the bug on a live run")
	}

	run := sess.NewRun("listprog", "ended", 7)
	buildListProgram(run.Process(), false, 400)
	rep := run.Report()
	want, err := json.Marshal(rep)
	if err != nil {
		t.Fatal(err)
	}
	det := NewDetector(mdl)
	run.Observe(det)
	buildListProgram(run.Process(), true, 400)
	if again := run.Report(); again != rep {
		t.Fatal("second Report returned a different report")
	}
	got, err := json.Marshal(rep)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("events after Report changed the report:\n got %s\nwant %s", got, want)
	}
	det.Finish()
	if v := det.Violations(); len(v) != 0 {
		t.Fatalf("a detector attached after the end saw samples: %d violations", len(v))
	}
}

// TestEndedRunKeepsEmitting: a run that has ended keeps running its
// program on another goroutine while the logger it released serves a
// new run. The new run's report must equal a clean one, and under the
// race detector the two must share nothing.
func TestEndedRunKeepsEmitting(t *testing.T) {
	sess := NewSession(Options{Frequency: 4})
	clean := sess.NewRun("listprog", "clean", 11)
	buildListProgram(clean.Process(), false, 400)
	want := clean.Report()

	old := sess.NewRun("listprog", "old", 3)
	buildListProgram(old.Process(), true, 200)
	released := old.log
	old.Report()

	run := sess.NewRun("listprog", "clean", 11)
	if run.log != released {
		t.Fatal("the new run did not take the logger the ended run released")
	}
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		buildListProgram(old.Process(), true, 400)
	}()
	buildListProgram(run.Process(), false, 400)
	wg.Wait()
	diffFacadeReports(t, "run on a released logger", run.Report(), want)
}

// TestTrainManyParallelReuse trains the same inputs three times at
// parallel 2, so later rounds run on loggers the earlier rounds
// released, and checks every round's reports against a serial loop
// of fresh sessions. Run it with -race.
func TestTrainManyParallelReuse(t *testing.T) {
	inputs := []TrainingInput{{"a", 1}, {"b", 2}, {"c", 3}, {"d", 4}, {"e", 5}}
	body := func(run *Run, in TrainingInput) error {
		buildListProgram(run.Process(), in.Seed%2 == 0, 150+int(in.Seed)*40)
		return nil
	}
	var want []*Report
	for _, in := range inputs {
		run := NewSession(Options{Frequency: 4}).NewRun("listprog", in.Name, in.Seed)
		if err := body(run, in); err != nil {
			t.Fatal(err)
		}
		want = append(want, run.Report())
	}
	for round := 0; round < 3; round++ {
		sess := NewSession(Options{Frequency: 4})
		if err := sess.TrainMany("listprog", inputs, 2, body); err != nil {
			t.Fatal(err)
		}
		for i, rep := range sess.reports {
			diffFacadeReports(t, fmt.Sprintf("round %d input %s", round, inputs[i].Name), rep, want[i])
		}
	}
}

// trainListModel builds a model from clean list-program runs.
func trainListModel(t *testing.T) *Model {
	t.Helper()
	sess := NewSession(Options{Frequency: 4})
	for seed := int64(1); seed <= 5; seed++ {
		run := sess.NewRun("listprog", "input", seed)
		buildListProgram(run.Process(), false, 400)
		sess.AddTraining(run)
	}
	m, _, err := sess.Build()
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// sessionBytesPerEventBudget bounds what a warm Session run of the
// parser workload allocates per event beyond the same program run bare:
// the report's snapshots and little else. Measured on a 2-vCPU x86-64
// VM (Go 1.24), 32730 events per run: 1.4 B/event when each run reuses
// the heap image the one before it released, 21.6 B/event when every
// run built its logger from nothing.
const sessionBytesPerEventBudget = 3

// TestSessionRunAllocsPerEvent is the session-run alloc gate. It takes
// the median of nine runs each way, which sheds the runtime's
// occasional allocations.
func TestSessionRunAllocsPerEvent(t *testing.T) {
	w, err := workloads.Get("parser")
	if err != nil {
		t.Fatal(err)
	}
	in := w.Inputs(1)[0]
	var events uint64
	p := prog.NewProcess(prog.Options{Seed: in.Seed})
	p.Subscribe(event.SinkFunc(func(event.Event) { events++ }))
	w.Run(p, in, 1)
	sess := NewSession(Options{})
	session := func() {
		run := sess.NewRun(w.Name(), in.Name, in.Seed)
		w.Run(run.Process(), in, 1)
		run.Report()
	}
	bare := func() { w.Run(prog.NewProcess(prog.Options{Seed: in.Seed}), in, 1) }
	medianBytes := func(f func()) uint64 {
		const reps = 9
		per := make([]uint64, reps)
		var before, after runtime.MemStats
		for i := range per {
			runtime.ReadMemStats(&before)
			f()
			runtime.ReadMemStats(&after)
			per[i] = after.TotalAlloc - before.TotalAlloc
		}
		slices.Sort(per)
		return per[reps/2]
	}
	session() // warm: the first run builds the heap image the others reuse
	runtime.GC()
	sessionBytes, bareBytes := medianBytes(session), medianBytes(bare)
	extra := (float64(sessionBytes) - float64(bareBytes)) / float64(events)
	t.Logf("%d events: session run %.1f B/event, bare %.1f B/event, %.2f B/event beyond bare (budget %d)",
		events, float64(sessionBytes)/float64(events), float64(bareBytes)/float64(events),
		extra, sessionBytesPerEventBudget)
	if extra > sessionBytesPerEventBudget {
		t.Errorf("a warm session run allocates %.2f B per event beyond the bare program; budget %d",
			extra, sessionBytesPerEventBudget)
	}
}
