package experiments

// Integration test for the paper's second usage mode (Section 2):
// record an execution trace online, compare it against the model
// offline. The offline verdict must agree exactly with checking the
// live report.

import (
	"bytes"
	"testing"

	"heapmd/internal/detect"
	"heapmd/internal/event"
	"heapmd/internal/faults"
	"heapmd/internal/logger"
	"heapmd/internal/trace"
	"heapmd/internal/workloads"
)

func TestPostMortemAgreesWithLive(t *testing.T) {
	w, err := workloads.Get("productivity")
	if err != nil {
		t.Fatal(err)
	}
	_, build, err := train(w, 8, quick)
	if err != nil {
		t.Fatal(err)
	}

	testIn := w.Inputs(9)[8]
	for _, buggy := range []bool{false, true} {
		var plan *faults.Plan
		if buggy {
			plan = faults.NewPlan().EnableAlways(faults.DListNoPrev)
		}
		// Live run with a trace recorder attached.
		var buf bytes.Buffer
		tw, err := trace.NewWriterWith(&buf, trace.WriterOptions{})
		if err != nil {
			t.Fatal(err)
		}
		liveRep, p, err := workloads.RunLogged(w, testIn, workloads.RunConfig{
			Plan:       plan,
			ExtraSinks: []event.Sink{tw},
		})
		if err != nil {
			t.Fatal(err)
		}
		if err := tw.Close(p.Sym()); err != nil {
			t.Fatal(err)
		}

		// Post-mortem: replay the trace into a fresh logger.
		replay := logger.New(logger.Options{Frequency: workloads.DefaultFrequency})
		replay.SetRun(w.Name(), testIn.Name, 1)
		if _, _, err := trace.Replay(bytes.NewReader(buf.Bytes()), replay); err != nil {
			t.Fatal(err)
		}
		replayRep := replay.Report()

		liveFindings := detect.CheckReport(build.Model, liveRep, detect.Options{})
		replayFindings := detect.CheckReport(build.Model, replayRep, detect.Options{})
		if len(liveFindings) != len(replayFindings) {
			t.Fatalf("buggy=%v: live %d findings, post-mortem %d",
				buggy, len(liveFindings), len(replayFindings))
		}
		for i := range liveFindings {
			lf, rf := liveFindings[i], replayFindings[i]
			if lf.Metric != rf.Metric || lf.Direction != rf.Direction || lf.Tick != rf.Tick {
				t.Errorf("buggy=%v: finding %d diverges: live %+v vs replay %+v",
					buggy, i, lf, rf)
			}
		}
		if buggy && len(liveFindings) == 0 {
			t.Error("buggy run produced no findings at all")
		}
		if !buggy && len(liveFindings) != 0 {
			t.Errorf("clean run produced findings: %+v", liveFindings[0])
		}
	}
}
