package heapmd

import (
	"bytes"
	"testing"

	"heapmd/internal/faults"
	"heapmd/internal/model"
	"heapmd/internal/trace"
)

// TestFillThresholdsZeroValue checks that a session given no thresholds
// builds its model with the paper defaults in every field.
func TestFillThresholdsZeroValue(t *testing.T) {
	sess := NewSession(Options{Frequency: 4})
	run := sess.NewRun("p", "i", 1)
	buildListProgram(run.Process(), false, 300)
	sess.AddTraining(run)
	mdl, _, err := sess.Build()
	if err != nil {
		t.Fatal(err)
	}
	if got := mdl.Thresholds; got != DefaultThresholds() {
		t.Errorf("zero thresholds = %+v, want paper defaults %+v", got, DefaultThresholds())
	}
}

func TestSessionBuildKeepsPartialThresholds(t *testing.T) {
	sess := NewSession(Options{Frequency: 4, Thresholds: Thresholds{TrimFrac: 0.2}})
	run := sess.NewRun("p", "i", 1)
	buildListProgram(run.Process(), false, 300)
	sess.AddTraining(run)
	mdl, _, err := sess.Build()
	if err != nil {
		t.Fatal(err)
	}
	if mdl.Thresholds.TrimFrac != 0.2 {
		t.Errorf("TrimFrac override lost: %v", mdl.Thresholds.TrimFrac)
	}
	if mdl.Thresholds.MaxAvgChange != model.Defaults().MaxAvgChange {
		t.Errorf("MaxAvgChange not defaulted: %v", mdl.Thresholds.MaxAvgChange)
	}
}

// recordListTrace records a run of buildListProgram and returns the
// trace bytes: about 13k events, four trace frames.
func recordListTrace(t *testing.T) []byte {
	t.Helper()
	sess := NewSession(Options{Frequency: 4})
	run := sess.NewRun("p", "i", 1)
	var buf bytes.Buffer
	closeTrace, err := RecordTrace(run, &buf)
	if err != nil {
		t.Fatal(err)
	}
	buildListProgram(run.Process(), false, 1400)
	if err := closeTrace(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func TestReplayTruncatedTraceSalvage(t *testing.T) {
	data := recordListTrace(t)
	cut := data[:len(data)-len(data)/3] // lose the tail, trailer included

	// Strict replay must refuse the damaged trace.
	if _, _, _, err := ReplayTraceWith(bytes.NewReader(cut), "p", "i", ReplayOptions{}); err == nil {
		t.Fatal("strict replay accepted a truncated trace")
	}

	rep, sym, info, err := ReplayTraceWith(bytes.NewReader(cut), "p", "i", ReplayOptions{Salvage: true})
	if err != nil {
		t.Fatalf("salvage failed: %v", err)
	}
	if !info.Salvaged() {
		t.Fatalf("truncated trace reported clean: %v", info)
	}
	if info.BytesDropped == 0 || !info.Truncated {
		t.Errorf("salvage info = %v", info)
	}
	// The cut keeps two thirds of the trace: whole frames survive it.
	if info.EventsRecovered < 2*trace.DefaultBatchRecords {
		t.Errorf("salvage recovered %d events, want at least two frames (%d)",
			info.EventsRecovered, 2*trace.DefaultBatchRecords)
	}
	if rep.Events != info.EventsRecovered || len(rep.Snapshots) == 0 {
		t.Errorf("salvaged report holds %d events and %d snapshots, want %d events and some snapshots",
			rep.Events, len(rep.Snapshots), info.EventsRecovered)
	}
	if sym == nil {
		t.Fatal("salvage returned nil symtab")
	}
	if rep.Health.SalvagedGaps != 1 || rep.Health.SalvagedBytes != info.BytesDropped {
		t.Errorf("salvage not accounted in report health: %+v", rep.Health)
	}
}

func TestReplayCleanTraceHealthClean(t *testing.T) {
	data := recordListTrace(t)
	rep, _, info, err := ReplayTraceWith(bytes.NewReader(data), "p", "i", ReplayOptions{Salvage: true})
	if err != nil {
		t.Fatal(err)
	}
	if info.Salvaged() {
		t.Errorf("clean trace reported salvaged: %v", info)
	}
	if !rep.Health.Zero() {
		t.Errorf("clean replay dirtied health: %+v", rep.Health)
	}
}

// sharedFreeProgram reproduces the paper's Figure 12 shape at the
// facade level: a circular structure shares its head with another
// list; the buggy path frees the head while the tail still points at
// it, and the subsequent write through the stale pointer lands in
// freed memory.
func sharedFreeProgram(p *Process) {
	defer p.Enter("main")()
	head := p.AllocWords(2)
	tail := p.AllocWords(2)
	p.StoreField(tail, 1, head) // tail.next = head (shared)
	stale := head
	if p.Hit(faults.SharedFree) {
		p.Free(head) // bug: head is still reachable from tail
	}
	p.StoreField(stale, 0, 7) // write through tail.next
	p.Free(tail)
	if !p.Hit(faults.SharedFree) {
		p.Free(head)
	}
}

func TestSharedFreeDanglingStoreInHealth(t *testing.T) {
	plan := NewFaultPlan().EnableAlways(faults.SharedFree)
	sess := NewSession(Options{Frequency: 4})

	buggy := sess.NewFaultyRun("p", "buggy", 1, plan)
	sharedFreeProgram(buggy.Process())
	rep := buggy.Report()
	if rep.Health.WildStores == 0 {
		t.Fatalf("dangling store did not surface as a wild store: %+v", rep.Health)
	}

	clean := sess.NewRun("p", "clean", 1)
	sharedFreeProgram(clean.Process())
	if h := clean.Report().Health; !h.Zero() {
		t.Errorf("clean run dirtied health: %+v", h)
	}
}
