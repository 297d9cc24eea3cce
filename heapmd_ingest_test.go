package heapmd

import (
	"bytes"
	"encoding/json"
	"fmt"
	"runtime"
	"slices"
	"testing"

	"heapmd/internal/model"
	"heapmd/internal/prog"
	"heapmd/internal/sched"
	"heapmd/internal/trace"
	"heapmd/internal/workloads"
)

// The ingest-worker options survive only as accepted, ignored names:
// ingestion is one serial, in-order path. These tests pin that the
// names still compile, change nothing, and report the serial stage.

// listProgTraceIters sizes the recorded listprog run: about 18.5k
// events, five trace frames, so a trace cut at two thirds or damaged
// in the middle still keeps a valid prefix of several whole frames.
const listProgTraceIters = 2000

// recordListProgTrace records one listprog run and returns the trace
// bytes plus the report the recording session itself produced.
func recordListProgTrace(t *testing.T) ([]byte, *Report) {
	t.Helper()
	sess := NewSession(Options{Frequency: 4})
	run := sess.NewRun("listprog", "traced", 7)
	var buf bytes.Buffer
	closeTrace, err := RecordTrace(run, &buf)
	if err != nil {
		t.Fatal(err)
	}
	buildListProgram(run.Process(), false, listProgTraceIters)
	if err := closeTrace(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes(), run.Report()
}

// diffFacadeReports fails unless the two reports marshal to the same
// bytes.
func diffFacadeReports(t *testing.T, label string, got, want *Report) {
	t.Helper()
	g, err := json.Marshal(got)
	if err != nil {
		t.Fatal(err)
	}
	w, err := json.Marshal(want)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(g, w) {
		t.Errorf("%s: reports differ:\n got %s\nwant %s", label, g, w)
	}
}

// TestIngestReplayFacade: ReplayOptions.IngestWorkers, alone and with
// the decode pipeline, leaves the replayed report byte-identical to
// the recording session's and to a plain replay. TraceStats reports
// the serial stage, and a negative value is still rejected.
func TestIngestReplayFacade(t *testing.T) {
	data, recorded := recordListProgTrace(t)

	serialRep, _, _, err := ReplayTraceWith(bytes.NewReader(data), "listprog", "traced", ReplayOptions{Frequency: 4})
	if err != nil {
		t.Fatal(err)
	}
	diffFacadeReports(t, "serial replay vs recording", serialRep, recorded)

	for _, opts := range []ReplayOptions{
		{Frequency: 4, IngestWorkers: 4},
		{Frequency: 4, IngestWorkers: 4, DecodeWorkers: 2},
	} {
		var st TraceStats
		opts.Stats = &st
		rep, _, _, err := ReplayTraceWith(bytes.NewReader(data), "listprog", "traced", opts)
		if err != nil {
			t.Fatal(err)
		}
		label := fmt.Sprintf("ingest=%d decode=%d", opts.IngestWorkers, opts.DecodeWorkers)
		diffFacadeReports(t, label, rep, serialRep)
		if st.IngestWorkers != 1 || st.SpeculationHits != 0 || st.SpeculationFallbacks != 0 ||
			st.PreResolveStalls != 0 || st.MutatorStalls != 0 {
			t.Errorf("%s: ingest stats %d/%d/%d/%d/%d, want 1/0/0/0/0", label, st.IngestWorkers,
				st.SpeculationHits, st.SpeculationFallbacks, st.PreResolveStalls, st.MutatorStalls)
		}
	}
	if _, _, _, err := ReplayTraceWith(bytes.NewReader(data), "listprog", "traced", ReplayOptions{IngestWorkers: -1}); err == nil {
		t.Error("IngestWorkers -1 accepted")
	}
}

// TestIngestReplayFacadeDamaged: corrupt and truncated traces behave
// identically with IngestWorkers set — same error in strict mode, same
// salvaged report and SalvageInfo in salvage mode. Both damages land
// past the second frame, so salvage must recover whole frames.
func TestIngestReplayFacadeDamaged(t *testing.T) {
	data, _ := recordListProgTrace(t)
	cut := data[:len(data)*2/3]
	flipped := bytes.Clone(data)
	flipped[len(flipped)/2] ^= 0x20

	for name, damaged := range map[string][]byte{"truncated": cut, "flipped": flipped} {
		_, _, _, serialErr := ReplayTraceWith(bytes.NewReader(damaged), "listprog", "traced", ReplayOptions{Frequency: 4})
		_, _, _, ingestErr := ReplayTraceWith(bytes.NewReader(damaged), "listprog", "traced", ReplayOptions{Frequency: 4, IngestWorkers: 4})
		if (serialErr == nil) != (ingestErr == nil) ||
			(serialErr != nil && serialErr.Error() != ingestErr.Error()) {
			t.Errorf("%s strict: serial err %v, ingest err %v", name, serialErr, ingestErr)
		}

		serialRep, _, serialInfo, err := ReplayTraceWith(bytes.NewReader(damaged), "listprog", "traced",
			ReplayOptions{Frequency: 4, Salvage: true})
		if err != nil {
			t.Fatalf("%s salvage serial: %v", name, err)
		}
		ingestRep, _, ingestInfo, err := ReplayTraceWith(bytes.NewReader(damaged), "listprog", "traced",
			ReplayOptions{Frequency: 4, Salvage: true, IngestWorkers: 4})
		if err != nil {
			t.Fatalf("%s salvage ingest: %v", name, err)
		}
		diffFacadeReports(t, name+" salvage", ingestRep, serialRep)
		if *serialInfo != *ingestInfo {
			t.Errorf("%s salvage info: %+v vs %+v", name, serialInfo, ingestInfo)
		}
		if serialInfo.EventsRecovered < 2*trace.DefaultBatchRecords {
			t.Errorf("%s salvage recovered %d events, want at least two frames (%d)",
				name, serialInfo.EventsRecovered, 2*trace.DefaultBatchRecords)
		}
		if serialRep.Events != serialInfo.EventsRecovered || len(serialRep.Snapshots) == 0 {
			t.Errorf("%s salvaged report holds %d events and %d snapshots, want %d events and some snapshots",
				name, serialRep.Events, len(serialRep.Snapshots), serialInfo.EventsRecovered)
		}
	}
}

// TestIngestSessionFacade: Options.IngestWorkers on a live session
// leaves the report byte-identical to a default session, and
// Run.IngestStats reports the serial stage either way.
func TestIngestSessionFacade(t *testing.T) {
	runOnce := func(workers int) (*Report, IngestStats) {
		sess := NewSession(Options{Frequency: 4, IngestWorkers: workers})
		run := sess.NewRun("listprog", "live", 7)
		buildListProgram(run.Process(), false, 400)
		return run.Report(), run.IngestStats()
	}
	want, _ := runOnce(0)
	for _, workers := range []int{0, 4} {
		got, st := runOnce(workers)
		diffFacadeReports(t, fmt.Sprintf("session ingest=%d", workers), got, want)
		if st != (IngestStats{Workers: 1}) {
			t.Errorf("workers=%d: IngestStats %+v, want {Workers: 1}", workers, st)
		}
	}
}

// TestReplayAllocsPerEvent is the facade allocation gate: decode
// buffers, pipeline state and the logger's heap image are recycled
// across replays, so a workload trace must replay with a small
// constant number of allocations and bytes. The allocs gate averages
// the whole window of warm replays; the bytes gate takes the median
// replay, which sheds the runtime's occasional allocations (a sudog for
// a parked goroutine, a grown stack). Loggers and decode state are
// recycled through plain lists that garbage collection does not empty,
// so the gate holds under the race detector too.
//
// Two traces are gated. parser is replayed alone from a trace with no
// symtab checkpoints. webapp is recorded the way the benchmark's
// replay corpus records it, flate-compressed with the symbol table
// attached, so a checkpoint follows every frame, and each replay is
// checked against a trained model: the post-mortem mode end to end.
func TestReplayAllocsPerEvent(t *testing.T) {
	decode, err := sched.ParseDecodeWorkers(0)
	if err != nil {
		t.Fatal(err)
	}
	ingest, err := sched.ParseIngestWorkers(0)
	if err != nil {
		t.Fatal(err)
	}
	opts := ReplayOptions{DecodeWorkers: decode, IngestWorkers: ingest}

	parser, parserEvents := recordParserTraces(t)
	web, webEvents, mdl := recordWebappTrace(t)
	for _, tc := range []struct {
		name   string
		data   []byte
		events uint64
		model  *Model
	}{
		{"parser", parser["v3-flate"], parserEvents, nil},
		{"webapp+check", web, webEvents, mdl},
	} {
		replay := func() {
			rep, _, _, err := ReplayTraceWith(bytes.NewReader(tc.data), "p", "in", opts)
			if err != nil {
				t.Fatal(err)
			}
			if tc.model != nil {
				Check(tc.model, rep)
			}
		}
		replay() // warm once-per-process state
		const reps = 9
		perReplay := make([]uint64, reps)
		var start, before, after runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&start)
		for i := range perReplay {
			runtime.ReadMemStats(&before)
			replay()
			runtime.ReadMemStats(&after)
			perReplay[i] = after.TotalAlloc - before.TotalAlloc
		}
		perEvent := float64(after.Mallocs-start.Mallocs) / float64(tc.events*reps)
		slices.Sort(perReplay)
		bytesPerEvent := float64(perReplay[reps/2]) / float64(tc.events)
		t.Logf("%s: %d events, decode workers %d: %.4f allocs/event, median %.2f B/event (replays %.2f–%.2f B/event)",
			tc.name, tc.events, decode, perEvent, bytesPerEvent,
			float64(perReplay[0])/float64(tc.events), float64(perReplay[reps-1])/float64(tc.events))
		if perEvent > replayAllocsPerEventBudget {
			t.Errorf("%s: replay allocates %.4f times per event; budget %.2f", tc.name, perEvent, replayAllocsPerEventBudget)
		}
		if bytesPerEvent > replayBytesPerEventBudget {
			t.Errorf("%s: replay allocates %.2f B per event; budget %.1f", tc.name, bytesPerEvent, replayBytesPerEventBudget)
		}
	}
}

// recordWebappTrace records one held-out webapp input as the
// benchmark's replay corpus does — v3, flate-compressed, symbol table
// attached — and trains a model on the first training inputs.
func recordWebappTrace(t *testing.T) ([]byte, uint64, *Model) {
	t.Helper()
	w, err := workloads.Get("webapp")
	if err != nil {
		t.Fatal(err)
	}
	const train = 6
	reps, err := workloads.Train(w, train, workloads.RunConfig{})
	if err != nil {
		t.Fatal(err)
	}
	res, err := model.Build(reps, model.Defaults())
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	record := func(_ workloads.Input, p *prog.Process) (func() error, error) {
		tw, err := trace.NewWriterWith(&buf, trace.WriterOptions{Compress: true})
		if err != nil {
			return nil, err
		}
		tw.SetSymtab(p.Sym())
		p.Subscribe(tw)
		return func() error { return tw.Close(p.Sym()) }, nil
	}
	rep, _, err := workloads.RunLogged(w, w.Inputs(train + 1)[train], workloads.RunConfig{Record: record})
	if err != nil {
		t.Fatal(err)
	}
	return buf.Bytes(), rep.Events, res.Model
}

// The budgets of TestReplayAllocsPerEvent, shared by both traces: heap
// allocations and bytes one warm replay makes per replayed event, at
// the CLI's resolved defaults, with about four times the larger
// measured median as headroom. Measured
// on a 2-vCPU x86-64 VM (decode workers 2, Go 1.24):
//   - parser, replay only: 0.0010 allocs/event and a median 0.78
//     B/event since samples go to the chunked sample log; 0.0063
//     allocs/event and 1.37 B/event while each sample allocated its
//     values and the report grew by append; 0.0117 allocs/event and
//     24.2 B/event when every replay built its logger from nothing.
//     With the speculative ingest stage, which auto mode enabled on
//     that box, the same replay made 0.135 allocs/event (226 B/event).
//   - webapp, replay and check: 0.0023 allocs/event and a median 1.12
//     B/event, of which the 60-sample log and report are about 0.7 and
//     the symbol table most of the rest; 0.0067 allocs/event and 1.36
//     B/event while the check also copied every stable metric's
//     series; 0.0313 allocs/event and 7.15 B/event (6.3 B/event replay
//     alone) while each replay regrew its spill maps and slot words,
//     decoded every symtab checkpoint and each check allocated a
//     call-stack ring per metric.
const (
	replayAllocsPerEventBudget = 0.03
	replayBytesPerEventBudget  = 4.5
)
