package heapmd

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"testing"

	"heapmd/internal/event"
	"heapmd/internal/logger"
	"heapmd/internal/trace"
	"heapmd/internal/workloads"
)

// v3BytesPerEventBudget is the CI trace-size regression gate: the
// uncompressed v3 format must encode the recorded parser workload in
// at most this many bytes per event. Measured at introduction: 11.72
// (vs v2's fixed 37-byte records plus framing; the residual is almost
// entirely the Value column of Load events, whose loaded heap words
// are high-entropy). The budget leaves headroom for event-mix drift
// without letting the encoding quietly decay toward fixed width.
const v3BytesPerEventBudget = 13.0

// v2RecordBytes is the size of one fixed-width record of the legacy
// v1/v2 formats: type u8 | fn u32 | addr, value, old, size u64.
const v2RecordBytes = 37

// TestTraceFormatEquivalence is the end-to-end cross-format oracle:
// one parser-workload run recorded simultaneously as v3 and compressed
// v3 must replay — through the full logger — to byte-identical reports
// and identical symbol tables. (The trace package's
// TestCrossVersionEquivalence checks raw event sequences across every
// format; TestLegacyFixtureReports pins the reports of the checked-in
// v2 and v3 traces.)
func TestTraceFormatEquivalence(t *testing.T) {
	traces, nEvents := recordParserTraces(t)

	type outcome struct {
		report  []byte
		symbols int
	}
	outcomes := map[string]outcome{}
	for name, data := range traces {
		var st TraceStats
		rep, sym, info, err := ReplayTraceWith(bytes.NewReader(data), "parser", "in0",
			ReplayOptions{Frequency: 1024, Stats: &st})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if info.EventsRecovered != nEvents {
			t.Fatalf("%s: replayed %d events, recorded %d", name, info.EventsRecovered, nEvents)
		}
		if st.Events != nEvents {
			t.Errorf("%s: stats counted %d events, want %d", name, st.Events, nEvents)
		}
		js, err := json.Marshal(rep)
		if err != nil {
			t.Fatal(err)
		}
		outcomes[name] = outcome{report: js, symbols: sym.Len()}
	}
	base := outcomes["v3"]
	for name, o := range outcomes {
		if !bytes.Equal(o.report, base.report) {
			t.Errorf("%s: replayed report differs from v3's", name)
		}
		if o.symbols != base.symbols {
			t.Errorf("%s: %d symbols, v3 replayed %d", name, o.symbols, base.symbols)
		}
	}
}

// TestTraceV3SizeBudget is the trace-size regression gate on the
// recorded parser workload: v3 must stay at least 3x smaller per event
// than v2's fixed 37-byte records (the format's acceptance bar; a v2
// trace also paid for its frame envelope) and within the committed
// absolute budget.
func TestTraceV3SizeBudget(t *testing.T) {
	traces, nEvents := recordParserTraces(t)
	v3bpe := float64(len(traces["v3"])) / float64(nEvents)
	zbpe := float64(len(traces["v3-flate"])) / float64(nEvents)
	t.Logf("parser workload, %d events: v3 %.2f bytes/event, v3-flate %.2f (v2 records %d)",
		nEvents, v3bpe, zbpe, v2RecordBytes)
	if v3bpe > v3BytesPerEventBudget {
		t.Errorf("v3 = %.2f bytes/event, budget %.2f", v3bpe, v3BytesPerEventBudget)
	}
	if v3bpe*3 > v2RecordBytes {
		t.Errorf("v3 = %.2f bytes/event, not 3x smaller than v2's %d-byte records", v3bpe, v2RecordBytes)
	}
	if zbpe > v3bpe {
		t.Errorf("v3-flate = %.2f bytes/event, larger than raw v3's %.2f", zbpe, v3bpe)
	}
}

// TestRecordTraceWithFormats checks the facade recording path: each
// format option produces a trace that replays to the recorded event
// count, and RecordTrace records v3 like RecordTraceWith's zero options.
func TestRecordTraceWithFormats(t *testing.T) {
	run := func(record func(r *Run, w *bytes.Buffer) (func() error, error)) ([]byte, uint64) {
		s := NewSession(Options{Frequency: 1024})
		r := s.NewRun("prog", "in", 1)
		var buf bytes.Buffer
		closeTrace, err := record(r, &buf)
		if err != nil {
			t.Fatal(err)
		}
		p := r.Process()
		var n uint64
		for i := 0; i < 5000; i++ {
			leave := p.Enter("fn")
			a := p.Alloc(64)
			p.Free(a)
			leave()
			n += 4
		}
		if err := closeTrace(); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes(), n
	}
	check := func(name string, data []byte, n, wantVersion uint64) {
		var st TraceStats
		_, _, info, err := ReplayTraceWith(bytes.NewReader(data), "prog", "in",
			ReplayOptions{Frequency: 1024, Stats: &st})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if info.EventsRecovered < n {
			t.Errorf("%s: replayed %d events, recorded at least %d", name, info.EventsRecovered, n)
		}
		if uint64(st.Version) != wantVersion {
			t.Errorf("%s: trace is v%d, want v%d", name, st.Version, wantVersion)
		}
	}
	data, n := run(func(r *Run, w *bytes.Buffer) (func() error, error) { return RecordTrace(r, w) })
	check("RecordTrace", data, n, uint64(trace.VersionV3))
	data, n = run(func(r *Run, w *bytes.Buffer) (func() error, error) {
		return RecordTraceWith(r, w, TraceOptions{})
	})
	check("RecordTraceWith zero", data, n, uint64(trace.VersionV3))
	data, n = run(func(r *Run, w *bytes.Buffer) (func() error, error) {
		return RecordTraceWith(r, w, TraceOptions{Compress: true})
	})
	check("RecordTraceWith compress", data, n, uint64(TraceFormatV3))
}

const legacyReportGoldenPath = "testdata/golden/legacy-reports.json"

// legacyReport is what replaying one legacy trace fixture through the
// facade must yield: the report's digest (see reportDigest) and the
// salvage counters the facade adds to its health.
type legacyReport struct {
	Digest        string `json:"digest"`
	Events        uint64 `json:"events"`
	SalvagedGaps  uint64 `json:"salvaged_gaps"`
	SalvagedBytes uint64 `json:"salvaged_bytes"`
}

// TestLegacyFixtureReports pins reports, not just event streams, on the
// trace package's checked-in mcf fixtures (see legacyFixtures in
// internal/trace/legacy_test.go). The clean v2, v3 and v3-flate
// recordings of the one run must replay through ReplayTraceWith, on
// the synchronous reader and at the machine's default decode workers,
// to byte-identical report JSON; the truncated and bit-flipped ones
// are salvaged. Every outcome is checked against a digest golden
// (testdata/golden/legacy-reports.json; -update rewrites it).
func TestLegacyFixtureReports(t *testing.T) {
	got := map[string]legacyReport{}
	var clean []byte
	for _, name := range []string{"v2", "v3", "v3-flate", "v3-flate-trunc", "v3-flate-flip"} {
		data, err := os.ReadFile(filepath.Join("internal", "trace", "testdata", "legacy-mcf-"+name+".trace"))
		if err != nil {
			t.Fatal(err)
		}
		for _, workers := range []int{0, DefaultDecodeWorkers()} {
			opts := ReplayOptions{Salvage: true, DecodeWorkers: workers}
			rep, _, info, err := ReplayTraceWith(bytes.NewReader(data), "mcf", "in0", opts)
			if err != nil {
				t.Fatalf("%s workers %d: %v", name, workers, err)
			}
			key := name
			if !info.Salvaged() {
				js, err := json.Marshal(rep)
				if err != nil {
					t.Fatal(err)
				}
				if clean == nil {
					clean = js
				} else if !bytes.Equal(js, clean) {
					t.Errorf("%s workers %d: report differs from the other clean fixtures'", name, workers)
				}
				key = "clean"
			}
			r := legacyReport{
				Digest:        reportDigest(t, rep),
				Events:        info.EventsRecovered,
				SalvagedGaps:  rep.Health.SalvagedGaps,
				SalvagedBytes: rep.Health.SalvagedBytes,
			}
			if prev, ok := got[key]; ok && prev != r {
				t.Errorf("%s workers %d: %+v, but %+v before", name, workers, r, prev)
			}
			got[key] = r
		}
	}
	if *updateGoldens {
		buf, err := json.MarshalIndent(got, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(legacyReportGoldenPath, append(buf, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	raw, err := os.ReadFile(legacyReportGoldenPath)
	if err != nil {
		t.Fatalf("%v (run with -update to create it)", err)
	}
	var want map[string]legacyReport
	if err := json.Unmarshal(raw, &want); err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) {
		t.Errorf("%d outcomes, golden has %d", len(got), len(want))
	}
	for name, w := range want {
		if got[name] != w {
			t.Errorf("%s: %+v, golden %+v", name, got[name], w)
		}
	}
}

var _ = logger.SimulationFrequency // keep import if constants above change

// recordV3 records one seeded run of the named workload as a v3 trace.
func recordV3(t *testing.T, name string) []byte {
	t.Helper()
	w, err := workloads.Get(name)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	tw, err := trace.NewWriterWith(&buf, trace.WriterOptions{Version: trace.VersionV3})
	if err != nil {
		t.Fatal(err)
	}
	_, p, err := workloads.RunLogged(w, w.Inputs(1)[0], workloads.RunConfig{ExtraSinks: []event.Sink{tw}})
	if err != nil {
		t.Fatal(err)
	}
	if err := tw.Close(p.Sym()); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestRecordingReproducible: two recordings of one seeded run are
// byte-identical, for every workload — no workload may emit events in
// Go map iteration order (game_action's octree free is the case that
// did).
func TestRecordingReproducible(t *testing.T) {
	for _, name := range workloads.Names() {
		if a, b := recordV3(t, name), recordV3(t, name); !bytes.Equal(a, b) {
			t.Errorf("%s: two recordings with one seed differ (%d vs %d bytes)", name, len(a), len(b))
		}
	}
}
