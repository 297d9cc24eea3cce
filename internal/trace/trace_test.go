package trace

import (
	"bytes"
	"errors"
	"testing"
	"testing/quick"

	"heapmd/internal/event"
	"heapmd/internal/heap"
	"heapmd/internal/logger"
)

// seekBuffer adapts bytes.Reader construction for replay.
func replayBytes(t *testing.T, data []byte, sink event.Sink) (*event.Symtab, uint64, error) {
	t.Helper()
	return Replay(bytes.NewReader(data), sink)
}

func TestRoundTripEmpty(t *testing.T) {
	var buf bytes.Buffer
	w, err := NewWriterWith(&buf, WriterOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Close(event.NewSymtab()); err != nil {
		t.Fatal(err)
	}
	var c tally
	sym, n, err := replayBytes(t, buf.Bytes(), &c)
	if err != nil {
		t.Fatal(err)
	}
	if n != 0 || c.Total != 0 || sym.Len() != 0 {
		t.Errorf("empty trace replay: n=%d total=%d syms=%d", n, c.Total, sym.Len())
	}
}

func TestRoundTripEvents(t *testing.T) {
	var buf bytes.Buffer
	w, err := NewWriterWith(&buf, WriterOptions{})
	if err != nil {
		t.Fatal(err)
	}
	sym := event.NewSymtab()
	f1 := sym.Intern("alpha")
	f2 := sym.Intern("beta")
	in := []event.Event{
		{Type: event.Enter, Fn: f1},
		{Type: event.Alloc, Fn: f1, Addr: 0x1000, Size: 32},
		{Type: event.Store, Fn: f2, Addr: 0x1008, Value: 0x2000, Old: 7},
		{Type: event.Load, Fn: f2, Addr: 0x1008, Value: 0x2000},
		{Type: event.Realloc, Addr: 0x1000, Value: 0x3000, Size: 64},
		{Type: event.Free, Addr: 0x3000, Size: 64},
		{Type: event.Leave},
	}
	for _, e := range in {
		w.Emit(e)
	}
	if w.Events() != uint64(len(in)) {
		t.Fatalf("Events = %d, want %d", w.Events(), len(in))
	}
	if err := w.Close(sym); err != nil {
		t.Fatal(err)
	}

	var got []event.Event
	gotSym, n, err := replayBytes(t, buf.Bytes(), event.SinkFunc(func(e event.Event) {
		got = append(got, e)
	}))
	if err != nil {
		t.Fatal(err)
	}
	if n != uint64(len(in)) || len(got) != len(in) {
		t.Fatalf("replayed %d events, want %d", n, len(in))
	}
	for i := range in {
		if got[i] != in[i] {
			t.Errorf("event %d = %+v, want %+v", i, got[i], in[i])
		}
	}
	if gotSym.Name(f1) != "alpha" || gotSym.Name(f2) != "beta" {
		t.Error("symtab did not round-trip")
	}
}

func TestRoundTripProperty(t *testing.T) {
	f := func(raw []struct {
		T    uint8
		Fn   uint16
		A, V uint64
	}) bool {
		var buf bytes.Buffer
		w, err := NewWriterWith(&buf, WriterOptions{})
		if err != nil {
			return false
		}
		var in []event.Event
		for _, r := range raw {
			e := event.Event{Type: event.Type(r.T % 7), Fn: event.FnID(r.Fn), Addr: r.A, Value: r.V}
			in = append(in, e)
			w.Emit(e)
		}
		if err := w.Close(nil); err != nil {
			return false
		}
		var got []event.Event
		_, n, err := Replay(bytes.NewReader(buf.Bytes()), event.SinkFunc(func(e event.Event) {
			got = append(got, e)
		}))
		if err != nil || n != uint64(len(in)) {
			return false
		}
		for i := range in {
			if got[i] != in[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestCorruptHeader(t *testing.T) {
	cases := map[string][]byte{
		"empty":     {},
		"short":     {'H', 'M'},
		"bad magic": []byte("XXXXYYYYZZZZZZZZZZZZZZZZZZZZZZZZ"),
	}
	for name, data := range cases {
		t.Run(name, func(t *testing.T) {
			_, _, err := Replay(bytes.NewReader(data), event.SinkFunc(func(event.Event) {}))
			if !errors.Is(err, ErrCorrupt) {
				t.Errorf("err = %v, want ErrCorrupt", err)
			}
		})
	}
}

func TestCorruptTruncatedTrailer(t *testing.T) {
	var buf bytes.Buffer
	w, err := NewWriterWith(&buf, WriterOptions{})
	if err != nil {
		t.Fatal(err)
	}
	w.Emit(event.Event{Type: event.Enter, Fn: 1})
	if err := w.Close(nil); err != nil {
		t.Fatal(err)
	}
	data := buf.Bytes()
	// Chop off the trailer.
	_, _, errReplay := Replay(bytes.NewReader(data[:len(data)-8]), event.SinkFunc(func(event.Event) {}))
	if !errors.Is(errReplay, ErrCorrupt) {
		t.Errorf("truncated trailer err = %v, want ErrCorrupt", errReplay)
	}
}

func TestVersionMismatch(t *testing.T) {
	var buf bytes.Buffer
	w, err := NewWriterWith(&buf, WriterOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Close(nil); err != nil {
		t.Fatal(err)
	}
	data := buf.Bytes()
	data[4] = 99 // bump version
	_, _, errReplay := Replay(bytes.NewReader(data), event.SinkFunc(func(event.Event) {}))
	if errReplay == nil {
		t.Fatal("version mismatch not detected")
	}
}

// TestOfflinePipeline exercises the paper's post-mortem mode: record a
// real simulated execution to a trace, then replay it into a fresh
// logger and check that the reconstructed heap-graph matches the live
// one.
func TestOfflinePipeline(t *testing.T) {
	var buf bytes.Buffer
	w, err := NewWriterWith(&buf, WriterOptions{})
	if err != nil {
		t.Fatal(err)
	}
	sym := event.NewSymtab()

	h := heap.New()
	live := logger.New(logger.Options{Frequency: 2})
	h.Subscribe(live)
	h.Subscribe(w)

	// Simulated program: build a 100-node list, free every third
	// node, with function-entry events interleaved.
	enter := func(name string) {
		e := event.Event{Type: event.Enter, Fn: sym.Intern(name)}
		live.Emit(e)
		w.Emit(e)
	}
	var nodes []uint64
	var prev uint64
	for i := 0; i < 100; i++ {
		enter("build")
		a, err := h.Alloc(16)
		if err != nil {
			t.Fatal(err)
		}
		if prev != 0 {
			if err := h.Store(prev+8, a); err != nil {
				t.Fatal(err)
			}
		}
		prev = a
		nodes = append(nodes, a)
	}
	for i := 0; i < len(nodes); i += 3 {
		enter("teardown")
		if err := h.Free(nodes[i]); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(sym); err != nil {
		t.Fatal(err)
	}

	replayed := logger.New(logger.Options{Frequency: 2})
	gotSym, n, err := Replay(bytes.NewReader(buf.Bytes()), replayed)
	if err != nil {
		t.Fatal(err)
	}
	if n == 0 {
		t.Fatal("no events replayed")
	}
	if gotSym.Len() != 2 {
		t.Errorf("symtab len = %d, want 2", gotSym.Len())
	}

	lg, rg := live.Graph(), replayed.Graph()
	if lg.NumVertices() != rg.NumVertices() || lg.NumEdges() != rg.NumEdges() {
		t.Fatalf("replayed graph V=%d E=%d, live V=%d E=%d",
			rg.NumVertices(), rg.NumEdges(), lg.NumVertices(), lg.NumEdges())
	}
	for d := 0; d <= 2; d++ {
		if lg.CountInDegree(d) != rg.CountInDegree(d) || lg.CountOutDegree(d) != rg.CountOutDegree(d) {
			t.Errorf("degree-%d histograms diverge", d)
		}
	}
	if ln, rn := len(live.Report().Snapshots), len(replayed.Report().Snapshots); ln != rn {
		t.Errorf("metric points: live %d, replayed %d", ln, rn)
	}
}

// countingWriter tallies bytes without retaining them, so the write
// benchmark measures encoding cost and size, not buffer management.
type countingWriter struct{ n int64 }

func (w *countingWriter) Write(p []byte) (int, error) {
	w.n += int64(len(p))
	return len(p), nil
}

// BenchmarkWriterEmit measures the per-event cost and storage density
// of the emit path across formats. The bytes/event metric is what the
// CI trace-size gate budgets; allocs/op must stay flat (the encode
// buffers are reused per frame, gated by TestWriterEmitAllocs).
func BenchmarkWriterEmit(b *testing.B) {
	evs := v3TestEvents(DefaultBatchRecords)
	for _, tc := range []struct {
		name string
		opts WriterOptions
	}{
		{"v3", WriterOptions{Version: VersionV3}},
		{"v3-flate", WriterOptions{Version: VersionV3, Compress: true}},
	} {
		b.Run(tc.name, func(b *testing.B) {
			var cw countingWriter
			w, err := NewWriterWith(&cw, tc.opts)
			if err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				w.Emit(evs[i%len(evs)])
			}
			b.StopTimer()
			if err := w.Close(nil); err != nil {
				b.Fatal(err)
			}
			b.ReportMetric(float64(cw.n)/float64(b.N), "bytes/event")
		})
	}
}

func BenchmarkReplay(b *testing.B) {
	var buf bytes.Buffer
	w, err := NewWriterWith(&buf, WriterOptions{})
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < 100000; i++ {
		w.Emit(event.Event{Type: event.Store, Fn: 1, Addr: uint64(i), Value: uint64(i * 2)})
	}
	if err := w.Close(nil); err != nil {
		b.Fatal(err)
	}
	data := buf.Bytes()
	sink := event.SinkFunc(func(event.Event) {})
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := Replay(bytes.NewReader(data), sink); err != nil {
			b.Fatal(err)
		}
	}
}
