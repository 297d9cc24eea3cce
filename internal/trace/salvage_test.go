package trace

import (
	"bytes"
	"encoding/binary"
	"errors"
	"testing"

	"heapmd/internal/event"
)

// collect replays/salvages data into a slice of events.
func collectSink(dst *[]event.Event) event.Sink {
	return event.SinkFunc(func(e event.Event) { *dst = append(*dst, e) })
}

type boundary struct {
	offset int
	events uint64
}

// shortFrame is the frame size, sealed with Writer.Flush, of the
// traces the equivalence oracles cut at every stride: short frames
// keep many frame boundaries in a trace small enough to replay
// thousands of times.
const shortFrame = 512

// frameBoundaries walks a well-formed v2 or v3 trace and returns, for
// each frame end, the byte offset and the cumulative event count
// durable there — the ground truth a salvage of any prefix must
// reproduce. A v2 event frame holds payloadLen/recordSize records; a
// v3 one declares its count after the flags byte.
func frameBoundaries(t *testing.T, data []byte) []boundary {
	t.Helper()
	v3 := binary.LittleEndian.Uint32(data[4:]) == VersionV3
	var bounds []boundary
	off := 8
	var events uint64
	for off < len(data) {
		if off+frameHeaderSize > len(data) {
			t.Fatalf("ragged frame header at %d", off)
		}
		kind := data[off]
		payloadLen := int(binary.LittleEndian.Uint32(data[off+1:]))
		switch {
		case kind != frameEvents:
		case v3:
			events += uint64(binary.LittleEndian.Uint32(data[off+frameHeaderSize+1:]))
		default:
			events += uint64(payloadLen / recordSize)
		}
		off += frameHeaderSize + payloadLen
		bounds = append(bounds, boundary{offset: off, events: events})
	}
	return bounds
}

func testEvents(n int) []event.Event {
	evs := make([]event.Event, n)
	for i := range evs {
		evs[i] = event.Event{
			Type:  event.Type(i % int(event.NumTypes)),
			Fn:    event.FnID(i%3 + 1),
			Addr:  uint64(0x1000 + i*8),
			Value: uint64(i),
			Old:   uint64(i / 2),
			Size:  uint64(16 + i%32),
		}
	}
	return evs
}

func TestV2CleanSalvageIsLossless(t *testing.T) {
	evs := smallFixtureEvents()
	data := legacyTrace(t, "small-v2")

	var got []event.Event
	gotSym, info, err := Salvage(bytes.NewReader(data), collectSink(&got))
	if err != nil {
		t.Fatal(err)
	}
	if info.Salvaged() {
		t.Errorf("clean trace reported salvage: %v", info)
	}
	if info.EventsRecovered != uint64(len(evs)) || len(got) != len(evs) {
		t.Fatalf("recovered %d events, want %d", info.EventsRecovered, len(evs))
	}
	for i := range evs {
		if got[i] != evs[i] {
			t.Fatalf("event %d = %+v, want %+v", i, got[i], evs[i])
		}
	}
	if gotSym.Len() != 2 {
		t.Errorf("symtab len = %d, want 2", gotSym.Len())
	}
}

// TestV2TruncationAtEveryOffset is the crash-safety acceptance test:
// a v2 trace cut at ANY byte offset past the header must salvage
// without panicking, recovering exactly the events of every complete
// frame before the cut.
func TestV2TruncationAtEveryOffset(t *testing.T) {
	evs := smallFixtureEvents()
	data := legacyTrace(t, "small-v2")
	bounds := frameBoundaries(t, data)

	expectAt := func(cut int) (uint64, int) {
		best := boundary{offset: 8}
		for _, b := range bounds {
			if b.offset <= cut && b.offset > best.offset {
				best = b
			}
		}
		return best.events, best.offset
	}
	for cut := 8; cut < len(data); cut++ {
		var got []event.Event
		_, info, err := Salvage(bytes.NewReader(data[:cut]), collectSink(&got))
		if err != nil {
			t.Fatalf("cut=%d: salvage failed: %v", cut, err)
		}
		wantEvents, wantOffset := expectAt(cut)
		if info.EventsRecovered != wantEvents || uint64(len(got)) != wantEvents {
			t.Fatalf("cut=%d: recovered %d events, want %d", cut, info.EventsRecovered, wantEvents)
		}
		if !info.Truncated {
			t.Fatalf("cut=%d: truncation not reported", cut)
		}
		if info.BytesDropped != uint64(cut-wantOffset) {
			t.Fatalf("cut=%d: dropped %d bytes, want %d", cut, info.BytesDropped, cut-wantOffset)
		}
		for i := range got {
			if got[i] != evs[i] {
				t.Fatalf("cut=%d: event %d corrupted in salvage", cut, i)
			}
		}
		// Strict replay of the same cut must refuse.
		if _, _, err := Replay(bytes.NewReader(data[:cut]), event.SinkFunc(func(event.Event) {})); !errors.Is(err, ErrCorrupt) {
			t.Fatalf("cut=%d: strict replay err = %v, want ErrCorrupt", cut, err)
		}
	}
}

// TestV2BitFlipDetected flips every byte of a v2 trace body in turn;
// strict replay must reject each mutant and salvage must never panic.
func TestV2BitFlipDetected(t *testing.T) {
	data := legacyTrace(t, "small-v2")
	devNull := event.SinkFunc(func(event.Event) {})
	for i := 8; i < len(data); i++ {
		mut := bytes.Clone(data)
		mut[i] ^= 0x40
		if _, _, err := Replay(bytes.NewReader(mut), devNull); err == nil {
			t.Fatalf("flip at %d: strict replay accepted a corrupted trace", i)
		}
		if _, _, err := Salvage(bytes.NewReader(mut), devNull); err != nil {
			t.Fatalf("flip at %d: salvage errored: %v", i, err)
		}
	}
}

// TestSymtabCheckpointSurvivesCrash: a writer killed before Close
// still leaves its symbols behind, checkpointed after the event frame.
func TestSymtabCheckpointSurvivesCrash(t *testing.T) {
	sym := event.NewSymtab()
	sym.Intern("durable")
	var buf bytes.Buffer
	w, err := NewWriterWith(&buf, WriterOptions{})
	if err != nil {
		t.Fatal(err)
	}
	w.SetSymtab(sym)
	// Enough events to seal one event frame and therefore one symtab
	// checkpoint.
	n := DefaultBatchRecords
	for i := 0; i < n; i++ {
		w.Emit(event.Event{Type: event.Enter, Fn: 1})
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	// Crash: no Close. The trailer-based v1 format would lose every
	// symbol here.
	var c tally
	gotSym, info, err := Salvage(bytes.NewReader(buf.Bytes()), &c)
	if err != nil {
		t.Fatal(err)
	}
	if !info.Truncated {
		t.Error("crashed trace not reported truncated")
	}
	if info.EventsRecovered != uint64(n) || c.Total != uint64(n) {
		t.Errorf("recovered %d events, want %d", info.EventsRecovered, n)
	}
	if gotSym.Len() != 1 || gotSym.Name(1) != "durable" {
		t.Errorf("symtab checkpoint lost: len=%d", gotSym.Len())
	}
}

func TestV2TrailingGarbage(t *testing.T) {
	evs := smallFixtureEvents()
	data := append(legacyTrace(t, "small-v2"), []byte("garbage after a clean end frame")...)
	devNull := event.SinkFunc(func(event.Event) {})
	if _, _, err := Replay(bytes.NewReader(data), devNull); !errors.Is(err, ErrCorrupt) {
		t.Errorf("strict replay of trailing garbage: err = %v, want ErrCorrupt", err)
	}
	var got []event.Event
	_, info, err := Salvage(bytes.NewReader(data), collectSink(&got))
	if err != nil {
		t.Fatal(err)
	}
	if info.Truncated {
		t.Error("trailing garbage misreported as truncation")
	}
	if len(got) != len(evs) || info.BytesDropped == 0 {
		t.Errorf("salvage: %d events, info=%v", len(got), info)
	}
}

// TestV1RoundTripCompat replays the v1 fixture: every record and the
// trailer's symbol table come back, and salvage of the clean trace is
// lossless.
func TestV1RoundTripCompat(t *testing.T) {
	data := legacyTrace(t, "small-v1")
	evs := smallFixtureEvents()
	var got []event.Event
	gotSym, n, err := Replay(bytes.NewReader(data), collectSink(&got))
	if err != nil {
		t.Fatal(err)
	}
	if n != uint64(len(evs)) || len(got) != len(evs) {
		t.Fatalf("replayed %d events, want %d", n, len(evs))
	}
	for i := range evs {
		if got[i] != evs[i] {
			t.Fatalf("event %d did not round-trip through v1", i)
		}
	}
	if gotSym.Len() != 2 || gotSym.Name(1) != "alpha" || gotSym.Name(2) != "beta" {
		t.Error("v1 symtab did not round-trip")
	}
	// Salvage of a clean v1 trace is also lossless.
	var got2 []event.Event
	_, info, err := Salvage(bytes.NewReader(data), collectSink(&got2))
	if err != nil {
		t.Fatal(err)
	}
	if info.Salvaged() || len(got2) != len(evs) {
		t.Errorf("clean v1 salvage: %d events, info=%v", len(got2), info)
	}
}

// TestV1TruncatedSalvage exercises the motivating failure: a v1 trace
// whose writer died before Close, losing the symtab trailer. Strict
// replay fails wholesale; salvage reinterprets every complete record.
func TestV1TruncatedSalvage(t *testing.T) {
	evs := smallFixtureEvents()
	// Simulate the crash: cut mid-record, before the trailer was
	// durable.
	data := legacyTrace(t, "small-v1")[:8+len(evs)*recordSize-5]

	devNull := event.SinkFunc(func(event.Event) {})
	if _, _, err := Replay(bytes.NewReader(data), devNull); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("strict replay of truncated v1: err = %v, want ErrCorrupt", err)
	}
	var got []event.Event
	sym, info, err := Salvage(bytes.NewReader(data), collectSink(&got))
	if err != nil {
		t.Fatal(err)
	}
	if !info.Truncated {
		t.Error("truncated v1 not reported truncated")
	}
	if want := len(evs) - 1; len(got) != want {
		t.Fatalf("salvaged %d events, want %d", len(got), want)
	}
	for i := range got {
		if got[i] != evs[i] {
			t.Fatalf("event %d corrupted in v1 salvage", i)
		}
	}
	if sym.Len() != 0 {
		t.Error("v1 salvage cannot recover symbols, yet symtab is nonempty")
	}
	if info.BytesDropped != recordSize-5 {
		t.Errorf("BytesDropped = %d, want %d", info.BytesDropped, recordSize-5)
	}
}

func TestSalvageHeaderGarbage(t *testing.T) {
	for _, data := range [][]byte{nil, []byte("HM"), []byte("XXXXYYYY and then some")} {
		if _, _, err := Salvage(bytes.NewReader(data), event.SinkFunc(func(event.Event) {})); !errors.Is(err, ErrCorrupt) {
			t.Errorf("Salvage(%q) err = %v, want ErrCorrupt", data, err)
		}
	}
	// Unknown version is an explicit error, not a salvage case.
	bad := append([]byte("HMDT"), 9, 0, 0, 0)
	if _, _, err := Salvage(bytes.NewReader(bad), event.SinkFunc(func(event.Event) {})); err == nil {
		t.Error("unknown version accepted by salvage")
	}
}

func TestWriterFlushEstablishesSalvagePoint(t *testing.T) {
	var buf bytes.Buffer
	w, err := NewWriterWith(&buf, WriterOptions{})
	if err != nil {
		t.Fatal(err)
	}
	w.Emit(event.Event{Type: event.Alloc, Addr: 0x10, Size: 8})
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	durable := buf.Len()
	w.Emit(event.Event{Type: event.Free, Addr: 0x10, Size: 8})
	// Second event never flushed: only the first survives the crash.
	var got []event.Event
	_, info, err := Salvage(bytes.NewReader(buf.Bytes()[:durable]), collectSink(&got))
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 1 || info.EventsRecovered != 1 {
		t.Errorf("salvaged %d events, want 1", len(got))
	}
}
