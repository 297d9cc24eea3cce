package trace

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"math/rand"
	"testing"

	"heapmd/internal/event"
)

// writeV3 builds a v3 trace from evs with sym attached, flushing
// after every flushEvery events (0 = never).
func writeV3(t testing.TB, evs []event.Event, sym *event.Symtab, flushEvery int, compress bool) []byte {
	t.Helper()
	var buf bytes.Buffer
	w, err := NewWriterWith(&buf, WriterOptions{Version: VersionV3, Compress: compress})
	if err != nil {
		t.Fatal(err)
	}
	w.SetSymtab(sym)
	for i, e := range evs {
		w.Emit(e)
		if flushEvery > 0 && (i+1)%flushEvery == 0 {
			if err := w.Flush(); err != nil {
				t.Fatal(err)
			}
		}
	}
	if err := w.Close(sym); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// v3TestEvents builds an event mix with the clustering real traces
// have (nearby addresses, small fn deltas) plus occasional jumps, so
// both the one-byte varint fast path and the multi-byte path run.
func v3TestEvents(n int) []event.Event {
	evs := make([]event.Event, n)
	addr := uint64(0x10000)
	for i := range evs {
		if i%97 == 13 {
			addr += 1 << 33 // new arena: a large positive delta
		}
		if i%53 == 7 {
			addr -= 4096 // backwards jump: negative delta, zigzag path
		}
		evs[i] = event.Event{
			Type:  event.Type(i % int(event.NumTypes)),
			Fn:    event.FnID(i%5 + 1),
			Addr:  addr + uint64(i%16)*8,
			Value: addr ^ uint64(i),
			Old:   uint64(i / 3),
			Size:  uint64(16 + i%48),
		}
	}
	return evs
}

func TestV3RoundTrip(t *testing.T) {
	for _, compress := range []bool{false, true} {
		name := "raw"
		if compress {
			name = "flate"
		}
		t.Run(name, func(t *testing.T) {
			sym := event.NewSymtab()
			f1 := sym.Intern("alpha")
			f2 := sym.Intern("beta")
			evs := v3TestEvents(3*DefaultBatchRecords + 17) // multiple frames, ragged tail
			data := writeV3(t, evs, sym, 0, compress)

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
					t.Fatalf("event %d = %+v, want %+v", i, got[i], evs[i])
				}
			}
			if gotSym.Name(f1) != "alpha" || gotSym.Name(f2) != "beta" {
				t.Error("symtab did not round-trip")
			}
			// Salvage of a clean v3 trace is lossless.
			var got2 []event.Event
			_, info, err := Salvage(bytes.NewReader(data), collectSink(&got2))
			if err != nil {
				t.Fatal(err)
			}
			if info.Salvaged() || len(got2) != len(evs) {
				t.Errorf("clean v3 salvage: %d events, info=%v", len(got2), info)
			}
		})
	}
}

func TestV3EmptyTrace(t *testing.T) {
	data := writeV3(t, nil, event.NewSymtab(), 0, true)
	var c tally
	sym, n, err := Replay(bytes.NewReader(data), &c)
	if err != nil {
		t.Fatal(err)
	}
	if n != 0 || c.Total != 0 || sym.Len() != 0 {
		t.Errorf("empty v3 replay: n=%d total=%d syms=%d", n, c.Total, sym.Len())
	}
}

// TestV3SmallerThanV2 pins the point of the format: on clustered
// event streams the columnar encoding is at least 3x smaller than
// v2's fixed-width records alone (a v2 trace also carries its frame
// envelope, so it is larger still).
func TestV3SmallerThanV2(t *testing.T) {
	evs := v3TestEvents(8 * DefaultBatchRecords)
	v2 := len(evs) * recordSize
	v3 := writeV3(t, evs, nil, 0, false)
	if len(v3)*3 > v2 {
		t.Errorf("v3 = %d bytes, v2 records = %d bytes: less than 3x smaller", len(v3), v2)
	}
	v3z := writeV3(t, evs, nil, 0, true)
	if len(v3z) > len(v3) {
		t.Errorf("compressed v3 = %d bytes > uncompressed %d", len(v3z), len(v3))
	}
}

// TestV3IncompressibleStaysRaw checks the per-frame compression flag
// is adaptive: frames whose flate output would be larger are stored
// raw, so -compress never inflates a trace beyond its raw v3 size.
// Single-event frames of random words make flate reliably lose — its
// per-stream framing overhead exceeds any saving on a ~30-byte body.
func TestV3IncompressibleStaysRaw(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	evs := make([]event.Event, 16)
	for i := range evs {
		evs[i] = event.Event{
			Type: event.Type(i % int(event.NumTypes)), Fn: event.FnID(rng.Uint32()),
			Addr: rng.Uint64(), Value: rng.Uint64(), Old: rng.Uint64(), Size: rng.Uint64(),
		}
	}
	data := writeV3(t, evs, nil, 1, true)
	var st Stats
	var c tally
	if _, _, err := ReplayWith(bytes.NewReader(data), &c, ReadOptions{Stats: &st}); err != nil {
		t.Fatal(err)
	}
	if st.CompressedFrames != 0 {
		t.Errorf("%d incompressible frames stored compressed", st.CompressedFrames)
	}
	if st.StoredEventBytes != st.RawEventBytes || st.CompressionRatio() != 1 {
		t.Errorf("raw-stored trace reports ratio %.3f", st.CompressionRatio())
	}
}

// TestV3TruncationAtEveryOffset is the v3 crash-safety acceptance
// test, mirroring TestV2TruncationAtEveryOffset: cut anywhere, and
// salvage recovers exactly the events of every complete frame before
// the cut — compressed or not.
func TestV3TruncationAtEveryOffset(t *testing.T) {
	for _, compress := range []bool{false, true} {
		name := "raw"
		if compress {
			name = "flate"
		}
		t.Run(name, func(t *testing.T) {
			sym := event.NewSymtab()
			sym.Intern("fn")
			evs := v3TestEvents(60)
			data := writeV3(t, evs, sym, 5, compress)
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
				if _, _, err := Replay(bytes.NewReader(data[:cut]), event.SinkFunc(func(event.Event) {})); !errors.Is(err, ErrCorrupt) {
					t.Fatalf("cut=%d: strict replay err = %v, want ErrCorrupt", cut, err)
				}
			}
		})
	}
}

// TestV3BitFlipDetected flips every body byte of v3 traces (raw and
// compressed): strict replay must reject each mutant, salvage must
// never panic and must only ever deliver a prefix of the true events.
func TestV3BitFlipDetected(t *testing.T) {
	for _, compress := range []bool{false, true} {
		name := "raw"
		if compress {
			name = "flate"
		}
		t.Run(name, func(t *testing.T) {
			evs := v3TestEvents(40)
			data := writeV3(t, evs, nil, 6, compress)
			for i := 8; i < len(data); i++ {
				mut := bytes.Clone(data)
				mut[i] ^= 0x40
				if _, _, err := Replay(bytes.NewReader(mut), event.SinkFunc(func(event.Event) {})); err == nil {
					t.Fatalf("flip at %d: strict replay accepted a corrupted trace", i)
				}
				var got []event.Event
				if _, _, err := Salvage(bytes.NewReader(mut), collectSink(&got)); err != nil {
					t.Fatalf("flip at %d: salvage errored: %v", i, err)
				}
				for j := range got {
					if got[j] != evs[j] {
						t.Fatalf("flip at %d: salvage delivered corrupted event %d", i, j)
					}
				}
			}
		})
	}
}

// corruptV3Frame rewrites the first event frame of a v3 trace with a
// payload-mangling function and a fresh (valid) CRC, simulating
// writer-side damage the checksum cannot catch.
func corruptV3Frame(t *testing.T, data []byte, mangle func(payload []byte) []byte) []byte {
	t.Helper()
	off := 8
	for off < len(data) {
		kind := data[off]
		payloadLen := int(binary.LittleEndian.Uint32(data[off+1:]))
		if kind != frameEvents {
			off += frameHeaderSize + payloadLen
			continue
		}
		payload := mangle(bytes.Clone(data[off+frameHeaderSize : off+frameHeaderSize+payloadLen]))
		out := bytes.Clone(data[:off])
		var hdr [frameHeaderSize]byte
		hdr[0] = frameEvents
		binary.LittleEndian.PutUint32(hdr[1:], uint32(len(payload)))
		binary.LittleEndian.PutUint32(hdr[5:], crc32.Checksum(payload, crcTable))
		out = append(out, hdr[:]...)
		out = append(out, payload...)
		out = append(out, data[off+frameHeaderSize+payloadLen:]...)
		return out
	}
	t.Fatal("no event frame found")
	return nil
}

// TestV3StructuralCorruption exercises CRC-valid but structurally
// damaged v3 event frames: unknown codec, lying counts, ragged
// columns, short headers. Strict replay must reject each; salvage
// must stop cleanly before the bad frame.
func TestV3StructuralCorruption(t *testing.T) {
	evs := v3TestEvents(3 * DefaultBatchRecords)
	data := writeV3(t, evs, nil, 0, false)
	cases := map[string]func(p []byte) []byte{
		"unknown codec":  func(p []byte) []byte { p[0] = 0x7f; return p },
		"oversize count": func(p []byte) []byte { binary.LittleEndian.PutUint32(p[1:], maxFrameRecords+1); return p },
		"lying count":    func(p []byte) []byte { binary.LittleEndian.PutUint32(p[1:], 9999); return p },
		"short header":   func(p []byte) []byte { return p[:3] },
		"trailing bytes": func(p []byte) []byte { return append(p, 0, 0, 0) },
		"truncated columns": func(p []byte) []byte {
			return p[:len(p)-4]
		},
		"bad compressed body": func(p []byte) []byte {
			p[0] = codecFlate // declare flate over what is raw column data
			return p
		},
	}
	for name, mangle := range cases {
		t.Run(name, func(t *testing.T) {
			mut := corruptV3Frame(t, data, mangle)
			if _, _, err := Replay(bytes.NewReader(mut), event.SinkFunc(func(event.Event) {})); !errors.Is(err, ErrCorrupt) {
				t.Errorf("strict replay err = %v, want ErrCorrupt", err)
			}
			var got []event.Event
			_, info, err := Salvage(bytes.NewReader(mut), collectSink(&got))
			if err != nil {
				t.Fatalf("salvage errored: %v", err)
			}
			if !info.Truncated && info.BytesDropped == 0 {
				t.Error("salvage reported a damaged trace clean")
			}
			for i := range got {
				if got[i] != evs[i] {
					t.Fatalf("salvage delivered corrupted event %d", i)
				}
			}
		})
	}
}

// TestV3ReadAheadEquivalence checks the one-worker pipeline (the
// DecodeWorkers setting that once selected a read-ahead goroutine)
// against the synchronous reader on v3, raw and compressed: identical
// events, errors and SalvageInfo, plus identical Stats, on clean,
// truncated and bit-flipped traces.
func TestV3ReadAheadEquivalence(t *testing.T) {
	for _, compress := range []bool{false, true} {
		sym := event.NewSymtab()
		sym.Intern("alpha")
		evs := v3TestEvents(4 * shortFrame)
		clean := writeV3(t, evs, sym, shortFrame, compress)

		variants := [][]byte{clean}
		for cut := 9; cut < len(clean); cut += 97 {
			variants = append(variants, clean[:cut])
		}
		flipped := bytes.Clone(clean)
		flipped[len(flipped)/2] ^= 0x40
		variants = append(variants, flipped)

		for vi, data := range variants {
			var syncEvents, raEvents []event.Event
			var syncStats, raStats Stats
			_, syncN, syncErr := ReplayWith(bytes.NewReader(data), collectSink(&syncEvents), ReadOptions{Stats: &syncStats})
			_, raN, raErr := ReplayWith(bytes.NewReader(data), collectSink(&raEvents), ReadOptions{DecodeWorkers: 1, Stats: &raStats})
			if (syncErr == nil) != (raErr == nil) ||
				(syncErr != nil && syncErr.Error() != raErr.Error()) {
				t.Fatalf("compress=%v variant %d: sync err %v, readahead err %v", compress, vi, syncErr, raErr)
			}
			if syncN != raN || len(syncEvents) != len(raEvents) {
				t.Fatalf("compress=%v variant %d: sync %d events, readahead %d", compress, vi, syncN, raN)
			}
			for i := range syncEvents {
				if syncEvents[i] != raEvents[i] {
					t.Fatalf("compress=%v variant %d: event %d differs", compress, vi, i)
				}
			}
			// DecodeWorkers legitimately differs between the readers;
			// every trace-shape field must match.
			if syncStats.shape() != raStats.shape() {
				t.Fatalf("compress=%v variant %d: stats %+v vs %+v", compress, vi, syncStats, raStats)
			}

			var syncSalv, raSalv []event.Event
			_, syncInfo, err1 := SalvageWith(bytes.NewReader(data), collectSink(&syncSalv), ReadOptions{})
			_, raInfo, err2 := SalvageWith(bytes.NewReader(data), collectSink(&raSalv), ReadOptions{DecodeWorkers: 1})
			if err1 != nil || err2 != nil {
				t.Fatalf("compress=%v variant %d salvage: errs %v, %v", compress, vi, err1, err2)
			}
			if *syncInfo != *raInfo || len(syncSalv) != len(raSalv) {
				t.Fatalf("compress=%v variant %d salvage: info %+v vs %+v", compress, vi, *syncInfo, *raInfo)
			}
		}
	}
}

// TestV3Stats checks the replay accounting a clean v3 trace reports:
// version, totals, frame counts, and a compression ratio > 1 when the
// flate pass actually ran.
func TestV3Stats(t *testing.T) {
	evs := v3TestEvents(4 * DefaultBatchRecords)
	for _, tc := range []struct {
		name     string
		compress bool
	}{{"raw", false}, {"flate", true}} {
		t.Run(tc.name, func(t *testing.T) {
			data := writeV3(t, evs, nil, 0, tc.compress)
			var st Stats
			var c tally
			_, n, err := ReplayWith(bytes.NewReader(data), &c, ReadOptions{Stats: &st})
			if err != nil {
				t.Fatal(err)
			}
			if st.Version != VersionV3 || st.TotalBytes != uint64(len(data)) || st.Events != n {
				t.Errorf("stats = %+v, want version 3, %d bytes, %d events", st, len(data), n)
			}
			if st.EventFrames != 4 {
				t.Errorf("EventFrames = %d, want 4", st.EventFrames)
			}
			if st.BytesPerEvent() <= 0 || st.BytesPerEvent() > recordSize {
				t.Errorf("BytesPerEvent = %.2f out of range", st.BytesPerEvent())
			}
			if tc.compress {
				if st.CompressedFrames == 0 || st.CompressionRatio() <= 1 {
					t.Errorf("compressed trace: frames=%d ratio=%.2f", st.CompressedFrames, st.CompressionRatio())
				}
			} else if st.CompressedFrames != 0 || st.CompressionRatio() != 1 {
				t.Errorf("raw trace: frames=%d ratio=%.2f", st.CompressedFrames, st.CompressionRatio())
			}
		})
	}
}

// TestWriterEmitAllocs is the encode-path counterpart of
// TestReplayFrameDecodeAllocs: emitting 64x more event frames may not
// cost more allocations than a short run, proving the batch, columnar,
// compression and symtab-checkpoint scratch buffers are reused across
// frames.
func TestWriterEmitAllocs(t *testing.T) {
	evs := v3TestEvents(DefaultBatchRecords)
	sym := event.NewSymtab()
	for i := 0; i < 200; i++ {
		sym.Intern(fmt.Sprintf("fn%03d", i))
	}
	measure := func(opts WriterOptions, withSym bool, frames int) float64 {
		return testing.AllocsPerRun(10, func() {
			w, err := NewWriterWith(io.Discard, opts)
			if err != nil {
				t.Fatal(err)
			}
			if withSym {
				w.SetSymtab(sym) // a checkpoint after every frame
			}
			for f := 0; f < frames; f++ {
				for _, e := range evs {
					w.Emit(e)
				}
			}
			if err := w.Close(nil); err != nil {
				t.Fatal(err)
			}
		})
	}
	for _, tc := range []struct {
		name    string
		opts    WriterOptions
		withSym bool
		slack   float64
	}{
		{"v3", WriterOptions{Version: VersionV3}, false, 0},
		{"v3-symtab", WriterOptions{Version: VersionV3}, true, 0},
		// flate's Reset keeps its state but the stdlib may still grow
		// internal tables once; allow a few allocs, nothing per frame.
		{"v3-flate", WriterOptions{Version: VersionV3, Compress: true}, false, 8},
		{"v3-flate-symtab", WriterOptions{Version: VersionV3, Compress: true}, true, 8},
	} {
		aSmall, aLarge := measure(tc.opts, tc.withSym, 2), measure(tc.opts, tc.withSym, 128)
		if aLarge > aSmall+tc.slack {
			t.Errorf("%s: 128-frame write allocates %.0f, 2-frame allocates %.0f — encode path allocates per frame",
				tc.name, aLarge, aSmall)
		}
	}
}

// failAfterWriter fails every Write after the first n bytes.
type failAfterWriter struct {
	n      int
	err    error
	writes int // Write calls made after the first failure
}

func (w *failAfterWriter) Write(p []byte) (int, error) {
	if w.n <= 0 {
		w.writes++
		return 0, w.err
	}
	if len(p) > w.n {
		n := w.n
		w.n = 0
		return n, w.err
	}
	w.n -= len(p)
	return len(p), nil
}

// TestWriterError: an I/O failure is sticky. Once a write fails, Flush
// and Close both return that error, later Emits are dropped, and the
// Writer never touches the underlying writer again.
func TestWriterError(t *testing.T) {
	errBoom := errors.New("disk full")
	evs := v3TestEvents(4 * DefaultBatchRecords)
	for _, compress := range []bool{false, true} {
		fw := &failAfterWriter{n: 300, err: errBoom}
		w, err := NewWriterWith(fw, WriterOptions{Version: VersionV3, Compress: compress})
		if err != nil {
			t.Fatal(err)
		}
		for _, e := range evs {
			w.Emit(e)
		}
		if err := w.Flush(); !errors.Is(err, errBoom) {
			t.Fatalf("compress=%v: Flush = %v, want %v", compress, err, errBoom)
		}
		n, writes := w.Events(), fw.writes
		for _, e := range evs[:DefaultBatchRecords] {
			w.Emit(e)
		}
		if w.Events() != n {
			t.Errorf("compress=%v: Emit after a failed write counted %d more events", compress, w.Events()-n)
		}
		if err := w.Flush(); !errors.Is(err, errBoom) {
			t.Errorf("compress=%v: second Flush = %v, want %v", compress, err, errBoom)
		}
		if err := w.Close(nil); !errors.Is(err, errBoom) {
			t.Errorf("compress=%v: Close = %v, want %v", compress, err, errBoom)
		}
		if fw.writes != writes {
			t.Errorf("compress=%v: %d writes reached the failed writer after the error", compress, fw.writes-writes)
		}
	}
}

// TestWriterRejectsV2: v2 is read-only, so asking for it must fail
// rather than silently write v3.
func TestWriterRejectsV2(t *testing.T) {
	var buf bytes.Buffer
	if _, err := NewWriterWith(&buf, WriterOptions{Version: VersionV2}); err == nil {
		t.Fatal("writer accepted format v2")
	}
}
