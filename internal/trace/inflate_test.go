package trace

import (
	"bytes"
	"compress/flate"
	"io"
	"math/rand"
	"os"
	"path/filepath"
	"testing"

	"heapmd/internal/event"
)

// inflateStdlib is the reference decoder: the stdlib flate reader
// with the codec's output bound. Returns the decoded bytes, or an
// error when the stream is malformed, truncated, or inflates past
// max. (The pre-PR8 codec wrapper used io.ReadFull, which conflated
// the decompressor's own io.ErrUnexpectedEOF — a truncated stream —
// with a stream that simply produced fewer than max bytes, silently
// accepting truncated input; the custom inflater follows the actual
// stdlib semantics and rejects it.)
func inflateStdlib(body []byte, max int) ([]byte, error) {
	fr := flate.NewReader(bytes.NewReader(body))
	dst := make([]byte, 0, max)
	buf := make([]byte, 4096)
	for {
		n, err := fr.Read(buf)
		if len(dst)+n > max {
			return nil, errOversizedFrame
		}
		dst = append(dst, buf[:n]...)
		if err == io.EOF {
			return dst, nil
		}
		if err != nil {
			return nil, err
		}
	}
}

// inflateCustom runs the package inflater with the same contract.
func inflateCustom(body []byte, max int) ([]byte, error) {
	var d inflater
	return inflateInto(&d, nil, body, max)
}

// inflateInto decodes body with d into dst, grown to max bytes when it
// is shorter, as the frame decoder does, and returns the decoded bytes.
func inflateInto(d *inflater, dst, body []byte, max int) ([]byte, error) {
	if cap(dst) < max {
		dst = make([]byte, max)
	}
	n, err := d.decompress(dst[:max], body)
	if err != nil {
		return nil, err
	}
	return dst[:n], nil
}

// deflateLevel compresses payload at the given stdlib level.
func deflateLevel(t testing.TB, payload []byte, level int) []byte {
	t.Helper()
	var buf bytes.Buffer
	fw, err := flate.NewWriter(&buf, level)
	if err != nil {
		t.Fatalf("flate.NewWriter(level %d): %v", level, err)
	}
	if _, err := fw.Write(payload); err != nil {
		t.Fatalf("compress: %v", err)
	}
	if err := fw.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}
	return buf.Bytes()
}

// inflatePayloads builds a spread of payload shapes: empty, tiny,
// runny (RLE-like matches, distance 1), random (mostly literals),
// columnar-like (what v3 frames actually contain), and long repeats
// at varied distances (exercises overlapping and far copies).
func inflatePayloads(t testing.TB) map[string][]byte {
	t.Helper()
	rng := rand.New(rand.NewSource(42))
	random := make([]byte, 1<<16)
	rng.Read(random)
	runny := make([]byte, 1<<16)
	for i := range runny {
		runny[i] = byte(i / 997)
	}
	periodic := make([]byte, 1<<16)
	for i := range periodic {
		periodic[i] = byte(i % 313)
	}
	evs := v3TestEvents(4096)
	columnar := encodeColumns(nil, evs)
	mixed := make([]byte, 0, 1<<15)
	for len(mixed) < 1<<15 {
		n := 1 + rng.Intn(64)
		if rng.Intn(2) == 0 {
			b := byte(rng.Intn(256))
			for i := 0; i < n; i++ {
				mixed = append(mixed, b)
			}
		} else {
			for i := 0; i < n; i++ {
				mixed = append(mixed, byte(rng.Intn(256)))
			}
		}
	}
	return map[string][]byte{
		"empty":    {},
		"one":      {0x5a},
		"tiny":     []byte("abcabcabcabc"),
		"random":   random,
		"runny":    runny,
		"periodic": periodic,
		"columnar": columnar,
		"mixed":    mixed,
	}
}

// TestInflateDifferential round-trips every payload shape through
// every stdlib compression level and demands byte-identical output
// from the custom inflater, at a loose bound, an exact-size bound,
// and a too-small bound (which must yield errOversizedFrame).
func TestInflateDifferential(t *testing.T) {
	levels := []int{flate.NoCompression, flate.BestSpeed, 6, flate.BestCompression, flate.HuffmanOnly}
	for name, payload := range inflatePayloads(t) {
		for _, level := range levels {
			body := deflateLevel(t, payload, level)
			max := len(payload) + 64
			want, wantErr := inflateStdlib(body, max)
			got, gotErr := inflateCustom(body, max)
			if wantErr != nil || gotErr != nil {
				t.Fatalf("%s/level %d: clean stream rejected: stdlib err %v, custom err %v", name, level, wantErr, gotErr)
			}
			if !bytes.Equal(want, got) {
				t.Fatalf("%s/level %d: output mismatch: stdlib %d bytes, custom %d bytes", name, level, len(want), len(got))
			}
			if !bytes.Equal(got, payload) {
				t.Fatalf("%s/level %d: round-trip mismatch", name, level)
			}
			// Exact bound: produces exactly len(payload) bytes, no more.
			if got, err := inflateCustom(body, len(payload)); err != nil {
				t.Fatalf("%s/level %d: exact-size bound failed: %v", name, level, err)
			} else if !bytes.Equal(got, payload) {
				t.Fatalf("%s/level %d: exact-size output mismatch", name, level)
			}
			// Undersized bound: the oversize guard must fire, as it does
			// on the stdlib path.
			if len(payload) > 0 {
				if _, err := inflateCustom(body, len(payload)-1); err != errOversizedFrame {
					t.Fatalf("%s/level %d: undersized bound: got err %v, want errOversizedFrame", name, level, err)
				}
				if _, err := inflateStdlib(body, len(payload)-1); err != errOversizedFrame {
					t.Fatalf("%s/level %d: stdlib undersized bound: got err %v", name, level, err)
				}
			}
		}
	}
}

// TestInflateReuse decodes many streams through one inflater in
// varied order — reused tables and scratch must not leak state between
// streams.
func TestInflateReuse(t *testing.T) {
	var c inflater
	payloads := inflatePayloads(t)
	names := make([]string, 0, len(payloads))
	for name := range payloads {
		names = append(names, name)
	}
	rng := rand.New(rand.NewSource(7))
	var dst []byte
	for i := 0; i < 64; i++ {
		name := names[rng.Intn(len(names))]
		payload := payloads[name]
		level := []int{flate.NoCompression, flate.BestSpeed, 6, flate.HuffmanOnly}[rng.Intn(4)]
		body := deflateLevel(t, payload, level)
		got, err := inflateInto(&c, dst, body, len(payload)+64)
		if err != nil {
			t.Fatalf("iter %d (%s, level %d): %v", i, name, level, err)
		}
		if !bytes.Equal(got, payload) {
			t.Fatalf("iter %d (%s, level %d): output mismatch", i, name, level)
		}
		dst = got[:0]
	}
}

// TestInflateTruncation cuts a valid stream at every byte offset; the
// custom decoder must reject every cut the stdlib rejects and may
// never succeed with different bytes. (A truncated DEFLATE stream can
// still be "complete" if the cut lands after the final block's EOB —
// both decoders must then agree on the output.)
func TestInflateTruncation(t *testing.T) {
	payloads := inflatePayloads(t)
	for _, name := range []string{"tiny", "columnar", "mixed"} {
		payload := payloads[name]
		for _, level := range []int{flate.NoCompression, flate.BestSpeed, 6} {
			body := deflateLevel(t, payload, level)
			max := len(payload) + 64
			for cut := 0; cut < len(body); cut++ {
				want, wantErr := inflateStdlib(body[:cut], max)
				got, gotErr := inflateCustom(body[:cut], max)
				if (wantErr == nil) != (gotErr == nil) {
					t.Fatalf("%s/level %d cut %d: stdlib err %v, custom err %v", name, level, cut, wantErr, gotErr)
				}
				if wantErr == nil && !bytes.Equal(want, got) {
					t.Fatalf("%s/level %d cut %d: output mismatch on accepted truncation", name, level, cut)
				}
			}
		}
	}
}

// TestInflateBitFlips flips every bit of a small stream and checks
// accept/reject + output agreement with the stdlib. Most flips are
// caught as corruption; some yield a different valid stream — then
// both decoders must produce identical bytes.
func TestInflateBitFlips(t *testing.T) {
	payload := []byte("the quick brown fox jumps over the lazy dog, twice over: the quick brown fox")
	for _, level := range []int{flate.NoCompression, flate.BestSpeed, 6} {
		body := deflateLevel(t, payload, level)
		max := len(payload) + 64
		for i := 0; i < len(body)*8; i++ {
			mut := bytes.Clone(body)
			mut[i/8] ^= 1 << (i % 8)
			want, wantErr := inflateStdlib(mut, max)
			got, gotErr := inflateCustom(mut, max)
			if (wantErr == nil) != (gotErr == nil) {
				t.Fatalf("level %d bit %d: stdlib err %v, custom err %v", level, i, wantErr, gotErr)
			}
			if wantErr == nil && !bytes.Equal(want, got) {
				t.Fatalf("level %d bit %d: output mismatch", level, i)
			}
		}
	}
}

// TestInflateTrailingGarbage: bytes after the final block are ignored
// by the stdlib reader and must be ignored here too (the frame body
// length is authoritative on this format, but the decoders must still
// agree).
func TestInflateTrailingGarbage(t *testing.T) {
	payload := []byte("hello hello hello hello")
	body := deflateLevel(t, payload, flate.BestSpeed)
	body = append(body, 0xde, 0xad, 0xbe, 0xef)
	got, err := inflateCustom(body, len(payload)+16)
	if err != nil {
		t.Fatalf("trailing garbage rejected: %v", err)
	}
	if !bytes.Equal(got, payload) {
		t.Fatalf("output mismatch with trailing garbage")
	}
}

// TestInflateRawRejected feeds raw (uncompressed) columnar bytes to
// the inflater — the exact shape of the "bad compressed body"
// structural corruption case in v3_test.go: a frame whose flags byte
// lies about the codec. It must not decode cleanly to the same bytes
// as the stdlib rejects.
func TestInflateRawRejected(t *testing.T) {
	body := encodeColumns(nil, v3TestEvents(512))
	max := len(body) + 64
	_, wantErr := inflateStdlib(body, max)
	_, gotErr := inflateCustom(body, max)
	if (wantErr == nil) != (gotErr == nil) {
		t.Fatalf("raw columnar body: stdlib err %v, custom err %v", wantErr, gotErr)
	}
}

// FuzzInflate drives arbitrary bytes through both decoders and
// requires them to agree on accept/reject and on every output byte.
// For a stream the stdlib accepts, the output bound is derived from
// its length: exact, up to 300 spare bytes, or one byte short, so the
// switch from the fast loop to the careful tail loop on the output
// margin lands everywhere in the stream.
func FuzzInflate(f *testing.F) {
	payloads := inflatePayloads(f)
	for _, name := range []string{"tiny", "columnar"} {
		for _, level := range []int{flate.NoCompression, flate.BestSpeed, 6, flate.HuffmanOnly} {
			for _, slack := range []uint16{0, 1, 266, 301} {
				f.Add(deflateLevel(f, payloads[name], level), slack)
			}
		}
	}
	f.Add([]byte{}, uint16(0))
	f.Add([]byte{0x01, 0x00, 0x00, 0xff, 0xff}, uint16(1)) // stored, n=0, final
	f.Add([]byte{0x03, 0x00}, uint16(1))                   // fixed, EOB only
	f.Add([]byte{0xed, 0xfd, 0x01}, uint16(0))             // dynamic header fragment
	f.Fuzz(func(t *testing.T, body []byte, slack uint16) {
		max := 1 << 17
		if ref, err := inflateStdlib(body, max); err == nil {
			max = len(ref) + int(slack%302) - 1
			if max < 0 {
				max = 0
			}
		}
		want, wantErr := inflateStdlib(body, max)
		got, gotErr := inflateCustom(body, max)
		if (wantErr == nil) != (gotErr == nil) {
			t.Fatalf("max %d: accept/reject mismatch: stdlib err %v, custom err %v", max, wantErr, gotErr)
		}
		if wantErr == nil && !bytes.Equal(want, got) {
			t.Fatalf("max %d: output mismatch: stdlib %d bytes, custom %d bytes", max, len(want), len(got))
		}
	})
}

// TestInflateFastLoopBoundary decodes streams full of 258-byte matches
// at distances 1–8 (each copy rule of the fast loop: the broadcast
// store, byte copies, overlapping word copies), with block ends near
// the end of the input, at every output bound from one byte short to
// 300 spare. Across that range the fast loop's output margin falls on
// every symbol of the last ~565 output bytes; both decoders must agree
// on the verdict and the bytes at every bound. Each stream is decoded
// as is, where the fast loop stops on the input margin before the
// last blocks, and with trailing bytes (ignored by both decoders) that
// keep the fast loop running to the final match.
func TestInflateFastLoopBoundary(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	noise := func(n int) []byte {
		b := make([]byte, n)
		rng.Read(b)
		return b
	}
	for dist := 1; dist <= 8; dist++ {
		run := make([]byte, 700)
		copy(run, noise(dist))
		for i := dist; i < len(run); i++ {
			run[i] = run[i-dist]
		}
		for _, tail := range []int{257, 258, 300} {
			// A sync flush between chunks ends a block there; the last
			// blocks end within a few bytes of the input end, the last
			// one on a long match.
			chunks := [][]byte{noise(40), run, noise(5), run[:tail]}
			var payload []byte
			for _, c := range chunks {
				payload = append(payload, c...)
			}
			for _, level := range []int{flate.BestSpeed, flate.BestCompression} {
				var buf bytes.Buffer
				fw, err := flate.NewWriter(&buf, level)
				if err != nil {
					t.Fatal(err)
				}
				for _, c := range chunks {
					fw.Write(c)
					fw.Flush()
				}
				fw.Close()
				for _, pad := range []int{0, 16} {
					body := append(bytes.Clone(buf.Bytes()), make([]byte, pad)...)
					for max := len(payload) - 1; max <= len(payload)+300; max++ {
						want, wantErr := inflateStdlib(body, max)
						got, gotErr := inflateCustom(body, max)
						if (wantErr == nil) != (gotErr == nil) || !bytes.Equal(want, got) {
							t.Fatalf("dist %d tail %d level %d pad %d max %d: stdlib %d bytes err %v, custom %d bytes err %v",
								dist, tail, level, pad, max, len(want), wantErr, len(got), gotErr)
						}
						if wantErr == nil && !bytes.Equal(got, payload) {
							t.Fatalf("dist %d tail %d level %d pad %d max %d: round-trip mismatch", dist, tail, level, pad, max)
						}
					}
				}
			}
		}
	}
}

// BenchmarkInflate measures the inflater alone on the frame bodies a
// real program's trace compresses to: the events of the checked-in
// mcf trace, cut into DefaultBatchRecords-record frames, column-
// encoded and deflated at the writer's level. ns/event is inflate
// time per decoded record.
func BenchmarkInflate(b *testing.B) {
	data, err := os.ReadFile(filepath.Join("testdata", "legacy-mcf-v3.trace"))
	if err != nil {
		b.Fatal(err)
	}
	var evs []event.Event
	if _, _, err := Replay(bytes.NewReader(data), event.SinkFunc(func(e event.Event) { evs = append(evs, e) })); err != nil {
		b.Fatal(err)
	}
	var bodies [][]byte
	raw := 0
	for i := 0; i < len(evs); i += DefaultBatchRecords {
		cols := encodeColumns(nil, evs[i:min(i+DefaultBatchRecords, len(evs))])
		raw += len(cols)
		bodies = append(bodies, deflateLevel(b, cols, flate.BestSpeed))
	}
	var c inflater
	var dst []byte
	b.SetBytes(int64(raw))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, body := range bodies {
			if dst, err = inflateInto(&c, dst, body, DefaultBatchRecords*maxEncodedRecord); err != nil {
				b.Fatal(err)
			}
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/(float64(len(evs))*float64(b.N)), "ns/event")
}
