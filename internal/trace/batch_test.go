package trace

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"runtime"
	"slices"
	"testing"

	"heapmd/internal/event"
)

// emitOnly wraps a sink so it does NOT satisfy event.BatchSink,
// forcing the per-event fallback in event.EmitAll.
type emitOnly struct{ s event.Sink }

func (w emitOnly) Emit(e event.Event) { w.s.Emit(e) }

// batchCollector records events and counts EmitBatch calls, copying
// each borrowed batch before returning as the contract requires.
type batchCollector struct {
	events  []event.Event
	batches int
	singles int
}

func (c *batchCollector) Emit(e event.Event) {
	c.singles++
	c.events = append(c.events, e)
}

func (c *batchCollector) EmitBatch(batch []event.Event) {
	c.batches++
	c.events = append(c.events, batch...)
}

// TestBatchSinkEquivalence checks that batch delivery reaches the sink
// through EmitBatch (not per-event Emit) and yields exactly the event
// sequence the per-event path yields.
func TestBatchSinkEquivalence(t *testing.T) {
	sym := event.NewSymtab()
	sym.Intern("alpha")
	sym.Intern("beta")
	evs := testEvents(3 * DefaultBatchRecords / 2) // multiple frames, last partial
	data := writeV3(t, evs, sym, 0, false)

	var perEvent []event.Event
	_, nSerial, err := Replay(bytes.NewReader(data), emitOnly{collectSink(&perEvent)})
	if err != nil {
		t.Fatal(err)
	}

	var bc batchCollector
	_, nBatch, err := Replay(bytes.NewReader(data), &bc)
	if err != nil {
		t.Fatal(err)
	}
	if bc.batches == 0 {
		t.Fatal("BatchSink.EmitBatch was never called")
	}
	if bc.singles != 0 {
		t.Fatalf("batch-capable sink received %d per-event Emit calls", bc.singles)
	}
	if nSerial != nBatch || len(perEvent) != len(bc.events) {
		t.Fatalf("per-event replayed %d/%d, batch replayed %d/%d",
			nSerial, len(perEvent), nBatch, len(bc.events))
	}
	for i := range perEvent {
		if perEvent[i] != bc.events[i] {
			t.Fatalf("event %d: per-event %+v, batch %+v", i, perEvent[i], bc.events[i])
		}
	}
}

// v2FrameTrace builds a v2 trace of n event frames by repeating the
// mcf-v2 fixture's 512-record event frames verbatim, closed by an end
// frame declaring their summed event count: long legacy traces for the
// decode-loop gate without a v2 writer.
func v2FrameTrace(t testing.TB, n int) []byte {
	fixture := legacyTrace(t, "mcf-v2")
	var frames [][]byte
	for off := 8; off < len(fixture); {
		size := frameHeaderSize + int(binary.LittleEndian.Uint32(fixture[off+1:]))
		if fixture[off] == frameEvents {
			frames = append(frames, fixture[off:off+size])
		}
		off += size
	}
	out := bytes.Clone(fixture[:8])
	var events uint64
	for i := 0; i < n; i++ {
		f := frames[i%len(frames)]
		out = append(out, f...)
		events += uint64(len(f)-frameHeaderSize) / recordSize
	}
	var end [8]byte
	binary.LittleEndian.PutUint64(end[:], events)
	out = append(out, frameEnd)
	out = binary.LittleEndian.AppendUint32(out, uint32(len(end)))
	out = binary.LittleEndian.AppendUint32(out, crc32.Checksum(end[:], crcTable))
	return append(out, end[:]...)
}

// TestReplayFrameDecodeAllocs is the zero-alloc gate for the frame
// decode loop: replaying a trace with 64x more event frames must cost
// exactly the same number of allocations as a small one, proving the
// payload and batch buffers are reused across frames and batch
// delivery allocates nothing per frame. The symtab cases checkpoint
// the symbol table after every frame, as recorded runs do: checkpoints
// are validated in place and only the last one is decoded. (The fixed
// per-call overhead — bufio.Reader, decoder, symtab, info — is
// allowed; scaling with frame count is not.)
func TestReplayFrameDecodeAllocs(t *testing.T) {
	sym := event.NewSymtab()
	for i := 0; i < 100; i++ {
		sym.Intern(fmt.Sprintf("fn%03d", i))
	}
	mkTrace := func(frames int, wopts WriterOptions, withSym bool) []byte {
		var buf bytes.Buffer
		w, err := NewWriterWith(&buf, wopts)
		if err != nil {
			t.Fatal(err)
		}
		if withSym {
			w.SetSymtab(sym)
		}
		for _, e := range testEvents(frames * DefaultBatchRecords) {
			w.Emit(e)
		}
		if err := w.Close(nil); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	measure := func(data []byte, opts ReadOptions) float64 {
		var c tally
		replay := func() {
			if _, _, err := ReplayWith(bytes.NewReader(data), &c, opts); err != nil {
				t.Fatal(err)
			}
		}
		return testing.AllocsPerRun(20, replay)
	}
	const smallFrames = 2
	for _, w := range []struct {
		name    string
		mkTrace func(frames int) []byte
		// flate's inflater keeps per-stream state the stdlib may top up
		// lazily; allow a handful of allocs, never one per frame.
		slack float64
	}{
		{"v2", func(frames int) []byte { return v2FrameTrace(t, frames) }, 0},
		{"v3", func(frames int) []byte { return mkTrace(frames, WriterOptions{}, false) }, 0},
		{"v3-symtab", func(frames int) []byte { return mkTrace(frames, WriterOptions{}, true) }, 0},
		{"v3-flate", func(frames int) []byte { return mkTrace(frames, WriterOptions{Compress: true}, false) }, 8},
		{"v3-flate-symtab", func(frames int) []byte { return mkTrace(frames, WriterOptions{Compress: true}, true) }, 8},
	} {
		small, large := w.mkTrace(smallFrames), w.mkTrace(128)
		for _, tc := range []struct {
			name  string
			opts  ReadOptions
			slack float64
		}{
			{"sync", ReadOptions{}, 0},
			// The one-worker pipeline blocks on channels, and the runtime
			// may allocate a sudog per park; allow a few allocs of noise
			// but nothing near one per frame (112 or more extra frames).
			{"pipeline-1", ReadOptions{DecodeWorkers: 1}, 8},
			// The decode pipeline allocates its channels, ring, and
			// per-worker decoder state once per replay — O(workers), not
			// O(frames). Parking on channels adds runtime noise.
			{"pipeline-3", ReadOptions{DecodeWorkers: 3}, 24},
		} {
			aSmall, aLarge := measure(small, tc.opts), measure(large, tc.opts)
			if aLarge > aSmall+tc.slack+w.slack {
				t.Errorf("%s/%s: 128-frame replay allocates %.0f, %d-frame allocates %.0f — decode loop allocates per frame",
					w.name, tc.name, aLarge, smallFrames, aSmall)
			}
		}
	}
}

// recycleBudget is what one replay of a trace may allocate once the
// recycled decode state is warm: the replay's stop channel and
// goroutines, closures, the symtab and SalvageInfo. It is a constant,
// so it cannot grow with DefaultBatchRecords, while a single unrecycled
// frame buffer (DefaultBatchRecords decoded events) already exceeds it.
// Warm medians measure 184, 352–976 and 360–2200 bytes at DecodeWorkers
// 0, 1 and 2 (linux/amd64, Go 1.24, 2 cores, 20 runs of both gates
// beside other test load); the budget leaves about twice the largest.
const recycleBudget = 4 << 10

// TestReplayRecyclesDecodeBuffers is the gate for recycling decode
// state across replays: back-to-back replays of one 32-frame
// flate-compressed v3 trace may each allocate at most recycleBudget
// bytes after the first, on every reader. The gate takes the median
// replay, which sheds the runtime's occasional allocations (a sudog
// for a parked goroutine, a grown stack).
func TestReplayRecyclesDecodeBuffers(t *testing.T) {
	const frames = 32
	data := flateTrace(t, frames)
	for _, workers := range []int{0, 1, 2} {
		var c tally
		var st Stats
		replay := func() uint64 {
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			if _, _, err := ReplayWith(bytes.NewReader(data), &c, ReadOptions{DecodeWorkers: workers, Stats: &st}); err != nil {
				t.Fatal(err)
			}
			runtime.ReadMemStats(&after)
			return after.TotalAlloc - before.TotalAlloc
		}
		first := replay()
		if st.EventFrames != frames || st.CompressedFrames != frames {
			t.Fatalf("trace has %d event frames, %d compressed; want %d of each", st.EventFrames, st.CompressedFrames, frames)
		}
		allocs := make([]uint64, 9)
		for i := range allocs {
			allocs[i] = replay()
		}
		slices.Sort(allocs)
		median := allocs[len(allocs)/2]
		t.Logf("DecodeWorkers %d: first replay allocates %d bytes, then a median %d (budget %d)",
			workers, first, median, recycleBudget)
		if median > recycleBudget {
			t.Errorf("DecodeWorkers %d: replay allocates a median %d bytes once warm, budget %d — decode state is not recycled",
				workers, median, recycleBudget)
		}
	}
}

// flateTrace returns a flate-compressed v3 trace of the given number of
// full event frames.
func flateTrace(t *testing.T, frames int) []byte {
	var buf bytes.Buffer
	w, err := NewWriterWith(&buf, WriterOptions{Version: VersionV3, Compress: true})
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range v3TestEvents(frames * DefaultBatchRecords) {
		w.Emit(e)
	}
	if err := w.Close(nil); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestDecodeReuseSurvivesGC: the decode state a replay hands back —
// reader, decoders, frame buffers, pipeline channels and ring — waits
// for the next replay however many garbage collections pass in
// between, so whether a replay rebuilds its decode state does not hang
// on GC timing. It is the decode-side twin of the logger's
// TestReuseSurvivesGC: the recycled state must survive three
// collections untouched, warm replays that each follow three
// collections must stay within recycleBudget (the median of five), and
// replays that alternate DecodeWorkers 2 → 0 → 2, as the benchmark's
// serial and default reps do, must keep the state's frame buffers.
func TestDecodeReuseSurvivesGC(t *testing.T) {
	data := flateTrace(t, 32)
	replay := func(workers int) uint64 {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		var c tally
		if _, _, err := ReplayWith(bytes.NewReader(data), &c, ReadOptions{DecodeWorkers: workers}); err != nil {
			t.Fatal(err)
		}
		runtime.ReadMemStats(&after)
		return after.TotalAlloc - before.TotalAlloc
	}
	// waiting returns the state the next replay takes, leaving it in
	// the list.
	waiting := func() *decodeState {
		s := decodeStates.Get()
		if s != nil {
			decodeStates.Put(s)
		}
		return s
	}
	for decodeStates.Get() != nil { // build afresh
	}
	for range 3 {
		replay(2)
	}
	st := waiting()
	if st == nil || len(st.bufs) != 6 || len(st.decs) != 2 || cap(st.free) != 6 {
		t.Fatalf("replays at DecodeWorkers 2 handed back %+v; want 6 frame buffers, 2 decoders, depth-6 channels", st)
	}
	bufs, decs, free := slices.Clone(st.bufs), slices.Clone(st.decs), st.free
	kept := func(when string) {
		t.Helper()
		if s := waiting(); s != st || !slices.Equal(s.bufs, bufs) || !slices.Equal(s.decs, decs) || s.free != free {
			t.Fatalf("%s: the next replay would not take the recycled decode state", when)
		}
	}
	for range 3 {
		runtime.GC()
	}
	kept("after three GCs")
	for _, workers := range []int{0, 2, 0, 2} {
		replay(workers)
		kept(fmt.Sprintf("after a replay at DecodeWorkers %d", workers))
	}
	for _, workers := range []int{0, 2} {
		allocs := make([]uint64, 5)
		for i := range allocs {
			for range 3 {
				runtime.GC()
			}
			allocs[i] = replay(workers)
		}
		slices.Sort(allocs)
		median := allocs[len(allocs)/2]
		t.Logf("DecodeWorkers %d: a warm replay after three GCs allocates a median %d bytes (budget %d)", workers, median, recycleBudget)
		if median > recycleBudget {
			t.Errorf("DecodeWorkers %d: a warm replay after three GCs allocates a median %d bytes, budget %d — it rebuilt its decode state",
				workers, median, recycleBudget)
		}
	}
	kept("after the warm replays")
}
