package trace

import (
	"bytes"
	"fmt"
	"runtime"
	"sync"
	"testing"
	"time"

	"heapmd/internal/event"
)

// parallelWorkerCounts is the oracle's worker matrix: a lone worker
// (1), the smallest real pool (2), and a host-sized pool (at
// least 4 so the resequencer sees real fan-out even on small CI
// boxes).
func parallelWorkerCounts() []int {
	wmax := runtime.GOMAXPROCS(0)
	if wmax < 4 {
		wmax = 4
	}
	return []int{1, 2, wmax}
}

// replayOutcome captures everything externally observable about one
// replay: events, symbols, counts, error text, salvage report, and
// the trace-shape Stats.
type replayOutcome struct {
	events []event.Event
	syms   []string
	n      uint64
	errStr string
	info   SalvageInfo
	stats  Stats
}

func runReplay(t *testing.T, data []byte, salvage bool, workers int) replayOutcome {
	t.Helper()
	var out replayOutcome
	var st Stats
	opts := ReadOptions{DecodeWorkers: workers, Stats: &st}
	if salvage {
		sym, info, err := SalvageWith(bytes.NewReader(data), collectSink(&out.events), opts)
		if err != nil {
			out.errStr = err.Error()
		} else {
			out.info = *info
			out.n = info.EventsRecovered
		}
		if sym != nil {
			out.syms = symNames(sym)
		}
	} else {
		sym, n, err := ReplayWith(bytes.NewReader(data), collectSink(&out.events), opts)
		out.n = n
		if err != nil {
			out.errStr = err.Error()
		}
		if sym != nil {
			out.syms = symNames(sym)
		}
	}
	out.stats = st.shape()
	return out
}

func symNames(sym *event.Symtab) []string {
	names := make([]string, 0, sym.Len())
	for id := event.FnID(1); id <= event.FnID(sym.Len()); id++ {
		names = append(names, sym.Name(id))
	}
	return names
}

func diffOutcome(serial, parallel replayOutcome) string {
	if serial.errStr != parallel.errStr {
		return fmt.Sprintf("error %q vs %q", serial.errStr, parallel.errStr)
	}
	if serial.n != parallel.n || len(serial.events) != len(parallel.events) {
		return fmt.Sprintf("events %d (%d delivered) vs %d (%d delivered)",
			serial.n, len(serial.events), parallel.n, len(parallel.events))
	}
	for i := range serial.events {
		if serial.events[i] != parallel.events[i] {
			return fmt.Sprintf("event %d differs", i)
		}
	}
	if len(serial.syms) != len(parallel.syms) {
		return fmt.Sprintf("symtab size %d vs %d", len(serial.syms), len(parallel.syms))
	}
	for i := range serial.syms {
		if serial.syms[i] != parallel.syms[i] {
			return fmt.Sprintf("symbol %d %q vs %q", i, serial.syms[i], parallel.syms[i])
		}
	}
	if serial.info != parallel.info {
		return fmt.Sprintf("salvage info %+v vs %+v", serial.info, parallel.info)
	}
	if serial.stats != parallel.stats {
		return fmt.Sprintf("stats %+v vs %+v", serial.stats, parallel.stats)
	}
	return ""
}

// parallelOracleTraces builds small many-framed traces in every framed
// format (plus damage-friendly extras): the cross-version matrix the
// parallel reader must replay identically to the serial one. The v2
// rows are the checked-in fixtures: small-v2 holds the same events,
// symbols and framing as the v3 row, and mcf-v2's twelve frames
// outnumber the pipeline's buffers at one, two and four workers.
func parallelOracleTraces(t *testing.T) map[string][]byte {
	evs, sym := smallFixtureEvents(), smallFixtureSymtab()
	big := v3TestEvents(3*shortFrame + 17)

	traces := map[string][]byte{
		"v2":       legacyTrace(t, "small-v2"),
		"v3":       writeV3(t, evs, sym, 5, false),
		"v3-flate": writeV3(t, evs, sym, 5, true),
		"v2-big":   legacyTrace(t, "mcf-v2"),
		"v3-big":   writeV3(t, big, sym, shortFrame, false),
		"v3z-big":  writeV3(t, big, sym, shortFrame, true),
	}
	// Trailing garbage after a valid end frame: scanner must stop at
	// the end frame and report the same trailing-byte error/salvage.
	traces["v3-trailing"] = append(bytes.Clone(traces["v3"]), 0xde, 0xad, 0xbe, 0xef)
	return traces
}

// TestParallelDecodeEquivalence is the oracle at the heart of the
// pipeline: for every framed format, every worker count, strict and
// salvage modes, the parallel reader must match the serial reader
// event-for-event, symbol-for-symbol, error-for-error — on the clean
// trace and on every truncation of it at every byte offset.
func TestParallelDecodeEquivalence(t *testing.T) {
	for name, data := range parallelOracleTraces(t) {
		t.Run(name, func(t *testing.T) {
			// Every-offset truncation on the small traces; strided on the
			// big ones (which exist to cross frame-count > depth).
			stride := 1
			if len(data) > 4096 {
				stride = 211
			}
			variants := [][]byte{data}
			for cut := 0; cut < len(data); cut += stride {
				variants = append(variants, data[:cut])
			}
			for _, workers := range parallelWorkerCounts() {
				for _, salvage := range []bool{false, true} {
					for vi, v := range variants {
						serial := runReplay(t, v, salvage, 0)
						parallel := runReplay(t, v, salvage, workers)
						if d := diffOutcome(serial, parallel); d != "" {
							t.Fatalf("workers=%d salvage=%v variant=%d (len %d): %s",
								workers, salvage, vi, len(v), d)
						}
					}
				}
			}
		})
	}
}

// TestParallelBitFlipEquivalence flips every byte of a compressed v3
// trace and of the v2 fixture — frame headers, CRCs, compressed bodies,
// fixed-width records — and demands the parallel readers agree with the
// serial one on the exact failure.
func TestParallelBitFlipEquivalence(t *testing.T) {
	sym := event.NewSymtab()
	sym.Intern("alpha")
	traces := map[string][]byte{
		"v3-flate": writeV3(t, v3TestEvents(30), sym, 5, true),
		"v2":       legacyTrace(t, "small-v2"),
	}
	for name, data := range traces {
		for _, workers := range parallelWorkerCounts() {
			for i := range data {
				mut := bytes.Clone(data)
				mut[i] ^= 0x40
				serial := runReplay(t, mut, false, 0)
				parallel := runReplay(t, mut, false, workers)
				if d := diffOutcome(serial, parallel); d != "" {
					t.Fatalf("%s workers=%d flipped byte %d: %s", name, workers, i, d)
				}
				serialS := runReplay(t, mut, true, 0)
				parallelS := runReplay(t, mut, true, workers)
				if d := diffOutcome(serialS, parallelS); d != "" {
					t.Fatalf("%s workers=%d flipped byte %d salvage: %s", name, workers, i, d)
				}
			}
		}
	}
}

// TestParallelV1Serial: v1 traces have no frames; any DecodeWorkers
// setting must fall back to the synchronous reader and record that in
// Stats.
func TestParallelV1Serial(t *testing.T) {
	evs := smallFixtureEvents()
	var st Stats
	var got []event.Event
	_, n, err := ReplayWith(bytes.NewReader(legacyTrace(t, "small-v1")), collectSink(&got), ReadOptions{DecodeWorkers: 8, Stats: &st})
	if err != nil || n != uint64(len(evs)) {
		t.Fatalf("v1 replay with workers: n=%d err=%v", n, err)
	}
	if st.DecodeWorkers != 0 {
		t.Errorf("v1 DecodeWorkers = %d, want 0 (unframed format reads synchronously)", st.DecodeWorkers)
	}
}

// TestParallelStats: the pipeline must report its worker count, and a
// sink much slower than decode must register scanner stalls (every
// buffer waits downstream while the scanner has frames ready).
func TestParallelStats(t *testing.T) {
	data := writeV3(t, v3TestEvents(64*8), nil, 8, false) // 64 frames
	var st Stats
	slowBatch := batchSinkFunc(func(evs []event.Event) {
		time.Sleep(500 * time.Microsecond)
	})
	_, n, err := ReplayWith(bytes.NewReader(data), slowBatch, ReadOptions{DecodeWorkers: 2, Stats: &st})
	if err != nil {
		t.Fatal(err)
	}
	if n != 64*8 {
		t.Fatalf("replayed %d events, want %d", n, 64*8)
	}
	if st.DecodeWorkers != 2 {
		t.Errorf("DecodeWorkers = %d, want 2", st.DecodeWorkers)
	}
	if st.ScannerStalls == 0 {
		t.Errorf("ScannerStalls = 0 over %d frames with a slow sink; scanner should have outrun the pipeline", st.EventFrames)
	}
}

// batchSinkFunc adapts a func to event.BatchSink.
type batchSinkFunc func([]event.Event)

func (f batchSinkFunc) Emit(e event.Event)          { f([]event.Event{e}) }
func (f batchSinkFunc) EmitBatch(evs []event.Event) { f(evs) }

// TestParallelReplayThroughputGate: on a multi-core machine, the
// decode pipeline must actually buy throughput on compressed traces —
// inflate is ~3/4 of serial flate-replay cost, so fanning it out
// across ≥ 4 cores must at least double events/sec versus the
// synchronous decoder. Skipped below 4 cores (this is a parallelism
// gate; the single-core case is covered by the equivalence oracle and
// by DefaultDecodeWorkers resolving to synchronous there).
func TestParallelReplayThroughputGate(t *testing.T) {
	if runtime.GOMAXPROCS(0) < 4 {
		t.Skipf("GOMAXPROCS=%d: pipeline speedup unobservable, skipping throughput gate", runtime.GOMAXPROCS(0))
	}
	if testing.Short() {
		t.Skip("short mode")
	}
	const events = 1 << 20
	data := writeV3(t, v3TestEvents(events), nil, 0, true)

	run := func(workers int) float64 {
		best := 0.0
		for trial := 0; trial < 3; trial++ {
			var c tally
			start := time.Now()
			_, n, err := ReplayWith(bytes.NewReader(data), &c, ReadOptions{DecodeWorkers: workers})
			if err != nil || n != events {
				t.Fatalf("workers=%d: n=%d err=%v", workers, n, err)
			}
			if rate := float64(events) / time.Since(start).Seconds(); rate > best {
				best = rate
			}
		}
		return best
	}

	serial := run(0)
	parallel := run(runtime.GOMAXPROCS(0))
	t.Logf("v3-flate replay: serial %.1fM ev/s, parallel %.1fM ev/s (%.2fx, %d cores)",
		serial/1e6, parallel/1e6, parallel/serial, runtime.GOMAXPROCS(0))
	if parallel < 2*serial {
		t.Errorf("parallel flate replay %.1fM ev/s is under 2x serial %.1fM ev/s on %d cores",
			parallel/1e6, serial/1e6, runtime.GOMAXPROCS(0))
	}
}

// TestParallelNoGoroutineLeak: every exit path — clean end, strict
// corruption (early consumer exit), salvage — must tear the pipeline
// down completely; halt() waits for the scanner and every worker.
func TestParallelNoGoroutineLeak(t *testing.T) {
	clean := writeV3(t, v3TestEvents(200), nil, 10, true)
	cut := clean[:len(clean)*2/3]
	flipped := bytes.Clone(clean)
	flipped[len(flipped)/3] ^= 0x01

	before := runtime.NumGoroutine()
	for i := 0; i < 50; i++ {
		for _, data := range [][]byte{clean, cut, flipped} {
			var c tally
			ReplayWith(bytes.NewReader(data), &c, ReadOptions{DecodeWorkers: 3})
			SalvageWith(bytes.NewReader(data), &c, ReadOptions{DecodeWorkers: 3})
		}
	}
	// halt() waits synchronously, so no settling loop should be needed;
	// allow a little scheduler noise anyway.
	deadline := time.Now().Add(2 * time.Second)
	for {
		after := runtime.NumGoroutine()
		if after <= before+2 {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("goroutines grew from %d to %d after parallel replays", before, after)
		}
		runtime.Gosched()
		time.Sleep(10 * time.Millisecond)
	}
}

// TestParallelReplaysSharePools runs replays of differently shaped
// traces — the v2 fixture and v3, raw and flate, clean and damaged — on several
// goroutines at once and on every reader, so pooled frame buffers and
// decoders pass between concurrent replays. Each replay must still
// match the synchronous reader's outcome.
func TestParallelReplaysSharePools(t *testing.T) {
	sym := event.NewSymtab()
	sym.Intern("alpha")
	evs := v3TestEvents(2*DefaultBatchRecords + 17)
	flate := writeV3(t, evs, sym, 0, true)
	flipped := bytes.Clone(flate)
	flipped[len(flipped)/2] ^= 0x40
	traces := [][]byte{
		legacyTrace(t, "mcf-v2"),
		writeV3(t, evs, sym, shortFrame, false),
		flate,
		flate[:len(flate)*2/3],
		flipped,
	}
	want := make([][2]replayOutcome, len(traces))
	for k, data := range traces {
		want[k] = [2]replayOutcome{runReplay(t, data, false, 0), runReplay(t, data, true, 0)}
	}
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 12; i++ {
				k, salvage, workers := (g+i)%len(traces), i%2, (g+i)%3
				got := runReplay(t, traces[k], salvage == 1, workers)
				if d := diffOutcome(want[k][salvage], got); d != "" {
					t.Errorf("trace %d salvage=%v workers=%d: %s", k, salvage == 1, workers, d)
					return
				}
			}
		}()
	}
	wg.Wait()
}
