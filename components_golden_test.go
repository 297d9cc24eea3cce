package heapmd

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"math/rand"
	"os"
	"path/filepath"
	"testing"

	"heapmd/internal/event"
	"heapmd/internal/faults"
	"heapmd/internal/logger"
	"heapmd/internal/metrics"
	"heapmd/internal/workloads"
)

var updateGoldens = flag.Bool("update", false, "rewrite the golden files under testdata/golden")

const componentGoldenPath = "testdata/golden/components.json"

// TestComponentGoldens pins every report the extended suite (degree
// metrics plus WCC/SCC per 100 vertices) produces on a fixed corpus:
// the first input of each of the 13 workloads, the two faults that
// stress the component trackers hardest on one workload, and two
// fixed-seed synthetic streams. Each entry is the SHA-256 of the
// report's JSON encoding, so any change to a component count, a
// degree metric, a tick or a health counter fails here. Run with
// -update to regenerate deliberately. The corpus then runs a second
// time in reverse order, so each entry's logger is reused from a
// different run than before, and must give the same digests.
func TestComponentGoldens(t *testing.T) {
	corpus := componentGoldenCorpus(t)
	got := make(map[string]string)
	for _, e := range corpus {
		got[e.name] = reportDigest(t, e.run())
	}
	if *updateGoldens {
		buf, err := json.MarshalIndent(got, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.MkdirAll(filepath.Dir(componentGoldenPath), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(componentGoldenPath, append(buf, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	raw, err := os.ReadFile(componentGoldenPath)
	if err != nil {
		t.Fatalf("%v (run with -update to create it)", err)
	}
	var want map[string]string
	if err := json.Unmarshal(raw, &want); err != nil {
		t.Fatal(err)
	}
	for name, d := range want {
		if got[name] != d {
			t.Errorf("%s: report digest %s, golden %s", name, got[name], d)
		}
	}
	if len(got) != len(want) {
		t.Errorf("corpus has %d entries, golden %d", len(got), len(want))
	}
	for i := len(corpus) - 1; i >= 0; i-- {
		if d := reportDigest(t, corpus[i].run()); d != got[corpus[i].name] {
			t.Errorf("%s: report digest %s on the reverse-order pass, %s on the first", corpus[i].name, d, got[corpus[i].name])
		}
	}
}

// goldenEntry is one named run of the golden corpus.
type goldenEntry struct {
	name string
	run  func() *logger.Report
}

// componentGoldenCorpus returns the golden corpus's runs in order.
func componentGoldenCorpus(t *testing.T) []goldenEntry {
	t.Helper()
	var out []goldenEntry
	cfg := workloads.RunConfig{Logger: logger.Options{Suite: metrics.ExtendedSuite()}}
	for _, w := range workloads.All() {
		out = append(out, goldenEntry{w.Name(), func() *logger.Report {
			rep, _, err := workloads.RunLogged(w, w.Inputs(1)[0], cfg)
			if err != nil {
				t.Fatalf("%s: %v", w.Name(), err)
			}
			return rep
		}})
	}
	w, err := workloads.Get("multimedia")
	if err != nil {
		t.Fatal(err)
	}
	for _, fault := range []string{faults.FragStorm, faults.ABARewire} {
		c := cfg
		c.Plan = faults.NewPlan().EnableAlways(fault)
		// A fault may crash the simulated program; the report of the
		// prefix is what the logger saw and is pinned as such.
		out = append(out, goldenEntry{w.Name() + "+" + fault, func() *logger.Report {
			rep, _, _ := workloads.RunLogged(w, w.Inputs(1)[0], c)
			return rep
		}})
	}
	out = append(out, goldenEntry{"synthetic/tree-cross-churn", func() *logger.Report {
		return replaySynthetic(func(s event.Sink) {
			goldenTreeEvents(rand.New(rand.NewSource(7)), 3000, 24, s)
		})
	}}, goldenEntry{"synthetic/store-free-churn", func() *logger.Report {
		return replaySynthetic(func(s event.Sink) {
			goldenChurnEvents(rand.New(rand.NewSource(11)), 2048, 60000, s)
		})
	}})
	return out
}

func reportDigest(t *testing.T, rep *logger.Report) string {
	t.Helper()
	buf, err := json.Marshal(rep)
	if err != nil {
		t.Fatal(err)
	}
	sum := sha256.Sum256(buf)
	return hex.EncodeToString(sum[:])
}

// replaySynthetic feeds one generated stream through a logger with the
// extended suite at the simulation sampling frequency.
func replaySynthetic(gen func(event.Sink)) *logger.Report {
	l := logger.New(logger.Options{Frequency: logger.SimulationFrequency, Suite: metrics.ExtendedSuite()})
	l.SetRun("synthetic", "golden", 1)
	gen(l)
	rep := l.Report()
	l.Release()
	return rep
}

// goldenTreeEvents emits a heap-ordered binary tree of n 32-byte nodes
// (left, right, cross, payload), n/8 cross edges, then rounds of
// churn: cross edges re-pointed (which merges and splits SCCs and
// dirties the weak tracker) and leaves freed and replaced, each round
// closed by one metric point.
func goldenTreeEvents(rng *rand.Rand, n, rounds int, sink event.Sink) {
	const size = 32
	next := uint64(0x2000_0000)
	alloc := func() uint64 { a := next; next += size; return a }
	node := make([]uint64, n)
	link := func(i int) {
		sink.Emit(event.Event{Type: event.Store, Addr: node[(i-1)/2] + uint64((i-1)%2)*8, Value: node[i]})
	}
	cross := func() {
		sink.Emit(event.Event{Type: event.Store, Addr: node[rng.Intn(n)] + 16, Value: node[rng.Intn(n)]})
	}
	for i := range node {
		node[i] = alloc()
		sink.Emit(event.Event{Type: event.Alloc, Fn: 1, Addr: node[i], Size: size})
		if i > 0 {
			link(i)
		}
	}
	for k := 0; k < n/8; k++ {
		cross()
	}
	for r := 0; r < rounds; r++ {
		for k := 0; k < 48; k++ {
			cross()
		}
		for k := 0; k < 6; k++ {
			i := n/2 + rng.Intn(n-n/2) // no children at i >= n/2
			sink.Emit(event.Event{Type: event.Free, Addr: node[i]})
			node[i] = alloc()
			sink.Emit(event.Event{Type: event.Alloc, Fn: 1, Addr: node[i], Size: size})
			link(i)
		}
		// Now and then free an interior node: its subtree detaches.
		if r%4 == 3 {
			sink.Emit(event.Event{Type: event.Free, Addr: node[1+rng.Intn(n/2-1)]})
		}
		for k := 0; k < logger.SimulationFrequency; k++ {
			sink.Emit(event.Event{Type: event.Enter, Fn: 2})
			sink.Emit(event.Event{Type: event.Leave, Fn: 2})
		}
	}
}

// goldenChurnEvents emits a store/free churn stream over a fixed
// population of 64-byte objects: mostly pointer stores into random
// slots (some clearing them), frees with immediate replacement at a
// fresh address, and function entries that drive metric points.
func goldenChurnEvents(rng *rand.Rand, objects, n int, sink event.Sink) {
	const size = 64
	next := uint64(0x1000_0000)
	alloc := func() uint64 { a := next; next += size; return a }
	live := make([]uint64, objects)
	for i := range live {
		live[i] = alloc()
		sink.Emit(event.Event{Type: event.Alloc, Fn: 1, Addr: live[i], Size: size})
	}
	for i := 0; i < n; i++ {
		obj := live[rng.Intn(objects)]
		switch r := rng.Intn(10); {
		case r < 7:
			v := live[rng.Intn(objects)]
			if rng.Intn(8) == 0 {
				v = 0
			}
			sink.Emit(event.Event{Type: event.Store, Addr: obj + uint64(rng.Intn(size/8))*8, Value: v})
		case r == 7:
			k := rng.Intn(objects)
			sink.Emit(event.Event{Type: event.Free, Addr: live[k]})
			live[k] = alloc()
			sink.Emit(event.Event{Type: event.Alloc, Fn: 1, Addr: live[k], Size: size})
		default:
			fn := event.FnID(2 + rng.Intn(8))
			sink.Emit(event.Event{Type: event.Enter, Fn: fn})
			sink.Emit(event.Event{Type: event.Leave, Fn: fn})
		}
	}
}
