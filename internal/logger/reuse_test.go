package logger_test

// Loggers handed back with Release are reset in place and reused by
// the next New. These tests pin the contract: a reused logger's report
// is byte-identical to the report of a logger no run has touched, for
// every suite, granularity and frequency, whatever ran on it before.

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand"
	"runtime"
	"testing"

	"heapmd/internal/event"
	"heapmd/internal/logger"
	"heapmd/internal/metrics"
)

// hostileEvents produces a damaged-trace stream at object granularity:
// zero-size ranges, ranges wider than the address table's page limit,
// unaligned and sub-word objects, double frees, wild frees, stores
// into all of them, reallocs to size zero and function entries.
func hostileEvents(seed int64, n int) []event.Event {
	rng := rand.New(rand.NewSource(seed))
	const (
		cellBase = 0x100_0000_0000 // small objects, one per KiB cell, some unaligned
		zeroBase = 0x400_0000_0000 // zero-size ranges
		hugeBase = 0x500_0000_0000 // 512 MiB ranges, one per GiB
		wildBase = 0x300_0000_0000 // never allocated
	)
	var evs []event.Event
	var live, freed []uint64
	size := make(map[uint64]uint64)
	alloc := func(b, s uint64) {
		evs = append(evs, event.Event{Type: event.Alloc, Addr: b, Size: s, Fn: 1})
		live = append(live, b)
		size[b] = s
	}
	for op := 0; op < n; op++ {
		switch r := rng.Intn(100); {
		case r < 20: // ordinary or unaligned small object
			b := cellBase + uint64(rng.Intn(4096))*1024
			s := uint64(rng.Intn(8)+1) * 8
			if rng.Intn(4) == 0 {
				b += uint64(rng.Intn(8))
				s = uint64(rng.Intn(7) + 1)
			}
			if _, ok := size[b]; !ok {
				alloc(b, s)
			}
		case r < 24: // zero-size range
			if b := zeroBase + uint64(rng.Intn(64))*8; size[b] == 0 {
				alloc(b, 0)
			}
		case r < 26: // huge range
			if b := hugeBase + uint64(rng.Intn(8))<<30; size[b] == 0 {
				alloc(b, 1<<29)
			}
		case r < 36: // free of a live object
			if len(live) > 0 {
				i := rng.Intn(len(live))
				b := live[i]
				live[i] = live[len(live)-1]
				live = live[:len(live)-1]
				delete(size, b)
				freed = append(freed, b)
				evs = append(evs, event.Event{Type: event.Free, Addr: b})
			}
		case r < 40: // double free
			if len(freed) > 0 {
				evs = append(evs, event.Event{Type: event.Free, Addr: freed[rng.Intn(len(freed))]})
			}
		case r < 43: // wild free
			evs = append(evs, event.Event{Type: event.Free, Addr: wildBase + uint64(rng.Intn(1<<16))*8})
		case r < 46: // realloc, sometimes to size zero or of a dead base
			if len(live) == 0 || rng.Intn(4) == 0 {
				evs = append(evs, event.Event{Type: event.Realloc, Addr: wildBase, Value: wildBase, Size: 8})
				continue
			}
			b := live[rng.Intn(len(live))]
			s := uint64(rng.Intn(3)) * 8
			evs = append(evs, event.Event{Type: event.Realloc, Addr: b, Value: b, Size: s})
			size[b] = s
		case r < 75: // store: pointer, interior pointer, scalar or wild
			if len(live) == 0 {
				continue
			}
			src := live[rng.Intn(len(live))]
			addr := src + uint64(rng.Intn(int(max(size[src], 1))))
			val := uint64(rng.Intn(1 << 20))
			if rng.Intn(3) != 0 {
				dst := live[rng.Intn(len(live))]
				val = dst + uint64(rng.Intn(int(max(size[dst], 1))))
			}
			if rng.Intn(10) == 0 {
				addr = wildBase + uint64(rng.Intn(1<<16))*8
			}
			evs = append(evs, event.Event{Type: event.Store, Addr: addr, Value: val})
		case r < 90:
			evs = append(evs, event.Event{Type: event.Enter, Fn: event.FnID(rng.Intn(8) + 1)})
		default:
			evs = append(evs, event.Event{Type: event.Leave})
		}
	}
	return evs
}

// reuseCase is one stream under one logger configuration.
type reuseCase struct {
	name   string
	evs    []event.Event
	opts   logger.Options
	suite  string
	report []byte // JSON of the report on a logger no run has used
}

// reuseCases crosses four streams with both suites, both frequencies
// and, for the stream small enough to run word by word, both
// granularities.
func reuseCases() []*reuseCase {
	type stream struct {
		name  string
		evs   []event.Event
		field bool
	}
	streams := []stream{
		{"gen1", genEvents(1, genCfg{nOps: 12000, bigOdds: 10, bigPagesMax: 20}), false},
		{"gen10", genEvents(10, genCfg{nOps: 4000, bigOdds: 60, bigPagesMax: 1}), true},
		{"hostile1", hostileEvents(1, 12000), false},
		{"hostile2", hostileEvents(2, 12000), false},
	}
	suites := []struct {
		name  string
		suite metrics.Suite
	}{{"default", metrics.DefaultSuite()}, {"extended", metrics.ExtendedSuite()}}
	var cases []*reuseCase
	for _, st := range streams {
		grans := []logger.Granularity{logger.ObjectGranularity}
		if st.field {
			grans = append(grans, logger.FieldGranularity)
		}
		for _, gran := range grans {
			for _, su := range suites {
				for _, frq := range []uint64{4, 16} {
					cases = append(cases, &reuseCase{
						name:  fmt.Sprintf("%s/%s/%s/frq%d", st.name, gran, su.name, frq),
						evs:   st.evs,
						opts:  logger.Options{Suite: su.suite, Frequency: frq, Granularity: gran},
						suite: su.name,
					})
				}
			}
		}
	}
	return cases
}

// runReport feeds evs to l, half through Emit and half through
// EmitBatch, and returns the report's JSON.
func runReport(t *testing.T, l *logger.Logger, name string, evs []event.Event) []byte {
	t.Helper()
	l.SetRun("reuse", name, 1)
	half := len(evs) / 2
	for _, e := range evs[:half] {
		l.Emit(e)
	}
	l.EmitBatch(evs[half:])
	buf, err := json.Marshal(l.Report())
	if err != nil {
		t.Fatal(err)
	}
	return buf
}

// TestReuseMatchesFresh runs every case on a logger no run has used,
// then again through Release/New cycles in a shuffled order that keeps
// switching suite, granularity and frequency, and requires the same
// report bytes.
func TestReuseMatchesFresh(t *testing.T) {
	cases := reuseCases()
	for _, c := range cases {
		l := logger.NewUnpooled(c.opts)
		c.report = runReport(t, l, c.name, c.evs)
		if c.opts.Frequency == 4 && c.opts.Granularity == logger.ObjectGranularity && c.suite == "default" {
			h := l.Report().Health
			if h.DoubleFrees == 0 || h.WildFrees == 0 || h.WildStores == 0 || h.BadReallocs == 0 {
				t.Fatalf("%s: stream lost its hostile events: %+v", c.name, h)
			}
		}
	}
	order := append([]*reuseCase(nil), cases...)
	for pass := int64(0); pass < 2; pass++ {
		rand.New(rand.NewSource(pass)).Shuffle(len(order), func(i, j int) { order[i], order[j] = order[j], order[i] })
		var switches [3]int // suite, granularity, frequency
		for i := 1; i < len(order); i++ {
			a, b := order[i-1], order[i]
			for k, changed := range []bool{a.suite != b.suite, a.opts.Granularity != b.opts.Granularity, a.opts.Frequency != b.opts.Frequency} {
				if changed {
					switches[k]++
				}
			}
		}
		if min(switches[0], switches[1], switches[2]) < 3 {
			t.Fatalf("pass %d: order switches suite/granularity/frequency only %v times", pass, switches)
		}
		var prev *logger.Logger
		reused := 0
		for _, c := range order {
			l := logger.New(c.opts)
			if l == prev {
				reused++
			}
			if got := runReport(t, l, c.name, c.evs); !bytes.Equal(got, c.report) {
				t.Fatalf("pass %d: %s: reused logger's report differs from a fresh one's:\n got %.300s\nwant %.300s", pass, c.name, got, c.report)
			}
			l.Release()
			prev = l
		}
		if reused == 0 {
			t.Fatalf("pass %d: New never returned the logger just released", pass)
		}
	}
}

// TestReuseKeepsEarlierReports: a report outlives its logger. Its
// snapshots alias the run's sample log, so after Release a longer run
// with a wider suite on the same logger must leave the first report's
// bytes untouched.
func TestReuseKeepsEarlierReports(t *testing.T) {
	l := logger.New(logger.Options{Frequency: 4})
	want := runReport(t, l, "first", genEvents(3, genCfg{nOps: 3000, bigOdds: 10, bigPagesMax: 4}))
	rep := l.Report()
	if len(rep.Snapshots) < 25 {
		t.Fatalf("first run took %d samples; want more than two chunks' worth", len(rep.Snapshots))
	}
	l.Release()
	l2 := logger.New(logger.Options{Frequency: 1, Suite: metrics.ExtendedSuite()})
	if l2 != l {
		t.Fatal("New did not return the logger just released")
	}
	second := runReport(t, l2, "second", genEvents(4, genCfg{nOps: 12000, bigOdds: 10, bigPagesMax: 4}))
	l2.Release()
	if len(second) <= len(want) {
		t.Fatalf("second report (%d bytes) is no longer than the first (%d)", len(second), len(want))
	}
	got, err := json.Marshal(rep)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("the first report changed after its logger was reused:\n got %.300s\nwant %.300s", got, want)
	}
}

// TestReuseForgetsFreedBases: a free in one run of a base freed in an
// earlier run on the same logger is a wild free, not a double free —
// the freed set is per run.
func TestReuseForgetsFreedBases(t *testing.T) {
	const base = 0x1000
	l := logger.New(logger.Options{Frequency: 1})
	l.Emit(event.Event{Type: event.Alloc, Addr: base, Size: 16})
	l.Emit(event.Event{Type: event.Free, Addr: base})
	l.Emit(event.Event{Type: event.Free, Addr: base})
	if h := l.Report().Health; h.DoubleFrees != 1 || h.WildFrees != 0 {
		t.Fatalf("first run: %+v, want one double free", h)
	}
	l.Release()
	l2 := logger.New(logger.Options{Frequency: 1})
	l2.Emit(event.Event{Type: event.Free, Addr: base})
	h := l2.Report().Health
	l2.Release()
	if l2 != l {
		t.Fatal("New did not return the logger just released")
	}
	if h.WildFrees != 1 || h.DoubleFrees != 0 {
		t.Fatalf("second run on the reused logger: %+v, want one wild free and no double free", h)
	}
}

// TestReuseSurvivesGC: a released logger waits for the next New
// however many garbage collections pass in between, so whether a run
// rebuilds its heap image from nothing does not hang on GC timing.
func TestReuseSurvivesGC(t *testing.T) {
	l := logger.New(logger.Options{Frequency: 1})
	l.Emit(event.Event{Type: event.Alloc, Addr: 0x1000, Size: 16})
	l.Release()
	for range 3 {
		runtime.GC()
	}
	l2 := logger.New(logger.Options{Frequency: 1})
	defer l2.Release()
	if l2 != l {
		t.Fatal("New built a fresh logger: the released one was dropped by garbage collection")
	}
}
