package logger_test

import (
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"heapmd/internal/callstack"
	"heapmd/internal/event"
	"heapmd/internal/logger"
	"heapmd/internal/metrics"
)

// sampledStream is a stream of exactly n function entries: before each
// one it allocates an object, points it at an older one and sometimes
// frees an older one, so every metric moves from sample to sample.
func sampledStream(seed int64, n int) []event.Event {
	rng := rand.New(rand.NewSource(seed))
	const base, size = 0x1000_0000, 32
	var live []uint64
	var evs []event.Event
	for i := 0; i < n; i++ {
		a := base + uint64(i)*size
		evs = append(evs, event.Event{Type: event.Alloc, Fn: 1, Addr: a, Size: size})
		if len(live) > 0 {
			evs = append(evs, event.Event{Type: event.Store, Addr: a + 8*uint64(rng.Intn(4)), Value: live[rng.Intn(len(live))]})
		}
		if len(live) > 0 && rng.Intn(4) == 0 {
			k := rng.Intn(len(live))
			evs = append(evs, event.Event{Type: event.Free, Addr: live[k]})
			live = slices.Delete(live, k, k+1)
		}
		live = append(live, a)
		evs = append(evs, event.Event{Type: event.Enter, Fn: 2}, event.Event{Type: event.Leave})
	}
	return evs
}

// copyObserver keeps a copy of every snapshot as it was sampled, and
// counts the snapshots whose Values could grow into a neighbour's.
type copyObserver struct {
	snaps []metrics.Snapshot
	open  int
}

func (o *copyObserver) Sample(s metrics.Snapshot, _ *callstack.Tracker) {
	if cap(s.Values) != len(s.Values) {
		o.open++
	}
	s.Values = slices.Clone(s.Values)
	o.snaps = append(o.snaps, s)
}

// TestSampleLogSeries: across the sample log's chunk boundaries (8
// rows, then 16, then 32 each), the report's snapshots equal copies taken
// sample by sample, each snapshot's Values — in the report and as
// observers see it — is a slice of exactly the suite's width that
// cannot grow into its neighbour, and Report.Series
// and metrics.AppendSeries read the same columns as the copies.
func TestSampleLogSeries(t *testing.T) {
	for _, su := range []struct {
		name  string
		suite metrics.Suite
	}{{"default", metrics.DefaultSuite()}, {"extended", metrics.ExtendedSuite()}} {
		for _, n := range []int{1, 8, 9, 24, 25, 56, 57, 1500} {
			t.Run(fmt.Sprintf("%s/%d", su.name, n), func(t *testing.T) {
				l := logger.New(logger.Options{Suite: su.suite, Frequency: 1})
				defer l.Release()
				ref := &copyObserver{}
				l.Observe(ref)
				evs := sampledStream(int64(n), n)
				l.EmitBatch(evs[:len(evs)/2])
				for _, e := range evs[len(evs)/2:] {
					l.Emit(e)
				}
				rep := l.Report()
				if len(ref.snaps) != n || !reflect.DeepEqual(rep.Snapshots, ref.snaps) {
					t.Fatalf("report's %d snapshots differ from the %d sampled (want %d)", len(rep.Snapshots), len(ref.snaps), n)
				}
				if ref.open != 0 {
					t.Errorf("%d observed snapshots have Values with spare capacity", ref.open)
				}
				if cap(rep.Snapshots) != n {
					t.Errorf("snapshots cap %d, want exactly %d", cap(rep.Snapshots), n)
				}
				for i, s := range rep.Snapshots {
					if len(s.Values) != su.suite.Len() || cap(s.Values) != su.suite.Len() {
						t.Fatalf("snapshot %d: Values len %d cap %d, want both %d", i, len(s.Values), cap(s.Values), su.suite.Len())
					}
				}
				for idx, id := range su.suite.IDs() {
					want := make([]float64, n)
					for i, s := range ref.snaps {
						want[i] = s.Values[idx]
					}
					if got := rep.Series(id); !slices.Equal(got, want) {
						t.Fatalf("Series(%v) differs from the sampled column", id)
					}
					if got := metrics.AppendSeries(nil, rep.Snapshots, idx); !slices.Equal(got, want) {
						t.Fatalf("AppendSeries(%v) differs from the sampled column", id)
					}
				}
			})
		}
	}
}

// TestEmptyReportSnapshotsNil: a run with no metric point reports nil
// snapshots, which marshal as null, exactly as before any sample log.
func TestEmptyReportSnapshotsNil(t *testing.T) {
	l := logger.New(logger.Options{})
	defer l.Release()
	l.Emit(event.Event{Type: event.Alloc, Addr: 0x1000, Size: 16})
	if s := l.Report().Snapshots; s != nil {
		t.Fatalf("snapshots = %#v, want nil", s)
	}
}
