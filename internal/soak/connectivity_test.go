package soak

import (
	"bytes"
	"flag"
	"os"
	"sync"
	"testing"

	"heapmd/internal/callstack"
	"heapmd/internal/faults"
	"heapmd/internal/heapgraph"
	"heapmd/internal/logger"
	"heapmd/internal/metrics"
)

var updateGoldens = flag.Bool("update", false, "rewrite the golden files under testdata/golden")

// scoreboardGolden is the extended-suite scoreboard of seed 1 over
// frag-storm, aba-dangling-rewire and typo-wrong-index-leak. It was
// generated when the component metrics still came from full graph
// walks, so matching it proves the incremental trackers change no
// verdict, latency or counter.
const scoreboardGolden = "testdata/golden/scoreboard-extended.json"

// componentOracle collects CheckComponents results from every soak
// iteration's logger. Cells run concurrently, so it is shared under a
// mutex; each logger gets its own observer.
type componentOracle struct {
	mu       sync.Mutex
	points   int
	failures []string
}

// attach is the Options.observe hook.
func (o *componentOracle) attach(l *logger.Logger) {
	l.Observe(oracleObserver{o: o, g: l.Graph()})
}

type oracleObserver struct {
	o *componentOracle
	g *heapgraph.Graph
}

func (s oracleObserver) Sample(metrics.Snapshot, *callstack.Tracker) {
	msg := s.g.CheckComponents()
	s.o.mu.Lock()
	defer s.o.mu.Unlock()
	s.o.points++
	if msg != "" && len(s.o.failures) < 5 {
		s.o.failures = append(s.o.failures, msg)
	}
}

// TestSoakComponentsOracle runs the warmup → fault → recovery schedule
// of seed 1 with the extended suite over the two faults that stress
// the trackers hardest — frag-storm (detach-heavy churn) and
// aba-dangling-rewire (wild rewiring) — diffing both component
// trackers against the reference walks at every metric point of every
// soak iteration. Stale trackers meet the oracle through the rebuild
// at the query.
func TestSoakComponentsOracle(t *testing.T) {
	oracle := &componentOracle{}
	sb, err := Run(Options{
		Seed:     1,
		Faults:   []string{faults.FragStorm, faults.ABARewire},
		Extended: true,
		Parallel: -1,
		observe:  oracle.attach,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(sb.Cells) == 0 {
		t.Fatal("no cells ran")
	}
	if oracle.points == 0 {
		t.Fatal("the oracle saw no metric points")
	}
	if len(oracle.failures) > 0 {
		t.Fatalf("trackers diverged from the reference walks:\n%v", oracle.failures)
	}
}

// checkScoreboardGolden runs the extended suite over seed 1 with the
// given per-logger hook and requires a byte-identical scoreboard.
func checkScoreboardGolden(t *testing.T, observe func(*logger.Logger)) {
	t.Helper()
	sb, err := Run(Options{
		Seed:     1,
		Faults:   []string{faults.FragStorm, faults.ABARewire, faults.TypoLeak},
		Extended: true,
		Parallel: -1,
		observe:  observe,
	})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := sb.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	if *updateGoldens {
		if err := os.WriteFile(scoreboardGolden, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(scoreboardGolden)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(want, buf.Bytes()) {
		t.Fatalf("scoreboard differs from the golden:\ngolden: %s\ngot:    %s", want, buf.Bytes())
	}
}

// TestSoakConnectivityScoreboardEquivalence: the production
// configuration, both component trackers on, must reproduce the golden
// scoreboard byte for byte.
func TestSoakConnectivityScoreboardEquivalence(t *testing.T) { checkScoreboardGolden(t, nil) }

// sccRestarter turns its logger's SCC tracker off and on again after
// every metric point, so that the next point's count comes from a
// rebuild of the whole graph rather than from incremental maintenance.
type sccRestarter struct{ g *heapgraph.Graph }

func (r sccRestarter) Sample(metrics.Snapshot, *callstack.Tracker) { r.g.TrackSCC() }

// TestSoakSCCScoreboardEquivalence: with the SCC tracker restarted
// after every metric point, so that every SCC count is a from-scratch
// rebuild, the scoreboard must still match the golden byte for byte.
func TestSoakSCCScoreboardEquivalence(t *testing.T) {
	checkScoreboardGolden(t, func(l *logger.Logger) { l.Observe(sccRestarter{g: l.Graph()}) })
}
