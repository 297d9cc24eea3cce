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

// retrack re-tracks both component trackers of a soak iteration's
// logger at the given rebuild threshold (<= 0 selects the default)
// before the run starts.
func retrack(l *logger.Logger, threshold int) {
	l.Graph().TrackConnectivity(threshold)
	l.Graph().TrackSCC(threshold)
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

// soakWithOracle runs the warmup → fault → recovery schedule of seed 1
// with the extended suite over the two faults that stress the
// trackers hardest — frag-storm (detach-heavy churn) and
// aba-dangling-rewire (wild rewiring) — at the given rebuild
// threshold, diffing both component trackers against the reference
// walks at every metric point of every soak iteration.
func soakWithOracle(t *testing.T, threshold int) {
	t.Helper()
	oracle := &componentOracle{}
	sb, err := Run(Options{
		Seed:     1,
		Faults:   []string{faults.FragStorm, faults.ABARewire},
		Extended: true,
		Parallel: -1,
		observe: func(l *logger.Logger) {
			retrack(l, threshold)
			oracle.attach(l)
		},
	})
	if err != nil {
		t.Fatalf("threshold %d: %v", threshold, err)
	}
	if len(sb.Cells) == 0 {
		t.Fatalf("threshold %d: no cells ran", threshold)
	}
	if oracle.points == 0 {
		t.Fatalf("threshold %d: the oracle saw no metric points", threshold)
	}
	if len(oracle.failures) > 0 {
		t.Fatalf("threshold %d: trackers diverged from the reference walks:\n%v", threshold, oracle.failures)
	}
}

// TestSoakComponentsOracle runs the oracle soak at the default rebuild
// threshold.
func TestSoakComponentsOracle(t *testing.T) { soakWithOracle(t, 0) }

// TestSoakWCCVerify runs the oracle soak at rebuild threshold 1: every
// conservative mutation rebuilds.
func TestSoakWCCVerify(t *testing.T) { soakWithOracle(t, 1) }

// TestSoakSCCVerify runs the oracle soak at rebuild threshold 8:
// amortized rebuilds, so dirty trackers also meet the oracle through
// the lazy rebuild at query time.
func TestSoakSCCVerify(t *testing.T) { soakWithOracle(t, 8) }

// checkScoreboardGolden runs the golden's cells at the given rebuild
// threshold and requires a byte-identical scoreboard.
func checkScoreboardGolden(t *testing.T, threshold int) {
	t.Helper()
	sb, err := Run(Options{
		Seed:     1,
		Faults:   []string{faults.FragStorm, faults.ABARewire, faults.TypoLeak},
		Extended: true,
		Parallel: -1,
		observe:  func(l *logger.Logger) { retrack(l, threshold) },
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
		t.Fatalf("scoreboard at rebuild threshold %d differs from the golden:\ngolden: %s\ngot:    %s",
			threshold, want, buf.Bytes())
	}
}

// TestSoakConnectivityScoreboardEquivalence: rebuilding on every
// conservative mutation must not move the scoreboard off the golden.
func TestSoakConnectivityScoreboardEquivalence(t *testing.T) { checkScoreboardGolden(t, 1) }

// TestSoakSCCScoreboardEquivalence: the production configuration
// (default rebuild threshold) must reproduce the golden scoreboard.
func TestSoakSCCScoreboardEquivalence(t *testing.T) { checkScoreboardGolden(t, 0) }
