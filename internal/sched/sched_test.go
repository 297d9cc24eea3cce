package sched

import (
	"errors"
	"fmt"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"
)

func TestMapOrdersResults(t *testing.T) {
	for _, workers := range []int{1, 2, 4, 9, 100} {
		out, err := Map(workers, 25, func(i int) (int, error) { return i * i, nil })
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if len(out) != 25 {
			t.Fatalf("workers=%d: len=%d", workers, len(out))
		}
		for i, v := range out {
			if v != i*i {
				t.Fatalf("workers=%d: out[%d]=%d, want %d", workers, i, v, i*i)
			}
		}
	}
}

func TestMapEmpty(t *testing.T) {
	out, err := Map(4, 0, func(i int) (int, error) { return 0, nil })
	if err != nil || out != nil {
		t.Fatalf("got %v, %v", out, err)
	}
}

// TestMapFirstErrorWins pins the determinism contract for failures: no
// matter how the fleet is scheduled, the error returned is the one the
// serial loop would have returned — the lowest-numbered failing run —
// even when a higher-numbered run fails first in wall-clock time.
func TestMapFirstErrorWins(t *testing.T) {
	errLow := errors.New("low")
	errHigh := errors.New("high")
	// workers >= 2 only: the blocking choreography below needs run 7 to
	// execute while run 3 is parked, which a serial loop cannot do.
	for _, workers := range []int{2, 4, 16} {
		for trial := 0; trial < 50; trial++ {
			slow := make(chan struct{})
			_, err := Map(workers, 16, func(i int) (int, error) {
				switch i {
				case 3:
					// The serial first failure, made artificially slow
					// so faster failures race ahead of it.
					<-slow
					return 0, errLow
				case 7, 11:
					if i == 7 {
						close(slow)
					}
					return 0, errHigh
				}
				return i, nil
			})
			if !errors.Is(err, errLow) {
				t.Fatalf("workers=%d trial=%d: err=%v, want errLow", workers, trial, err)
			}
		}
	}
}

// TestMapDrainsInFlight checks that a mid-fleet failure lets in-flight
// runs finish (no abandoned work, no leaked goroutines blocking) and
// stops new claims promptly.
func TestMapDrainsInFlight(t *testing.T) {
	var started, finished atomic.Int64
	_, err := Map(4, 64, func(i int) (int, error) {
		started.Add(1)
		defer finished.Add(1)
		if i == 5 {
			return 0, fmt.Errorf("boom at %d", i)
		}
		return i, nil
	})
	if err == nil || !strings.Contains(err.Error(), "boom at 5") {
		t.Fatalf("err = %v", err)
	}
	if s, f := started.Load(), finished.Load(); s != f {
		t.Fatalf("started %d runs but only %d finished (abandoned work)", s, f)
	}
	if started.Load() == 64 {
		t.Log("note: failure did not prevent any claims (legal but unexpected on >1 worker)")
	}
}

func TestMapRecoversPanics(t *testing.T) {
	for _, workers := range []int{1, 4} {
		_, err := Map(workers, 8, func(i int) (int, error) {
			if i == 2 {
				panic("kaboom")
			}
			return i, nil
		})
		if err == nil || !strings.Contains(err.Error(), "run 2 panicked: kaboom") {
			t.Fatalf("workers=%d: err = %v", workers, err)
		}
	}
}

func TestForEach(t *testing.T) {
	var sum atomic.Int64
	if err := ForEach(4, 100, func(i int) error {
		sum.Add(int64(i))
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if sum.Load() != 4950 {
		t.Fatalf("sum = %d", sum.Load())
	}
}

func TestWorkers(t *testing.T) {
	if got := resolveWorkers(0); got != runtime.GOMAXPROCS(0) {
		t.Fatalf("resolveWorkers(0) = %d", got)
	}
	if got := resolveWorkers(-3); got != runtime.GOMAXPROCS(0) {
		t.Fatalf("resolveWorkers(-3) = %d", got)
	}
	if got := resolveWorkers(7); got != 7 {
		t.Fatalf("resolveWorkers(7) = %d", got)
	}
}

// TestGoroutines pins the library worker-count rule Map applies: a
// negative count is GOMAXPROCS, 0 and 1 are serial.
func TestGoroutines(t *testing.T) {
	for _, c := range []struct{ in, want int }{
		{-1, runtime.GOMAXPROCS(0)}, {-3, runtime.GOMAXPROCS(0)}, {0, 1}, {1, 1}, {7, 7},
	} {
		if got := Goroutines(c.in); got != c.want {
			t.Errorf("Goroutines(%d) = %d, want %d", c.in, got, c.want)
		}
	}
}

// TestSchedStressFailingFleet is the race-detector stress target: many
// workers, repeated fleets, one failing run per fleet at a rotating
// position. Run under -race (the CI stress step does, with
// -shuffle=on) it shakes out claim/drain races.
func TestSchedStressFailingFleet(t *testing.T) {
	for round := 0; round < 20; round++ {
		fail := round % 10
		out, err := Map(8, 40, func(i int) (int, error) {
			if i%10 == fail && i >= 10 {
				return 0, fmt.Errorf("fleet fault at %d", i)
			}
			return i * 3, nil
		})
		want := fmt.Sprintf("fleet fault at %d", 10+fail)
		if err == nil || err.Error() != want {
			t.Fatalf("round %d: err = %v, want %q", round, err, want)
		}
		if out != nil {
			t.Fatalf("round %d: results returned alongside error", round)
		}
	}
}

// TestParseParallel pins the normalized -parallel semantics shared by
// every subcommand: 0 = all cores, positive = exact, negative = error.
func TestParseParallel(t *testing.T) {
	if got, err := ParseParallel(0); err != nil || got != runtime.GOMAXPROCS(0) {
		t.Fatalf("ParseParallel(0) = %d, %v", got, err)
	}
	if got, err := ParseParallel(1); err != nil || got != 1 {
		t.Fatalf("ParseParallel(1) = %d, %v", got, err)
	}
	if got, err := ParseParallel(5); err != nil || got != 5 {
		t.Fatalf("ParseParallel(5) = %d, %v", got, err)
	}
	if _, err := ParseParallel(-1); err == nil {
		t.Fatal("ParseParallel(-1) did not error")
	}
}

func TestParseDecodeWorkers(t *testing.T) {
	got, err := ParseDecodeWorkers(0)
	if err != nil {
		t.Fatalf("ParseDecodeWorkers(0): %v", err)
	}
	if p := runtime.GOMAXPROCS(0); p > 1 {
		if got != p {
			t.Fatalf("ParseDecodeWorkers(0) = %d, want %d (all cores)", got, p)
		}
	} else if got != 0 {
		t.Fatalf("ParseDecodeWorkers(0) = %d, want 0 (synchronous on a single core)", got)
	}
	for _, n := range []int{1, 2, 7} {
		if got, err := ParseDecodeWorkers(n); err != nil || got != n {
			t.Fatalf("ParseDecodeWorkers(%d) = %d, %v", n, got, err)
		}
	}
	if _, err := ParseDecodeWorkers(-1); err == nil {
		t.Fatal("ParseDecodeWorkers(-1) did not error")
	}
}

// TestParseIngestWorkers pins the retired -ingest-workers value
// mapping: every non-negative value is the serial path, negative
// values are an error.
func TestParseIngestWorkers(t *testing.T) {
	for _, tc := range []struct {
		n, want int
		err     bool
	}{
		{0, 1, false},
		{1, 1, false},
		{4, 1, false},
		{-1, 0, true},
	} {
		got, err := ParseIngestWorkers(tc.n)
		if (err != nil) != tc.err || got != tc.want {
			t.Errorf("ParseIngestWorkers(%d) = %d, %v; want %d, error %v", tc.n, got, err, tc.want, tc.err)
		}
	}
}
