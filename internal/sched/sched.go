// Package sched is the bounded-concurrency run scheduler behind every
// outer loop in the repo that executes independent logged runs:
// training fleets (workloads.Train), experiment cells (workload ×
// version × fault plan × input in internal/experiments) and multi-trace
// replay (cmd/heapmd replay). The paper's model constructor is defined
// over fleets of runs — up to 100 training inputs per benchmark and
// 5 apps × 5 versions × 10 inputs — and each run already owns a
// private process and logger, so the fleet is embarrassingly parallel;
// the scheduler's job is to exploit that without changing a single
// observable byte of output.
//
// Determinism contract. Map returns results indexed by input position,
// so aggregation order never depends on completion order. Error
// semantics also match the serial loop exactly: indices are claimed in
// increasing order, a failure stops further claims, in-flight runs
// drain cleanly, and the error returned is the one from the
// lowest-numbered failing run. Because runs are deterministic and
// independent, the lowest failing index is claimed before any failure
// can be observed (claims are monotone), so the drained fleet always
// contains it — parallel execution reports byte-identical errors to
// serial execution, not merely "an" error.
package sched

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"

	"heapmd/internal/trace"
)

// Workers resolves a worker-count setting: values <= 0 select
// GOMAXPROCS, the default for every -parallel flag.
func Workers(n int) int {
	if n <= 0 {
		return runtime.GOMAXPROCS(0)
	}
	return n
}

// ParseParallel validates a -parallel flag value uniformly across
// subcommands (train, check, replay, soak, experiments): 0 selects
// GOMAXPROCS ("auto", every subcommand's default), positive values
// are the exact worker count (1 = serial), and negative values are an
// error. Historically each subcommand resolved the flag itself — 0
// meant serial in one path, one worker in another and GOMAXPROCS in a
// third, and negatives were silently clamped; the CLI now funnels
// every occurrence of the flag through here. It is the CLI's only
// concurrency flag: recorded traces are encoded synchronously by each
// run, and replay decodes at trace.DefaultDecodeWorkers.
func ParseParallel(n int) (int, error) {
	if n < 0 {
		return 0, fmt.Errorf("sched: -parallel must be >= 0 (0 = all cores), got %d", n)
	}
	return Workers(n), nil
}

// ParseDecodeWorkers validates a decode-worker count and resolves it
// to a trace.ReadOptions.DecodeWorkers setting: 0 selects the machine
// default, trace.DefaultDecodeWorkers — all cores on a multi-core
// machine, the synchronous decoder on a single core, where extra
// goroutines only add handoff cost. Positive values are exact: a
// scanner plus n decode workers. Negative values are an error. The
// CLI always decodes at the default; the benchmark resolves its
// default through here.
func ParseDecodeWorkers(n int) (int, error) {
	if n < 0 {
		return 0, fmt.Errorf("sched: decode workers must be >= 0 (0 = auto), got %d", n)
	}
	if n == 0 {
		return trace.DefaultDecodeWorkers(), nil
	}
	return n, nil
}

// ParseIngestWorkers returns 1, the one ingest path there is, for any
// n >= 0 and an error for n < 0.
//
// Deprecated: ingestion is always serial.
func ParseIngestWorkers(n int) (int, error) {
	if n < 0 {
		return 0, fmt.Errorf("sched: ingest workers must be >= 0, got %d", n)
	}
	return 1, nil
}

// Goroutines returns the number of goroutines Map and ForEach run for
// a worker count, before capping it at the number of items: GOMAXPROCS
// for a negative count, 1 (serial) for 0, and the count itself
// otherwise. It is the one place the library's worker-count rule
// lives: every Parallel setting below the CLI is handed to Map as is.
// (The CLI's -parallel flag, where 0 means all cores, is resolved by
// ParseParallel first.)
func Goroutines(workers int) int {
	if workers < 0 {
		return runtime.GOMAXPROCS(0)
	}
	return max(workers, 1)
}

// Map executes fn(0) .. fn(n-1) on up to workers goroutines and
// returns the results in input order. workers is resolved by
// Goroutines: 0 or 1 runs serially on the calling goroutine, and a
// negative count uses GOMAXPROCS. On failure Map returns the error of
// the lowest-numbered failing index — exactly what a serial loop that
// stops at the first error would return — after every in-flight run
// has drained. A panicking fn is converted into an error on both the
// serial and the parallel path, so a crashing run mid-fleet cannot
// kill sibling workers.
func Map[T any](workers, n int, fn func(int) (T, error)) ([]T, error) {
	if n <= 0 {
		return nil, nil
	}
	workers = min(Goroutines(workers), n)
	out := make([]T, n)
	if workers <= 1 {
		for i := 0; i < n; i++ {
			v, err := runOne(i, fn)
			if err != nil {
				return nil, err
			}
			out[i] = v
		}
		return out, nil
	}
	var (
		next atomic.Int64 // next index to claim (monotone)
		stop atomic.Bool  // set on first observed failure
		wg   sync.WaitGroup
	)
	errs := make([]error, n)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				if stop.Load() {
					return
				}
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				v, err := runOne(i, fn)
				if err != nil {
					errs[i] = err
					stop.Store(true)
					continue // keep draining: a lower claimed index may still fail first
				}
				out[i] = v
			}
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return out, nil
}

// ForEach is Map for side-effect-only bodies.
func ForEach(workers, n int, fn func(int) error) error {
	_, err := Map(workers, n, func(i int) (struct{}, error) {
		return struct{}{}, fn(i)
	})
	return err
}

// runOne invokes fn(i), converting a panic into an error so that both
// execution paths (serial and worker goroutine) fail identically.
func runOne[T any](i int, fn func(int) (T, error)) (v T, err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("sched: run %d panicked: %v", i, r)
		}
	}()
	return fn(i)
}
