package logger

import (
	"testing"

	"heapmd/internal/event"
	"heapmd/internal/metrics"
)

// TestStoreHotPathAllocs is the allocation budget for the per-event
// hot path, enforced in CI: a steady-state batch of one free, one
// re-allocation at the same address and six pointer stores must
// average at most two heap allocations — and with the arena-backed
// address table, inline slot tables and inline adjacency it actually
// averages zero. A regression here means some per-event structure
// went back to allocating (a map, a spilled slot table, a treap
// node), which is exactly what this PR removed.
func TestStoreHotPathAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates on the hot path")
	}
	const n = 4096
	l := New(Options{Frequency: 1 << 62})
	addrs := make([]uint64, n)
	for i := range addrs {
		addr := uint64(0x100_0000_0000) + uint64(i)*64
		addrs[i] = addr
		l.Emit(event.Event{Type: event.Alloc, Addr: addr, Size: 64, Fn: 1})
	}
	// Warm up: visit every object once so one-time growth (spill maps,
	// page records, arena capacity) happens before measurement.
	for i := 0; i < n*8; i++ {
		src := addrs[i&(n-1)]
		dst := addrs[(i*31+7)&(n-1)]
		l.Emit(event.Event{Type: event.Store, Addr: src + 8, Value: dst})
	}
	iter := 0
	avg := testing.AllocsPerRun(2000, func() {
		i := iter
		iter++
		k := (i * 17) & (n - 1)
		l.Emit(event.Event{Type: event.Free, Addr: addrs[k]})
		l.Emit(event.Event{Type: event.Alloc, Addr: addrs[k], Size: 64, Fn: 1})
		for j := 0; j < 6; j++ {
			src := addrs[(i*8+j)&(n-1)]
			dst := addrs[((i*8+j)*31+7)&(n-1)]
			l.Emit(event.Event{Type: event.Store, Addr: src + 8, Value: dst})
		}
	})
	if avg > 2 {
		t.Fatalf("store hot path allocates %.1f times per 8-event batch; budget is 2", avg)
	}
}

// testBatchSize is the events per batch in the batched benchmarks
// and tests of this package.
const testBatchSize = 256

// storeBatches builds a steady-state store-only batch set over a
// settled object population: batch 0 allocates n objects, the other
// 63 are full batches of pointer stores between them.
func storeBatches(n int) [][]event.Event {
	addrs := make([]uint64, n)
	allocs := make([]event.Event, n)
	for i := range addrs {
		addrs[i] = uint64(0x100_0000_0000) + uint64(i)*1024
		allocs[i] = event.Event{Type: event.Alloc, Addr: addrs[i], Size: 512, Fn: 1}
	}
	batches := make([][]event.Event, 0, 64)
	batches = append(batches, allocs)
	for b := 0; b < 63; b++ {
		batch := make([]event.Event, testBatchSize)
		for j := range batch {
			i := b*testBatchSize + j
			src := addrs[(i*17)%n]
			dst := addrs[(i*31+7)%n]
			batch[j] = event.Event{Type: event.Store, Addr: src + uint64(i%64)*8, Value: dst}
		}
		batches = append(batches, batch)
	}
	return batches
}

// BenchmarkEmitBatch measures the batched fast path on a settled
// population under pointer stores.
func BenchmarkEmitBatch(b *testing.B) {
	l := New(Options{Frequency: 1 << 62})
	batches := storeBatches(4096)
	l.EmitBatch(batches[0]) // population
	steady := batches[1:]
	perBatch := len(steady[0])
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		l.EmitBatch(steady[i%len(steady)])
	}
	b.SetBytes(int64(perBatch))
}

// TestWordTablesRecycled replays one store-heavy run into a logger
// again and again, resetting it in between. Every object takes the
// words tier, some grow it by realloc and half are freed, so each
// run hands words back through free, realloc and reset; a run on a
// reset logger must take them all from the pool and allocate nothing.
func TestWordTablesRecycled(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates on the hot path")
	}
	const n = 512
	var run []event.Event
	addr := func(i int) uint64 { return uint64(0x100_0000_0000) + uint64(i)*4096 }
	for i := 0; i < n; i++ {
		run = append(run, event.Event{Type: event.Alloc, Addr: addr(i), Size: 256})
	}
	for i := 0; i < n; i++ {
		for j := 0; j < 8; j++ {
			run = append(run, event.Event{Type: event.Store, Addr: addr(i) + uint64(j)*16, Value: addr((i + j + 1) % n)})
		}
	}
	for i := 0; i < n; i += 4 {
		run = append(run, event.Event{Type: event.Realloc, Addr: addr(i), Value: addr(i), Size: 2048})
		run = append(run, event.Event{Type: event.Free, Addr: addr(i + 1)})
		run = append(run, event.Event{Type: event.Free, Addr: addr(i + 2)})
	}
	opts := Options{Frequency: 1 << 62, Suite: metrics.DefaultSuite()}
	l := NewUnpooled(opts)
	replay := func() {
		l.reset(opts)
		l.EmitBatch(run)
	}
	replay()
	if l.words.out == 0 {
		t.Fatal("no object reached the words tier")
	}
	if allocs := testing.AllocsPerRun(5, replay); allocs != 0 {
		t.Errorf("a run on a reset logger allocated %.0f times, want 0", allocs)
	}
}
