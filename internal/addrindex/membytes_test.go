package addrindex

import (
	"runtime"
	"testing"
)

// indexShapes are the heap shapes of the memory gate, each with its
// budget in KiB allocated (garbage included) while a fresh Table[int]
// is built. The budgets are what the per-page sorted ref lists this
// table replaced allocated (linux/amd64, Go 1.24: 2731.5, 777.9, 424.7
// and 54879.7 KiB), rounded up; the one-per-page budget is twice that,
// for the page record each populated page now carries. A layout that
// costs 2 KiB per page (a direct per-granule index) fails the first and
// third shapes.
var indexShapes = []struct {
	name      string
	budgetKiB float64
	build     func(t *Table[int])
}{
	{"one maxSpanPages-page object", 2732, func(t *Table[int]) {
		t.Insert(1<<40, maxSpanPages*pageSize, 0)
	}},
	{"8192 dense 64-byte objects", 778, func(t *Table[int]) {
		for i := 0; i < 8192; i++ {
			t.Insert(1<<40+uint64(i)*64, 64, i)
		}
	}},
	{"4096 objects one per page", 2 * 425, func(t *Table[int]) {
		for i := 0; i < 4096; i++ {
			t.Insert(1<<40+uint64(i)*pageSize, 64, i)
		}
	}},
	{"4096 objects one per chunk", 54880, func(t *Table[int]) {
		for i := 0; i < 4096; i++ {
			t.Insert(1<<40+uint64(i)*chunkPages*pageSize, 64, i)
		}
	}},
}

// TestIndexBytes is the address index's memory gate: building each
// shape in indexShapes from an empty table may allocate at most its
// budget. Skipped under the race detector, whose instrumentation
// allocates.
func TestIndexBytes(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation accounting is skewed by the race detector")
	}
	for _, s := range indexShapes {
		var before, after runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&before)
		tb := New[int]()
		s.build(tb)
		runtime.ReadMemStats(&after)
		kib := float64(after.TotalAlloc-before.TotalAlloc) / 1024
		t.Logf("%-30s %8.1f KiB (budget %.0f)", s.name, kib, s.budgetKiB)
		if kib > s.budgetKiB {
			t.Errorf("%s: allocated %.0f KiB, budget %.0f", s.name, kib, s.budgetKiB)
		}
		runtime.KeepAlive(tb)
	}
}
