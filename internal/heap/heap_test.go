package heap

import (
	"testing"
	"testing/quick"

	"heapmd/internal/event"
)

func mustAlloc(t *testing.T, s *Sim, size uint64) uint64 {
	t.Helper()
	a, err := s.Alloc(size)
	if err != nil {
		t.Fatalf("Alloc(%d): %v", size, err)
	}
	return a
}

// liveBytes sums the sizes of s's live objects.
func liveBytes(s *Sim) uint64 {
	var total uint64
	s.WalkLive(func(_, size uint64) bool { total += size; return true })
	return total
}

// countEvents subscribes a sink to s that tallies its events by type.
func countEvents(s *Sim) *[event.Leave + 1]int {
	var n [event.Leave + 1]int
	s.Subscribe(event.SinkFunc(func(e event.Event) { n[e.Type]++ }))
	return &n
}

func TestAllocBasics(t *testing.T) {
	s := New()
	n := countEvents(s)
	a := mustAlloc(t, s, 16)
	b := mustAlloc(t, s, 16)
	if a == b {
		t.Fatal("two live allocations share an address")
	}
	if a < Base || b < Base {
		t.Fatal("allocation below heap base")
	}
	if s.Live() != 2 {
		t.Fatalf("Live = %d, want 2", s.Live())
	}
	if lb, allocs := liveBytes(s), n[event.Alloc]; lb != 32 || allocs != 2 {
		t.Fatalf("live bytes %d, alloc events %d; want 32 and 2", lb, allocs)
	}
}

func TestAllocZeroSize(t *testing.T) {
	s := New()
	if _, err := s.Alloc(0); err != ErrBadSize {
		t.Fatalf("Alloc(0) err = %v, want ErrBadSize", err)
	}
}

func TestAllocRoundsUpToWord(t *testing.T) {
	s := New()
	a := mustAlloc(t, s, 3)
	size, ok := s.SizeOf(a)
	if !ok || size != WordSize {
		t.Fatalf("SizeOf = (%d,%v), want (%d,true)", size, ok, WordSize)
	}
}

func TestFreeAndReuse(t *testing.T) {
	s := New()
	a := mustAlloc(t, s, 24)
	if err := s.Free(a); err != nil {
		t.Fatal(err)
	}
	if s.Live() != 0 {
		t.Fatalf("Live = %d after free", s.Live())
	}
	// The same size class should reuse the freed address.
	b := mustAlloc(t, s, 24)
	if b != a {
		t.Errorf("freed address not reused: got %#x, freed %#x", b, a)
	}
}

func TestDoubleFree(t *testing.T) {
	s := New()
	a := mustAlloc(t, s, 8)
	if err := s.Free(a); err != nil {
		t.Fatal(err)
	}
	if err := s.Free(a); err != ErrDoubleFree {
		t.Fatalf("double free err = %v, want ErrDoubleFree", err)
	}
}

func TestFreeInteriorPointer(t *testing.T) {
	s := New()
	a := mustAlloc(t, s, 32)
	if err := s.Free(a + 8); err != ErrInvalidFree {
		t.Fatalf("interior free err = %v, want ErrInvalidFree", err)
	}
}

func TestStoreLoadRoundTrip(t *testing.T) {
	s := New()
	a := mustAlloc(t, s, 32)
	for i := uint64(0); i < 4; i++ {
		if err := s.Store(a+i*8, 100+i); err != nil {
			t.Fatal(err)
		}
	}
	for i := uint64(0); i < 4; i++ {
		v, err := s.Load(a + i*8)
		if err != nil {
			t.Fatal(err)
		}
		if v != 100+i {
			t.Errorf("Load word %d = %d, want %d", i, v, 100+i)
		}
	}
}

func TestStoreMisaligned(t *testing.T) {
	s := New()
	a := mustAlloc(t, s, 16)
	if err := s.Store(a+3, 1); err != ErrMisaligned {
		t.Fatalf("misaligned store err = %v, want ErrMisaligned", err)
	}
	if _, err := s.Load(a + 5); err != ErrMisaligned {
		t.Fatalf("misaligned load err = %v, want ErrMisaligned", err)
	}
}

func TestWildStoreTolerated(t *testing.T) {
	// Stores through dangling pointers must be permitted: buggy
	// programs perform them, and the instrumentation must observe
	// them rather than crash.
	s := New()
	a := mustAlloc(t, s, 16)
	if err := s.Free(a); err != nil {
		t.Fatal(err)
	}
	var stores []event.Event
	s.Subscribe(event.SinkFunc(func(e event.Event) {
		if e.Type == event.Store {
			stores = append(stores, e)
		}
	}))
	if err := s.Store(a, 42); err != nil {
		t.Fatalf("wild store err = %v, want nil", err)
	}
	if len(stores) != 1 || stores[0].Addr != a || stores[0].Value != 42 || stores[0].Old != 0 {
		t.Errorf("wild store emitted %+v, want one store of 42 at %#x", stores, a)
	}
	if v, _ := s.Load(a); v != 0 {
		t.Errorf("wild load = %d, want 0", v)
	}
}

func TestDanglingAliasing(t *testing.T) {
	// After free + reallocation of the same range, a stale pointer
	// addresses the NEW object — the aliasing that underlies real
	// dangling-pointer bugs (paper Figure 12).
	s := New()
	a := mustAlloc(t, s, 16)
	if err := s.Free(a); err != nil {
		t.Fatal(err)
	}
	b := mustAlloc(t, s, 16)
	if b != a {
		t.Skip("allocator did not recycle the range")
	}
	if err := s.Store(a, 7); err != nil { // store through stale pointer
		t.Fatal(err)
	}
	if v, _ := s.Load(b); v != 7 {
		t.Errorf("new object did not observe aliased store: %d", v)
	}
}

func TestReallocGrowPreservesContents(t *testing.T) {
	s := New()
	a := mustAlloc(t, s, 16)
	if err := s.Store(a, 11); err != nil {
		t.Fatal(err)
	}
	if err := s.Store(a+8, 22); err != nil {
		t.Fatal(err)
	}
	b, err := s.Realloc(a, 64)
	if err != nil {
		t.Fatal(err)
	}
	if b == a {
		t.Fatal("grow realloc should move the object")
	}
	if v, _ := s.Load(b); v != 11 {
		t.Errorf("word 0 = %d, want 11", v)
	}
	if v, _ := s.Load(b + 8); v != 22 {
		t.Errorf("word 1 = %d, want 22", v)
	}
	// Old range is gone.
	if _, _, ok := s.Contains(a); ok {
		t.Error("old range still mapped after realloc move")
	}
}

func TestReallocShrinkInPlace(t *testing.T) {
	s := New()
	a := mustAlloc(t, s, 64)
	b, err := s.Realloc(a, 16)
	if err != nil {
		t.Fatal(err)
	}
	if b != a {
		t.Error("shrink realloc should not move")
	}
	if size, _ := s.SizeOf(a); size != 16 {
		t.Errorf("size after shrink = %d, want 16", size)
	}
}

func TestReallocOfDeadObject(t *testing.T) {
	s := New()
	a := mustAlloc(t, s, 8)
	if err := s.Free(a); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Realloc(a, 16); err != ErrNotAllocated {
		t.Fatalf("realloc dead err = %v, want ErrNotAllocated", err)
	}
}

func TestContainsInteriorPointer(t *testing.T) {
	s := New()
	a := mustAlloc(t, s, 40)
	base, size, ok := s.Contains(a + 24)
	if !ok || base != a || size != 40 {
		t.Fatalf("Contains(interior) = (%#x,%d,%v), want (%#x,40,true)", base, size, ok, a)
	}
	if _, _, ok := s.Contains(a + 40); ok {
		t.Error("Contains one-past-end should be false")
	}
}

func TestEventEmission(t *testing.T) {
	s := New()
	var c [event.NumTypes]uint64
	s.Subscribe(event.SinkFunc(func(e event.Event) { c[e.Type]++ }))
	s.SetSite(7)

	a := mustAlloc(t, s, 16)
	if err := s.Store(a, 1); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Load(a); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Realloc(a, 32); err != nil {
		t.Fatal(err)
	}

	if c[event.Alloc] != 1 || c[event.Store] != 1 ||
		c[event.Load] != 1 || c[event.Realloc] != 1 {
		t.Errorf("event counts = %+v", c)
	}
}

func TestEventAttribution(t *testing.T) {
	s := New()
	var got []event.Event
	s.Subscribe(event.SinkFunc(func(e event.Event) { got = append(got, e) }))
	s.SetSite(42)
	a := mustAlloc(t, s, 8)
	if len(got) != 1 || got[0].Fn != 42 || got[0].Addr != a || got[0].Size != 8 {
		t.Fatalf("alloc event = %+v", got)
	}
	site, ok := s.SiteOf(a)
	if !ok || site != 42 {
		t.Errorf("SiteOf = (%d,%v), want (42,true)", site, ok)
	}
}

func TestStoreEventCarriesOldValue(t *testing.T) {
	s := New()
	var last event.Event
	s.Subscribe(event.SinkFunc(func(e event.Event) { last = e }))
	a := mustAlloc(t, s, 8)
	if err := s.Store(a, 5); err != nil {
		t.Fatal(err)
	}
	if last.Old != 0 || last.Value != 5 {
		t.Fatalf("first store event = %+v", last)
	}
	if err := s.Store(a, 9); err != nil {
		t.Fatal(err)
	}
	if last.Old != 5 || last.Value != 9 {
		t.Fatalf("second store event = %+v", last)
	}
}

func TestWalkLiveOrdered(t *testing.T) {
	s := New()
	for i := 0; i < 50; i++ {
		mustAlloc(t, s, 8*uint64(1+i%5))
	}
	prev := uint64(0)
	n := 0
	s.WalkLive(func(base, size uint64) bool {
		if base <= prev {
			t.Fatalf("WalkLive out of order: %#x after %#x", base, prev)
		}
		prev = base
		n++
		return true
	})
	if n != 50 {
		t.Errorf("WalkLive visited %d objects, want 50", n)
	}
}

func TestAddressSpaceExhaustion(t *testing.T) {
	s := New()
	s.limit = Base + 64
	if _, err := s.Alloc(32); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Alloc(64); err != ErrOutOfSpace {
		t.Fatalf("err = %v, want ErrOutOfSpace", err)
	}
}

// op encodes a randomized allocator operation for the property test.
type op struct {
	Kind byte
	Size uint16
	Pick uint16
}

// TestAllocatorInvariants drives random alloc/free/store sequences and
// checks global invariants: live ranges never overlap, their sizes sum
// to the word-rounded sizes the test allocated, and Live() matches the
// count.
func TestAllocatorInvariants(t *testing.T) {
	f := func(ops []op) bool {
		s := New()
		var live []uint64
		var want uint64
		for _, o := range ops {
			switch o.Kind % 3 {
			case 0:
				size := uint64(o.Size%256) + 1
				a, err := s.Alloc(size)
				if err != nil {
					return false
				}
				live = append(live, a)
				want += roundUp(size)
			case 1:
				if len(live) == 0 {
					continue
				}
				i := int(o.Pick) % len(live)
				size, _ := s.SizeOf(live[i])
				if err := s.Free(live[i]); err != nil {
					return false
				}
				want -= size
				live = append(live[:i], live[i+1:]...)
			case 2:
				if len(live) == 0 {
					continue
				}
				i := int(o.Pick) % len(live)
				if err := s.Store(live[i], uint64(o.Size)); err != nil {
					return false
				}
			}
		}
		if s.Live() != len(live) {
			return false
		}
		// Live ranges must be disjoint and account for every live byte.
		var total uint64
		prevEnd := uint64(0)
		okRanges := true
		s.WalkLive(func(base, size uint64) bool {
			if base < prevEnd {
				okRanges = false
				return false
			}
			prevEnd = base + size
			total += size
			return true
		})
		return okRanges && total == want
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// TestAddrMapContaining cross-checks the treap's containing-object
// query against a brute-force scan.
func TestAddrMapContaining(t *testing.T) {
	f := func(sizes []uint8, probes []uint16) bool {
		s := New()
		type rng struct{ base, size uint64 }
		var ranges []rng
		for _, sz := range sizes {
			size := uint64(sz%64) + 8
			a, err := s.Alloc(size)
			if err != nil {
				return false
			}
			ranges = append(ranges, rng{a, roundUp(size)})
		}
		for _, p := range probes {
			addr := Base + uint64(p)*8
			base, _, ok := s.Contains(addr)
			// brute force
			var wantBase uint64
			var wantOK bool
			for _, r := range ranges {
				if addr >= r.base && addr < r.base+r.size {
					wantBase, wantOK = r.base, true
					break
				}
			}
			if ok != wantOK || (ok && base != wantBase) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func BenchmarkAllocFree(b *testing.B) {
	s := New()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		a, err := s.Alloc(32)
		if err != nil {
			b.Fatal(err)
		}
		if err := s.Free(a); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkStore(b *testing.B) {
	s := New()
	a, err := s.Alloc(4096)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := s.Store(a+uint64(i%512)*8, uint64(i)); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkContaining(b *testing.B) {
	s := New()
	var addrs []uint64
	for i := 0; i < 10000; i++ {
		a, err := s.Alloc(uint64(8 + i%128))
		if err != nil {
			b.Fatal(err)
		}
		addrs = append(addrs, a)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Contains(addrs[i%len(addrs)] + 8)
	}
}
