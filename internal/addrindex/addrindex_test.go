package addrindex

import (
	"math/rand"
	"slices"
	"testing"
)

func TestInsertGetRemove(t *testing.T) {
	tb := New[string]()
	tb.Insert(100, 24, "a")
	tb.Insert(200, 8, "b")
	if tb.Len() != 2 {
		t.Fatalf("Len = %d, want 2", tb.Len())
	}
	if v := tb.Get(100); v == nil || *v != "a" {
		t.Errorf("Get(100) = %v", v)
	}
	if v := tb.Get(101); v != nil {
		t.Error("Get of interior address should fail")
	}
	if v, ok := tb.Remove(100); !ok || *v != "a" {
		t.Errorf("Remove(100) = (%v,%v)", v, ok)
	}
	if _, ok := tb.Remove(100); ok {
		t.Error("second Remove(100) should succeed only once")
	}
	if tb.Len() != 1 {
		t.Errorf("Len = %d, want 1", tb.Len())
	}
}

// TestInsertZeroClearsReusedRecord: InsertZero hands out a zero value
// also when it reuses the record of a removed range, whose value Remove
// leaves in place.
func TestInsertZeroClearsReusedRecord(t *testing.T) {
	tb := New[[4]string]()
	tb.Insert(100, 24, [4]string{"a", "b", "c", "d"})
	if _, ok := tb.Remove(100); !ok {
		t.Fatal("Remove(100) failed")
	}
	v := tb.InsertZero(200, 8)
	if *v != [4]string{} {
		t.Fatalf("InsertZero on a reused record = %q, want the zero value", *v)
	}
	if got := tb.Get(200); got != v {
		t.Fatalf("Get(200) = %p, want the record InsertZero returned (%p)", got, v)
	}
}

func TestStabBasics(t *testing.T) {
	tb := New[int]()
	tb.Insert(100, 24, 1)
	tb.Insert(200, 8, 2)

	base, size, v, ok := tb.Stab(116)
	if !ok || base != 100 || size != 24 || *v != 1 {
		t.Errorf("Stab(116) = (%d,%d,%v,%v)", base, size, v, ok)
	}
	if _, _, _, ok := tb.Stab(124); ok {
		t.Error("Stab one-past-end should miss")
	}
	if _, _, _, ok := tb.Stab(50); ok {
		t.Error("Stab below all ranges should miss")
	}
	if _, _, _, ok := tb.Stab(150); ok {
		t.Error("Stab in gap should miss")
	}
	if base, _, v, ok := tb.Stab(200); !ok || base != 200 || *v != 2 {
		t.Error("Stab at exact base should hit")
	}
}

// TestStabEdgeCases mirrors the intervals.Map table exactly: the
// pagemap must implement the same half-open, zero-size-transparent
// semantics the treap does.
func TestStabEdgeCases(t *testing.T) {
	type rng struct {
		base, size uint64
		val        int
	}
	type probe struct {
		addr     uint64
		wantBase uint64
		wantOK   bool
	}
	cases := []struct {
		name   string
		ranges []rng
		probes []probe
	}{
		{
			name:   "half-open end",
			ranges: []rng{{base: 100, size: 24, val: 1}},
			probes: []probe{
				{addr: 100, wantBase: 100, wantOK: true},
				{addr: 123, wantBase: 100, wantOK: true},
				{addr: 124, wantOK: false},
				{addr: 99, wantOK: false},
			},
		},
		{
			name:   "adjacent ranges share no address",
			ranges: []rng{{base: 64, size: 32, val: 1}, {base: 96, size: 32, val: 2}},
			probes: []probe{
				{addr: 95, wantBase: 64, wantOK: true},
				{addr: 96, wantBase: 96, wantOK: true},
				{addr: 127, wantBase: 96, wantOK: true},
				{addr: 128, wantOK: false},
			},
		},
		{
			name:   "zero-size range is never stabbed",
			ranges: []rng{{base: 200, size: 0, val: 1}},
			probes: []probe{
				{addr: 200, wantOK: false},
				{addr: 199, wantOK: false},
				{addr: 201, wantOK: false},
			},
		},
		{
			name:   "zero-size range does not shadow its container",
			ranges: []rng{{base: 100, size: 64, val: 1}, {base: 128, size: 0, val: 2}},
			probes: []probe{
				{addr: 127, wantBase: 100, wantOK: true},
				{addr: 128, wantBase: 100, wantOK: true},
				{addr: 163, wantBase: 100, wantOK: true},
				{addr: 164, wantOK: false},
			},
		},
		{
			name: "range ending at the top of the address space",
			ranges: []rng{
				{base: ^uint64(0) - 15, size: 16, val: 1},
			},
			probes: []probe{
				{addr: ^uint64(0) - 16, wantOK: false},
				{addr: ^uint64(0) - 15, wantBase: ^uint64(0) - 15, wantOK: true},
				{addr: ^uint64(0), wantBase: ^uint64(0) - 15, wantOK: true},
				{addr: 0, wantOK: false},
			},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			tb := New[int]()
			for _, r := range tc.ranges {
				tb.Insert(r.base, r.size, r.val)
			}
			for _, p := range tc.probes {
				base, _, _, ok := tb.Stab(p.addr)
				if ok != p.wantOK || (ok && base != p.wantBase) {
					t.Errorf("Stab(%#x) = (base=%#x, ok=%v), want (base=%#x, ok=%v)",
						p.addr, base, ok, p.wantBase, p.wantOK)
				}
			}
			for _, r := range tc.ranges {
				if v := tb.Get(r.base); v == nil || *v != r.val {
					t.Errorf("Get(%#x) = %v, want %d", r.base, v, r.val)
				}
			}
		})
	}
}

// TestLastHitCacheInvalidation: a removed range must not keep
// resolving through the last-hit cache, and a recycled arena slot must
// resolve to its new range only.
func TestLastHitCacheInvalidation(t *testing.T) {
	tb := New[int]()
	tb.Insert(4096, 64, 1)
	if _, _, _, ok := tb.Stab(4100); !ok {
		t.Fatal("warm-up stab missed")
	}
	tb.Remove(4096)
	if _, _, _, ok := tb.Stab(4100); ok {
		t.Fatal("stab hit a removed range via the cache")
	}
	// Recycle the slot with a different range.
	tb.Insert(8192, 32, 2)
	if _, _, _, ok := tb.Stab(4100); ok {
		t.Fatal("stab hit the old range after slot recycling")
	}
	if base, _, v, ok := tb.Stab(8200); !ok || base != 8192 || *v != 2 {
		t.Fatalf("stab of recycled slot = (%d,%v,%v)", base, v, ok)
	}
}

// TestMultiPageObjects: ranges spanning page and chunk boundaries must
// resolve from any interior page.
func TestMultiPageObjects(t *testing.T) {
	tb := New[int]()
	const base = uint64(0x100_0000_0000)
	const size = uint64(5 * pageSize)                               // five pages
	tb.Insert(base-64, 64, 7)                                       // neighbour before
	tb.Insert(base, size, 1)                                        // the spanning object
	tb.Insert(base+size, 128, 9)                                    // neighbour after
	tb.Insert(base+7*chunkPages*pageSize, 3*chunkPages*pageSize, 2) // spans 3 chunks

	probes := []struct {
		addr uint64
		want int
	}{
		{base, 1},
		{base + pageSize, 1},
		{base + 3*pageSize + 17, 1},
		{base + size - 1, 1},
		{base - 1, 7},
		{base + size, 9},
		{base + 7*chunkPages*pageSize + chunkPages*pageSize + 5, 2},
		{base + 10*chunkPages*pageSize - 1, 2},
	}
	for _, p := range probes {
		_, _, v, ok := tb.Stab(p.addr)
		if !ok || *v != p.want {
			t.Errorf("Stab(%#x) = (%v,%v), want %d", p.addr, v, ok, p.want)
		}
	}
	if _, ok := tb.Remove(base); !ok {
		t.Fatal("Remove of spanning object failed")
	}
	for _, p := range probes[:4] {
		if _, _, _, ok := tb.Stab(p.addr); ok {
			t.Errorf("Stab(%#x) hit after removal", p.addr)
		}
	}
	// Neighbours survive.
	if _, _, v, ok := tb.Stab(base - 1); !ok || *v != 7 {
		t.Error("neighbour before lost")
	}
	if _, _, v, ok := tb.Stab(base + size); !ok || *v != 9 {
		t.Error("neighbour after lost")
	}
}

// TestHugeObject: a range wider than maxSpanPages goes through the
// side list with identical semantics.
func TestHugeObject(t *testing.T) {
	tb := New[int]()
	const base = uint64(1) << 40
	const size = uint64(maxSpanPages+3) * pageSize
	tb.Insert(base, size, 1)
	tb.Insert(base-4096, 4096, 2)
	if _, _, v, ok := tb.Stab(base + size/2); !ok || *v != 1 {
		t.Fatalf("interior stab of huge object = (%v,%v)", v, ok)
	}
	if _, _, _, ok := tb.Stab(base + size); ok {
		t.Fatal("stab one-past-end of huge object should miss")
	}
	if v := tb.Get(base); v == nil || *v != 1 {
		t.Fatal("Get of huge object failed")
	}
	if _, _, v, ok := tb.Stab(base - 1); !ok || *v != 2 {
		t.Fatal("neighbour of huge object lost")
	}
	if _, ok := tb.Remove(base); !ok {
		t.Fatal("Remove of huge object failed")
	}
	if _, _, _, ok := tb.Stab(base + size/2); ok {
		t.Fatal("huge object still stabbable after removal")
	}
	// A pathological size must neither loop nor allocate per page.
	tb.Insert(64, ^uint64(0)-128, 3)
	if _, _, v, ok := tb.Stab(1 << 50); !ok || *v != 3 {
		t.Fatal("pathological range did not resolve")
	}
	if _, ok := tb.Remove(64); !ok {
		t.Fatal("Remove of pathological range failed")
	}
}

// TestValuePointerStability: pointers returned by Insert/Get/Stab must
// allow in-place mutation visible to later queries (until the next
// Insert/Remove, which the logger respects).
func TestValuePointerStability(t *testing.T) {
	tb := New[[2]int]()
	tb.Insert(4096, 64, [2]int{1, 2})
	_, _, v, ok := tb.Stab(4100)
	if !ok {
		t.Fatal("stab missed")
	}
	v[0] = 42
	if g := tb.Get(4096); g == nil || g[0] != 42 {
		t.Fatalf("mutation through Stab pointer not visible: %v", g)
	}
}

func TestWalkOrdered(t *testing.T) {
	tb := New[int]()
	bases := []uint64{1 << 30, 64, 4096, 1 << 20, 8192}
	for i, b := range bases {
		tb.Insert(b, 32, i)
	}
	tb.Remove(4096)
	var got []uint64
	tb.Walk(func(base, size uint64, _ *int) bool {
		got = append(got, base)
		return true
	})
	want := []uint64{64, 8192, 1 << 20, 1 << 30}
	if len(got) != len(want) {
		t.Fatalf("walk visited %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("walk order %v, want %v", got, want)
		}
	}
	n := 0
	tb.Walk(func(uint64, uint64, *int) bool { n++; return false })
	if n != 1 {
		t.Errorf("early-stop walk visited %d, want 1", n)
	}
}

// TestArenaRecycling: steady-state free/alloc traffic must reuse arena
// slots instead of growing the arena.
func TestArenaRecycling(t *testing.T) {
	tb := New[int]()
	for i := 0; i < 64; i++ {
		tb.Insert(uint64(4096+i*64), 64, i)
	}
	grown := tb.arena.Len()
	for round := 0; round < 100; round++ {
		b := uint64(4096 + (round%64)*64)
		tb.Remove(b)
		tb.Insert(b, 64, round)
	}
	if tb.arena.Len() != grown {
		t.Fatalf("arena grew from %d to %d under steady-state churn", grown, tb.arena.Len())
	}
	if tb.Len() != 64 {
		t.Fatalf("Len = %d, want 64", tb.Len())
	}
}

// TestOverlappingInsertsStaySafe feeds the table what a damaged raw
// trace can make the logger insert: overlapping ranges and duplicate
// bases, at any alignment, in a few pages around a chunk boundary. The
// table need not resolve such a heap as the treap would, but it must
// stay safe: no panic, every Stab hit contains the probed address and
// names a live range, Get and Remove reach every inserted base once,
// Len returns to 0, and a removed range never resolves again once its
// arena slot is recycled.
func TestOverlappingInsertsStaySafe(t *testing.T) {
	type rec struct{ base, size uint64 }
	const region = uint64(1<<32 + chunkPages*pageSize - 2*pageSize)
	for seed := int64(0); seed < 4; seed++ {
		rng := rand.New(rand.NewSource(seed))
		tb := New[int]()
		live := make(map[int]rec)       // value -> range
		count := make(map[uint64]int)   // base -> live ranges based there
		removed := make(map[uint64]int) // base -> ranges removed from there
		randAddr := func() uint64 { return region + uint64(rng.Intn(4*pageSize)) }
		randSize := func() uint64 {
			switch rng.Intn(8) {
			case 0:
				return 0
			case 1:
				return uint64(rng.Intn(3*pageSize) + 1)
			case 2:
				return (maxSpanPages + 1) * pageSize
			default:
				return uint64(rng.Intn(64) + 1)
			}
		}
		checkStab := func(step int, addr uint64) {
			b, s, v, ok := tb.Stab(addr)
			if !ok {
				return
			}
			r, isLive := live[*v]
			if !isLive || r != (rec{b, s}) || addr-b >= s {
				t.Fatalf("seed %d step %d: Stab(%#x) = (%#x, %d, value %d), live %v as %+v",
					seed, step, addr, b, s, *v, isLive, r)
			}
		}
		var bases []uint64
		for step := 0; step < 4000; step++ {
			switch op := rng.Intn(10); {
			case op < 4:
				base := randAddr()
				if len(bases) > 0 && rng.Intn(4) == 0 {
					base = bases[rng.Intn(len(bases))] // duplicate base
				}
				size := randSize()
				if v := tb.Insert(base, size, step); *v != step {
					t.Fatalf("seed %d step %d: Insert returned value %d", seed, step, *v)
				}
				live[step] = rec{base, size}
				count[base]++
				bases = append(bases, base)
			case op < 6 && len(bases) > 0:
				base := bases[rng.Intn(len(bases))]
				p, ok := tb.Remove(base)
				if ok != (count[base] > 0) {
					t.Fatalf("seed %d step %d: Remove(%#x) ok=%v with %d live there", seed, step, base, ok, count[base])
				}
				if ok {
					v := *p
					if r, isLive := live[v]; !isLive || r.base != base {
						t.Fatalf("seed %d step %d: Remove(%#x) returned value %d, live %v as %+v", seed, step, base, v, isLive, r)
					}
					delete(live, v)
					count[base]--
					removed[base]++
				}
			case op < 7 && len(bases) > 0:
				base := bases[rng.Intn(len(bases))]
				v := tb.Get(base)
				if (v != nil) != (count[base] > 0) || (v != nil && live[*v].base != base) {
					t.Fatalf("seed %d step %d: Get(%#x) disagrees with %d live there", seed, step, base, count[base])
				}
			default:
				addr := randAddr()
				if len(bases) > 0 && rng.Intn(2) == 0 {
					addr = bases[rng.Intn(len(bases))] + uint64(rng.Intn(16)) - 8
				}
				checkStab(step, addr)
			}
			if tb.Len() != len(live) {
				t.Fatalf("seed %d step %d: Len %d, want %d", seed, step, tb.Len(), len(live))
			}
		}
		// Drain: each base gives up exactly its live ranges, then misses.
		for base, n := range count {
			for k := 0; k < n; k++ {
				p, ok := tb.Remove(base)
				if !ok {
					t.Fatalf("seed %d: drain Remove(%#x) #%d missed", seed, base, k)
				}
				v := *p
				if r, isLive := live[v]; !isLive || r.base != base {
					t.Fatalf("seed %d: drain Remove(%#x) #%d = %d", seed, base, k, v)
				}
				delete(live, v)
			}
			if _, ok := tb.Remove(base); ok {
				t.Fatalf("seed %d: Remove(%#x) succeeded more often than inserted", seed, base)
			}
		}
		if tb.Len() != 0 {
			t.Fatalf("seed %d: Len %d after draining", seed, tb.Len())
		}
		// Recycle every arena slot with disjoint ranges far away; no
		// address of the old region may resolve any more.
		const far = uint64(9 << 40)
		for k := 0; k < tb.arena.Len(); k++ {
			tb.Insert(far+uint64(k)*64, 64, -1-k)
			live[-1-k] = rec{far + uint64(k)*64, 64}
		}
		for a := region - 16; a < region+8*pageSize; a += 3 {
			if _, _, v, ok := tb.Stab(a); ok {
				t.Fatalf("seed %d: Stab(%#x) hit value %d after all old ranges were removed", seed, a, *v)
			}
		}
		for k := 0; k < tb.arena.Len(); k += 7 {
			checkStab(-1, far+uint64(k)*64+9)
		}
	}
}

// TestRemovedRecordUnhittable: Remove hands back the record's value in
// place, and until the next Insert that pointer still reads the value,
// while no Stab reaches the record: not through the last-hit cache, not
// through its page, and not through the cover of a later page it used
// to reach.
func TestRemovedRecordUnhittable(t *testing.T) {
	tb := New[int]()
	const base = 1 << 32
	tb.Insert(base, 3*pageSize, 7)
	tb.Insert(base+4*pageSize, 64, 8)
	for _, addr := range []uint64{base + 8, base + 2*pageSize + 8} {
		if _, _, _, ok := tb.Stab(addr); !ok {
			t.Fatalf("warm-up Stab(%#x) missed", addr)
		}
	}
	v, ok := tb.Remove(base)
	if !ok || *v != 7 {
		t.Fatalf("Remove = (%v, %v), want the value 7", v, ok)
	}
	for _, addr := range []uint64{base + 8, base + 2*pageSize + 8, base, base + 3*pageSize - 1} {
		if b, s, _, ok := tb.Stab(addr); ok {
			t.Fatalf("Stab(%#x) hit removed range [%#x, +%d)", addr, b, s)
		}
	}
	if *v != 7 {
		t.Fatalf("removed value reads %d before the next Insert, want 7", *v)
	}
	if g := tb.Get(base); g != nil {
		t.Fatalf("Get of a removed base = %v", g)
	}
}

// TestMoveMatchesRemoveInsert drives two tables through one random
// sequence, one moving ranges with Move and the other with Remove and
// then Insert of the removed value, over the shapes a damaged trace
// can make (overlaps, duplicate bases, unaligned and zero-size ranges,
// huge ranges, moves onto live bases). Every query must agree at every
// step, and Move must return the moved value.
func TestMoveMatchesRemoveInsert(t *testing.T) {
	const region = uint64(1<<32 + chunkPages*pageSize - 2*pageSize)
	for seed := int64(0); seed < 4; seed++ {
		rng := rand.New(rand.NewSource(seed))
		moved, copied := New[int](), New[int]()
		randAddr := func() uint64 { return region + uint64(rng.Intn(4*pageSize)) }
		randSize := func() uint64 {
			switch rng.Intn(8) {
			case 0:
				return 0
			case 1:
				return uint64(rng.Intn(3*pageSize) + 1)
			case 2:
				return (maxSpanPages + 1) * pageSize
			default:
				return uint64(rng.Intn(64) + 1)
			}
		}
		var bases []uint64
		pick := func() uint64 {
			if len(bases) > 0 && rng.Intn(4) != 0 {
				return bases[rng.Intn(len(bases))]
			}
			return randAddr()
		}
		for step := 0; step < 4000; step++ {
			switch op := rng.Intn(10); {
			case op < 4:
				base, size := pick(), randSize()
				moved.Insert(base, size, step)
				copied.Insert(base, size, step)
				bases = append(bases, base)
			case op < 6:
				base := pick()
				a, okA := moved.Remove(base)
				b, okB := copied.Remove(base)
				if okA != okB || okA && *a != *b {
					t.Fatalf("seed %d step %d: Remove(%#x) disagrees", seed, step, base)
				}
			case op < 8:
				oldBase, newBase, newSize := pick(), pick(), randSize()
				if rng.Intn(4) == 0 {
					newBase = oldBase
				}
				a, okA := moved.Move(oldBase, newBase, newSize)
				b, okB := copied.Remove(oldBase)
				if okA != okB || okA && *a != *b {
					t.Fatalf("seed %d step %d: Move(%#x→%#x) = (%v, %v), Remove (%v, %v)", seed, step, oldBase, newBase, a, okA, b, okB)
				}
				if okB {
					copied.Insert(newBase, newSize, *b)
					bases = append(bases, newBase)
				}
			default:
				addr := pick() + uint64(rng.Intn(16)) - 8
				ba, sa, va, okA := moved.Stab(addr)
				bb, sb, vb, okB := copied.Stab(addr)
				if okA != okB || okA && (ba != bb || sa != sb || *va != *vb) {
					t.Fatalf("seed %d step %d: Stab(%#x) disagrees", seed, step, addr)
				}
				ga, gb := moved.Get(addr), copied.Get(addr)
				if (ga == nil) != (gb == nil) || ga != nil && *ga != *gb {
					t.Fatalf("seed %d step %d: Get(%#x) disagrees", seed, step, addr)
				}
			}
			if moved.Len() != copied.Len() || moved.arena.Len() != copied.arena.Len() {
				t.Fatalf("seed %d step %d: Len %d/%d, arena %d/%d", seed, step,
					moved.Len(), copied.Len(), moved.arena.Len(), copied.arena.Len())
			}
		}
		type rec struct {
			base, size uint64
			v          int
		}
		walk := func(tb *Table[int]) (out []rec) {
			tb.Walk(func(base, size uint64, v *int) bool {
				out = append(out, rec{base, size, *v})
				return true
			})
			return out
		}
		if a, b := walk(moved), walk(copied); !slices.Equal(a, b) {
			t.Fatalf("seed %d: final tables differ:\n%v\n%v", seed, a, b)
		}
	}
}
