package addrindex

import (
	"math/rand"
	"testing"

	"heapmd/internal/intervals"
)

// TestOracleAgainstIntervals drives identical randomized operation
// sequences through the pagemap table and the treap it replaces,
// comparing every query result. The treap is the semantic oracle: any
// divergence in Stab, Get, Remove or Len is a bug in the pagemap.
// Seeds 8–15 add the shapes only damaged raw traces produce: bases at
// any byte offset and sub-word sizes, so several ranges start in one
// 8-byte granule. Seeds 16–19 also Reset the table now and then (the
// oracle starts afresh), 18 and 19 with the damaged shapes; the other
// seeds draw exactly as they did before resets existed.
func TestOracleAgainstIntervals(t *testing.T) {
	for seed := int64(0); seed < 20; seed++ {
		seed := seed
		t.Run("", func(t *testing.T) {
			rng := rand.New(rand.NewSource(seed))
			tb := New[int]()
			or := intervals.New[int]()
			live := make(map[uint64]uint64) // base -> size

			// Address pool mixing tight same-page clusters, page-
			// spanning objects and far-apart chunks.
			unaligned := seed >= 8 && seed < 16 || seed >= 18
			resets := seed >= 16
			randBase := func() uint64 {
				region := uint64(rng.Intn(4)+1) << 32
				base := region + uint64(rng.Intn(1<<16))*8
				if unaligned {
					base += uint64(rng.Intn(8))
				}
				return base
			}
			randSize := func() uint64 {
				switch rng.Intn(10) {
				case 0:
					return 0 // degenerate
				case 1, 2:
					return uint64(rng.Intn(4*pageSize) + 1) // page-spanning
				case 3:
					if unaligned {
						return uint64(rng.Intn(7) + 1) // sub-word
					}
				}
				return uint64(rng.Intn(256) + 8) // typical object
			}

			for step := 0; step < 20000; step++ {
				if resets && rng.Intn(1000) == 0 {
					tb.Reset()
					or = intervals.New[int]()
					clear(live)
				}
				switch rng.Intn(10) {
				case 0, 1, 2, 3: // insert
					base := randBase()
					size := randSize()
					// Keep the disjointness invariant both structures
					// assume: skip candidates overlapping a live range
					// or duplicating a live base. (A zero-size range
					// strictly inside another range is permitted —
					// that is exactly the transparency edge case.)
					conflict := false
					for b, s := range live {
						if base == b || (base < b+s && b < base+size) {
							conflict = true
							break
						}
					}
					if conflict {
						continue
					}
					tb.Insert(base, size, step)
					or.Insert(base, size, step)
					live[base] = size
				case 4: // remove a live base
					for b := range live {
						gotP, gotOK := tb.Remove(b)
						wantV, wantOK := or.Get(b)
						if !or.Remove(b) || !gotOK || *gotP != wantV || !wantOK {
							t.Fatalf("seed %d step %d: Remove(%#x) = (%v,%v), oracle (%d,%v)",
								seed, step, b, gotP, gotOK, wantV, wantOK)
						}
						delete(live, b)
						break
					}
				case 5: // remove an absent base
					b := randBase()
					if _, isLive := live[b]; isLive {
						continue
					}
					_, gotOK := tb.Remove(b)
					wantOK := or.Remove(b)
					if gotOK != wantOK {
						t.Fatalf("seed %d step %d: absent Remove(%#x) = %v, oracle %v", seed, step, b, gotOK, wantOK)
					}
				default: // stab + get probes
					var addr uint64
					if len(live) > 0 && rng.Intn(2) == 0 {
						// Probe around a live range: interior, base,
						// one-past-end, just-below.
						for b, s := range live {
							switch rng.Intn(4) {
							case 0:
								addr = b
							case 1:
								addr = b + s // one past the end: must miss or hit a neighbour
							case 2:
								addr = b + s/2
							default:
								addr = b - 1
							}
							break
						}
					} else {
						addr = randBase() + uint64(rng.Intn(64))
					}
					gb, gs, gv, gok := tb.Stab(addr)
					wb, ws, wv, wok := or.Stab(addr)
					if gok != wok || (gok && (gb != wb || gs != ws || *gv != wv)) {
						t.Fatalf("seed %d step %d: Stab(%#x) = (%#x,%d,ok=%v), oracle (%#x,%d,ok=%v)",
							seed, step, addr, gb, gs, gok, wb, ws, wok)
					}
					g := tb.Get(addr)
					ov, ook := or.Get(addr)
					if (g != nil) != ook || (g != nil && *g != ov) {
						t.Fatalf("seed %d step %d: Get(%#x) mismatch", seed, step, addr)
					}
				}
				if tb.Len() != or.Len() {
					t.Fatalf("seed %d step %d: Len %d, oracle %d", seed, step, tb.Len(), or.Len())
				}
			}

			// Final sweep: walk both and compare the full contents.
			type rec struct{ base, size uint64 }
			var got, want []rec
			tb.Walk(func(b, s uint64, _ *int) bool { got = append(got, rec{b, s}); return true })
			or.Walk(func(b, s uint64, _ int) bool { want = append(want, rec{b, s}); return true })
			if len(got) != len(want) {
				t.Fatalf("seed %d: walk lengths %d vs %d", seed, len(got), len(want))
			}
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("seed %d: walk[%d] = %+v, oracle %+v", seed, i, got[i], want[i])
				}
			}
		})
	}
}
