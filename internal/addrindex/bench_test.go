package addrindex

import (
	"math/rand"
	"testing"

	"heapmd/internal/intervals"
)

// BenchmarkAddrResolve measures the core hot-path operation — resolve
// an address to its containing object — on the pagemap table against
// the treap it replaces, over an identical 64k-object heap image.
//
//   - scatter: probes follow a random permutation of the objects, so
//     consecutive probes land on unrelated pages (cache-hostile).
//   - burst: runs of consecutive probes land in one object, the
//     pattern the last-hit cache targets.
//   - churn: resolve mixed with remove/reinsert pairs at one base.
//   - fresh: free an object, allocate one at the next fresh ascending
//     address, then resolve a scattered probe: the shape of store-churn
//     and of recorded program traces, whose allocators rarely reuse a
//     base at once.
func BenchmarkAddrResolve(b *testing.B) {
	const n = 1 << 16
	const objBytes = 64
	base := func(i int) uint64 { return uint64(0x100_0000_0000) + uint64(i)*objBytes }
	perm := rand.New(rand.NewSource(1)).Perm(n)
	// fresh returns the heap image's bases, which the fresh case
	// replaces, and the first fresh address past them.
	fresh := func() ([]uint64, uint64) {
		live := make([]uint64, n)
		for i := range live {
			live[i] = base(i)
		}
		return live, base(n)
	}

	buildTable := func() *Table[int] {
		t := New[int]()
		for i := 0; i < n; i++ {
			t.Insert(base(i), objBytes, i)
		}
		return t
	}
	buildTreap := func() *intervals.Map[int] {
		m := intervals.New[int]()
		for i := 0; i < n; i++ {
			m.Insert(base(i), objBytes, i)
		}
		return m
	}

	b.Run("pagemap/scatter", func(b *testing.B) {
		t := buildTable()
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, _, _, ok := t.Stab(base(perm[i&(n-1)]) + 8); !ok {
				b.Fatal("miss")
			}
		}
	})
	b.Run("treap/scatter", func(b *testing.B) {
		m := buildTreap()
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, _, _, ok := m.Stab(base(perm[i&(n-1)]) + 8); !ok {
				b.Fatal("miss")
			}
		}
	})
	b.Run("pagemap/burst", func(b *testing.B) {
		t := buildTable()
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, _, _, ok := t.Stab(base((i/8)&(n-1)) + uint64(i%8)*8); !ok {
				b.Fatal("miss")
			}
		}
	})
	b.Run("treap/burst", func(b *testing.B) {
		m := buildTreap()
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, _, _, ok := m.Stab(base((i/8)&(n-1)) + uint64(i%8)*8); !ok {
				b.Fatal("miss")
			}
		}
	})
	b.Run("pagemap/churn", func(b *testing.B) {
		t := buildTable()
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			k := (i * 17) & (n - 1)
			t.Remove(base(k))
			t.Insert(base(k), objBytes, i)
			if _, _, _, ok := t.Stab(base(perm[i&(n-1)]) + 8); !ok {
				b.Fatal("miss")
			}
		}
	})
	b.Run("treap/churn", func(b *testing.B) {
		m := buildTreap()
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			k := (i * 17) & (n - 1)
			m.Remove(base(k))
			m.Insert(base(k), objBytes, i)
			if _, _, _, ok := m.Stab(base(perm[i&(n-1)]) + 8); !ok {
				b.Fatal("miss")
			}
		}
	})
	b.Run("pagemap/fresh", func(b *testing.B) {
		t := buildTable()
		live, next := fresh()
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			k := perm[i&(n-1)]
			t.Remove(live[k])
			live[k], next = next, next+objBytes
			t.Insert(live[k], objBytes, i)
			if _, _, _, ok := t.Stab(live[perm[(i*31+7)&(n-1)]] + 8); !ok {
				b.Fatal("miss")
			}
		}
	})
	b.Run("treap/fresh", func(b *testing.B) {
		m := buildTreap()
		live, next := fresh()
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			k := perm[i&(n-1)]
			m.Remove(live[k])
			live[k], next = next, next+objBytes
			m.Insert(live[k], objBytes, i)
			if _, _, _, ok := m.Stab(live[perm[(i*31+7)&(n-1)]] + 8); !ok {
				b.Fatal("miss")
			}
		}
	})
}
