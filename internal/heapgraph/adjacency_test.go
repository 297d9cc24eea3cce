package heapgraph

import (
	"encoding/binary"
	"testing"
)

// spillSlots bounds the slots a spill program names, so single-slot
// steps keep hitting the neighbours a bulk step added.
const spillSlots = 1 << 13

// spillProgram runs a byte program against two adjacency sets that
// share one spill pool, diffing each against a map[int32]int32 oracle.
// A step is three bytes: an opcode whose top bit picks the set, then a
// little-endian operand. Single-slot steps name slot operand%spillSlots;
// bulk steps touch count = operand%spillSlots slots, strided by
// 1+operand/spillSlots, so a program crosses the inline threshold in
// both directions and reaches thousands of neighbours in a few steps.
func spillProgram(t *testing.T, data []byte) {
	var pool spillPool
	var sets [2]adjacency
	refs := [2]map[int32]int32{{}, {}}
	check := func(k int) {
		t.Helper()
		a, ref := &sets[k], refs[k]
		if a.distinct() != len(ref) {
			t.Fatalf("set %d: distinct %d, oracle %d", k, a.distinct(), len(ref))
		}
		seen := map[int32]bool{}
		a.each(func(w, m int32) bool {
			if seen[w] || ref[w] != m {
				t.Fatalf("set %d: each gave slot %d mult %d (repeat %v), oracle %d", k, w, m, seen[w], ref[w])
			}
			seen[w] = true
			return true
		})
		if len(seen) != len(ref) {
			t.Fatalf("set %d: each visited %d slots, oracle %d", k, len(seen), len(ref))
		}
		for w, m := range ref {
			if got := a.get(w); got != m {
				t.Fatalf("set %d: get(%d) = %d, oracle %d", k, w, got, m)
			}
		}
		if s := a.spill; s != nil && 3*int(a.n) > 2*len(s.e) {
			t.Fatalf("set %d: %d entries in a table of %d", k, a.n, len(s.e))
		}
		out := 0
		for i := range sets {
			if sets[i].spill != nil {
				out++
			}
		}
		if out != pool.out {
			t.Fatalf("pool lent %d tables, sets hold %d", pool.out, out)
		}
	}
	for ; len(data) >= 3; data = data[3:] {
		k, op := int(data[0]>>7), data[0]&7
		x := int32(binary.LittleEndian.Uint16(data[1:]))
		a, ref := &sets[k], refs[k]
		w := x % spillSlots
		count, stride := w, 1+x/spillSlots
		switch op {
		case 0:
			ref[w]++
			if got := a.inc(w, &pool); got != ref[w] {
				t.Fatalf("set %d: inc(%d) = %d, oracle %d", k, w, got, ref[w])
			}
		case 1:
			want := ref[w]
			if want > 0 {
				want--
				if want == 0 {
					delete(ref, w)
				} else {
					ref[w] = want
				}
			}
			if got := a.dec(w); got != want {
				t.Fatalf("set %d: dec(%d) = %d, oracle %d", k, w, got, want)
			}
		case 2:
			delete(ref, w)
			a.drop(w)
		case 3:
			if got := a.get(w); got != ref[w] {
				t.Fatalf("set %d: get(%d) = %d, oracle %d", k, w, got, ref[w])
			}
		case 4:
			check(k)
		case 5:
			for i := int32(0); i < count; i++ {
				s := i * stride % spillSlots
				ref[s]++
				a.inc(s, &pool)
			}
			check(k)
		case 6:
			for i := int32(0); i < count; i++ {
				s := i * stride % spillSlots
				delete(ref, s)
				a.drop(s)
			}
			check(k)
		case 7:
			a.release(&pool)
			clear(ref)
			check(k)
		}
	}
	check(0)
	check(1)
}

// spillStep encodes one spillProgram step.
func spillStep(set, op byte, operand uint16) []byte {
	return []byte{set<<7 | op, byte(operand), byte(operand >> 8)}
}

// FuzzSpillSet diffs the adjacency set — inline, spilled and recycled
// through the spill pool — against a map oracle over inc, dec, drop,
// get and each.
func FuzzSpillSet(f *testing.F) {
	var cross []byte // over the inline threshold and back, then reset
	for w := uint16(0); w < 12; w++ {
		cross = append(cross, spillStep(0, 0, w*7)...)
	}
	for w := uint16(0); w < 12; w += 2 {
		cross = append(cross, spillStep(0, 1, w*7)...)
	}
	cross = append(cross, spillStep(0, 4, 0)...)
	cross = append(cross, spillStep(0, 7, 0)...)
	cross = append(cross, spillStep(1, 5, 10)...)
	f.Add(cross)
	// Degree 4096, thinned to 96 and regrown at stride 3 after the
	// table went back to the pool and came out for the other set.
	var hub []byte
	hub = append(hub, spillStep(0, 5, 4096)...)
	hub = append(hub, spillStep(0, 0, 5)...)
	hub = append(hub, spillStep(0, 6, 4000)...)
	hub = append(hub, spillStep(0, 1, 4001)...)
	hub = append(hub, spillStep(0, 7, 0)...)
	hub = append(hub, spillStep(1, 5, 2*spillSlots+5000)...)
	hub = append(hub, spillStep(1, 6, 2*spillSlots+4990)...)
	hub = append(hub, spillStep(0, 5, spillSlots+4100)...)
	f.Add(hub)
	f.Fuzz(func(t *testing.T, data []byte) { spillProgram(t, data) })
}

// TestResetKeepsSpillTables builds a graph with hub vertices, resets
// it and builds the same graph again: the second build must take
// every spill table from the pool and allocate nothing.
func TestResetKeepsSpillTables(t *testing.T) {
	const hubs, spokes = 4, 3000
	v := make([]VertexID, hubs+spokes)
	g := New()
	build := func() {
		g.Reset()
		for i := range v {
			v[i] = g.AddVertex()
		}
		for h := 0; h < hubs; h++ {
			for s := hubs; s < len(v); s++ {
				g.AddEdge(v[h], v[s])
				g.AddEdge(v[s], v[h])
			}
		}
		// Remove one hub, so its tables go back through RemoveVertex.
		g.RemoveVertex(v[0])
	}
	build()
	if msg := g.CheckInvariants(); msg != "" {
		t.Fatal(msg)
	}
	if allocs := testing.AllocsPerRun(3, build); allocs != 0 {
		t.Errorf("rebuilding the hub graph after Reset allocated %.0f times, want 0", allocs)
	}
	if msg := g.CheckInvariants(); msg != "" {
		t.Fatal(msg)
	}
}
