package addrindex

import (
	"math/rand"
	"testing"

	"heapmd/internal/intervals"
)

// fuzzRegions are the address neighbourhoods the fuzzer draws from: a
// plain region, one straddling a 2 MiB chunk boundary, a far-away
// chunk, and one just below the top of the address space, where page
// spans clamp.
var fuzzRegions = [4]uint64{
	1 << 32,
	1<<32 + chunkPages*pageSize - 1<<16,
	5 << 40,
	^uint64(0) - 1<<20 + 1,
}

// fuzzOp is one operation of the fuzzer's byte stream.
type fuzzOp struct{ code, hi, lo, arg byte }

// encode appends op to a fuzz input.
func (op fuzzOp) encode(data []byte) []byte {
	return append(data, op.code, op.hi, op.lo, op.arg)
}

// fuzzAddr is the address an operation names: region hi>>6, then
// 8-byte steps (hi&63)<<8|lo into it — 128 KiB, 32 pages — plus a byte
// offset of 0–7 from the opcode's spare bits code>>2&7, so unaligned
// bases share granules (opcodes 0–3 name the aligned address).
func fuzzAddr(code, hi, lo byte) uint64 {
	return fuzzRegions[hi>>6] + (uint64(hi&63)<<8|uint64(lo))*8 + uint64(code>>2&7)
}

// fuzzSize is the size an insert's arg selects: zero (Stab-transparent)
// or sub-word (1–7 bytes, for k >= 32), a small object, a page-spanning
// one, or one wider than maxSpanPages (the huge list).
func fuzzSize(arg byte) uint64 {
	k := uint64(arg & 63)
	switch arg >> 6 {
	case 0:
		if k < 32 {
			return 0
		}
		return 1 + k%7
	case 1:
		return 8 + 8*k
	case 2:
		return 1 + k*pageSize/4
	default:
		return (maxSpanPages+1)*pageSize + k<<20
	}
}

// fuzzSeeds builds seed inputs in the shapes of
// TestOracleAgainstIntervals: same-page clusters, page-spanning and
// zero-size objects, removals of live and absent bases, and probes at
// a base, one past the end, the interior and just below. The fourth
// seed inserts enough objects to cross several arena segment
// boundaries (63/64, 191/192) and recycles slots across them; the
// fifth packs 1–3-byte objects into the granule where a page-spanning
// object ends, next to another page-spanning one, probes every byte
// around them and removes them one by one. The last runs the fourth
// and fifth on one table with a Reset before, between and after them.
func fuzzSeeds() [][]byte {
	rng := rand.New(rand.NewSource(1))
	probe := func(data []byte, hi, lo byte) []byte {
		for _, d := range []byte{0, 1, 2, 3} {
			data = fuzzOp{code: 2 + d%2, hi: hi, lo: lo, arg: []byte{0, 64, 8, 255}[d]}.encode(data)
		}
		return data
	}
	var cluster, spanning, mixed, many []byte
	for i := 0; i < 8; i++ {
		lo := byte(i * 8)
		cluster = fuzzOp{code: 0, hi: 0, lo: lo, arg: 64 | 7}.encode(cluster)
		cluster = probe(cluster, 0, lo)
	}
	cluster = fuzzOp{code: 1, hi: 0, lo: 16}.encode(cluster)
	cluster = probe(cluster, 0, 16)
	for r := byte(0); r < 4; r++ {
		hi := r<<6 | 1
		spanning = fuzzOp{code: 0, hi: hi, lo: 0, arg: 128 | 9}.encode(spanning)
		spanning = fuzzOp{code: 0, hi: hi + 8, lo: 0, arg: 0}.encode(spanning)
		spanning = probe(spanning, hi, 0)
		spanning = fuzzOp{code: 1, hi: hi + 16, lo: 0}.encode(spanning)
	}
	for i := 0; i < 200; i++ {
		op := fuzzOp{code: byte(rng.Intn(4)), hi: byte(rng.Intn(256)), lo: byte(rng.Intn(256)), arg: byte(rng.Intn(256))}
		mixed = op.encode(mixed)
	}
	for i := 0; i < 260; i++ {
		many = fuzzOp{code: 0, hi: byte(i >> 4), lo: byte(i << 4), arg: 64 | byte(i%8)}.encode(many)
	}
	for i := 0; i < 260; i += 3 {
		many = fuzzOp{code: 1, hi: byte(i >> 4), lo: byte(i << 4)}.encode(many)
		many = probe(many, byte(i>>4), byte(i<<4))
	}
	for i := 0; i < 40; i++ {
		many = fuzzOp{code: 0, hi: 32 + byte(i>>4), lo: byte(i << 4), arg: 64 | 3}.encode(many)
	}
	// The spanning object covers region bytes [2048, 11265): granule
	// 1408 (hi 5, lo 128) holds its last byte and then the packed ones,
	// whose size class arg 34+size (k%7 = size-1) is sub-word.
	packed := fuzzOp{code: 0, hi: 1, lo: 0, arg: 128 | 9}.encode(nil)
	for _, o := range []struct{ off, size byte }{{1, 1}, {2, 2}, {5, 3}, {4, 1}} {
		packed = fuzzOp{code: o.off << 2, hi: 5, lo: 128, arg: 34 + o.size}.encode(packed)
	}
	packed = fuzzOp{code: 0, hi: 5, lo: 129, arg: 128 | 5}.encode(packed)
	probeAll := func(data []byte) []byte {
		for d := -9; d <= 16; d++ {
			data = fuzzOp{code: 2, hi: 5, lo: 128, arg: byte(int8(d))}.encode(data)
			data = fuzzOp{code: 3, hi: 5, lo: 128, arg: byte(int8(d))}.encode(data)
		}
		return data
	}
	packed = probeAll(packed)
	for _, off := range []byte{2, 1, 5, 4} {
		packed = fuzzOp{code: 1 | off<<2, hi: 5, lo: 128}.encode(packed)
		packed = probeAll(packed)
	}
	reset := fuzzOp{code: fuzzReset}.encode(nil)
	var resets []byte
	for _, part := range [][]byte{many, reset, packed, reset, many, reset} {
		resets = append(resets, part...)
	}
	resets = probeAll(resets)
	return [][]byte{cluster, spanning, mixed, many, packed, resets}
}

// fuzzReset is the lowest opcode byte that resets the table; no
// opcode below it names a reset, so the other seeds keep their meaning.
const fuzzReset = 0xf8

// FuzzAddrIndexOracle drives a byte-driven stream of Insert, Remove,
// Stab, Get and Reset through the table and through intervals.Map, the
// treap it replaces, and fails on the first disagreement. Each
// operation is four bytes: an opcode (fuzzReset and above: Reset the
// table in place and start a fresh oracle; otherwise mod 4: insert,
// remove, stab, get, with bits 2–4 a byte offset), two address bytes
// (fuzzAddr) and an argument — the size class for an insert
// (fuzzSize), a signed displacement from the address for a stab or
// get. Inserts that would overlap a live range are skipped, as
// allocators never hand out overlapping ranges. Only the first
// maxFuzzOps operations run: the overlap check scans every live range,
// and the mutator's megabyte inputs would make one run take minutes.
func FuzzAddrIndexOracle(f *testing.F) {
	const maxFuzzOps = 2048
	for _, seed := range fuzzSeeds() {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 4*maxFuzzOps {
			data = data[:4*maxFuzzOps]
		}
		tb := New[int]()
		or := intervals.New[int]()
		live := make(map[uint64]uint64) // base -> size
		for k := 0; k+4 <= len(data); k += 4 {
			op := fuzzOp{code: data[k], hi: data[k+1], lo: data[k+2], arg: data[k+3]}
			addr := fuzzAddr(op.code, op.hi, op.lo)
			switch {
			case op.code >= fuzzReset:
				tb.Reset()
				or = intervals.New[int]()
				clear(live)
			case op.code%4 == 0:
				size := fuzzSize(op.arg)
				if addr+size < addr {
					size = ^uint64(0) - addr // keep the range inside the address space
				}
				conflict := false
				for b, s := range live {
					if addr == b || (addr < b+s && b < addr+size) {
						conflict = true
						break
					}
				}
				if conflict {
					continue
				}
				if got := tb.Insert(addr, size, k); *got != k {
					t.Fatalf("op %d: Insert(%#x, %d) returned value %d", k/4, addr, size, *got)
				}
				or.Insert(addr, size, k)
				live[addr] = size
			case op.code%4 == 1:
				gotP, gotOK := tb.Remove(addr)
				wantV, wantOK := or.Get(addr)
				if or.Remove(addr) != wantOK || gotOK != wantOK || (gotOK && *gotP != wantV) {
					t.Fatalf("op %d: Remove(%#x) = (%v, %v), oracle (%d, %v)", k/4, addr, gotP, gotOK, wantV, wantOK)
				}
				delete(live, addr)
			case op.code%4 == 2:
				a := addr + uint64(int64(int8(op.arg)))
				gb, gs, gv, gok := tb.Stab(a)
				wb, ws, wv, wok := or.Stab(a)
				if gok != wok || (gok && (gb != wb || gs != ws || *gv != wv)) {
					t.Fatalf("op %d: Stab(%#x) = (%#x, %d, ok=%v), oracle (%#x, %d, ok=%v)", k/4, a, gb, gs, gok, wb, ws, wok)
				}
			case op.code%4 == 3:
				a := addr + uint64(int64(int8(op.arg)))
				g := tb.Get(a)
				ov, ook := or.Get(a)
				if (g != nil) != ook || (g != nil && *g != ov) {
					t.Fatalf("op %d: Get(%#x) disagrees with the oracle (ok=%v)", k/4, a, ook)
				}
			}
			if tb.Len() != or.Len() {
				t.Fatalf("op %d: Len %d, oracle %d", k/4, tb.Len(), or.Len())
			}
		}
		type rec struct {
			base, size uint64
			v          int
		}
		var got, want []rec
		tb.Walk(func(b, s uint64, v *int) bool { got = append(got, rec{b, s, *v}); return true })
		or.Walk(func(b, s uint64, v int) bool { want = append(want, rec{b, s, v}); return true })
		if len(got) != len(want) {
			t.Fatalf("walk lengths %d, oracle %d", len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("walk[%d] = %+v, oracle %+v", i, got[i], want[i])
			}
		}
	})
}
