// One-shot DEFLATE decoder with fully reusable state.
//
// The stdlib flate reader supports Resetter, but its Huffman table
// builder allocates link tables per *dynamic block*
// (huffmanDecoder.init's links [][]uint32) — on a flate-compressed v3
// trace that is ~84% of replay's allocations (1919 allocs per replay,
// O(frames), not O(decoders)). The trace codec has a much easier job
// than io.Reader-shaped flate: the whole compressed body is in memory
// (frames are CRC-checked before decoding) and the output bound is
// known (the frame's declared record count), so decoding can be a
// single pass over byte slices with zero steady-state allocations —
// table arenas, scratch arrays, and the output buffer all live on the
// inflater and are recycled across frames.
//
// Acceptance rules mirror compress/flate exactly where it matters for
// the differential oracle in inflate_test.go: the same complete-code /
// degenerate-code / empty-code rules for Huffman tables, the same
// header bounds (HLIT ≤ 286, HDIST ≤ 30, distance symbols ≥ 30
// rejected), matches never reaching before the output start, stored
// blocks validated via LEN/NLEN, and trailing input bytes after the
// final block ignored. A stream is either decoded to the identical
// bytes the stdlib produces or rejected; only the error values differ
// (everything maps to "bad compressed event frame" one level up).
package trace

import (
	"encoding/binary"
	"errors"
	"io"
	"math/bits"
	"sync"
)

// errInflate covers every malformed-stream condition: bad block type,
// bad Huffman code, invalid symbol, match before output start, LEN/
// NLEN mismatch, or truncation. The frame decoder folds it into its
// "bad compressed event frame" corruption report, so finer-grained
// values would be invisible anyway.
var errInflate = errors.New("trace: malformed deflate stream")

// bitReader reads LSB-first bits from an in-memory buffer through a
// 64-bit accumulator. Invariants: bits holds cnt valid bits (low
// first); bit positions ≥ cnt are zero or hold a consistent preview of
// in[pos:] (refilling ORs the same byte content at the same logical
// position, so stale high bits never conflict); in[pos] is the first
// byte not yet counted into the accumulator.
type bitReader struct {
	in   []byte
	pos  int
	bits uint64
	cnt  int
}

// fill tops the accumulator up to ≥ 56 valid bits (fewer only when the
// input is nearly exhausted). The fast path loads 8 bytes at once and
// advances pos by the bytes that fit entirely.
func (b *bitReader) fill() {
	if b.pos+8 <= len(b.in) {
		b.bits |= binary.LittleEndian.Uint64(b.in[b.pos:]) << uint(b.cnt&63)
		n := (63 - b.cnt) >> 3
		b.pos += n
		b.cnt += n << 3
		return
	}
	for b.cnt <= 55 && b.pos < len(b.in) {
		b.bits |= uint64(b.in[b.pos]) << uint(b.cnt)
		b.pos++
		b.cnt += 8
	}
}

// read consumes n ≤ 32 bits, failing with the stdlib's truncation
// error when the input cannot supply them.
func (b *bitReader) read(n int) (uint32, error) {
	if b.cnt < n {
		b.fill()
		if b.cnt < n {
			return 0, io.ErrUnexpectedEOF
		}
	}
	v := uint32(b.bits) & (1<<uint(n) - 1)
	b.bits >>= uint(n)
	b.cnt -= n
	return v, nil
}

// Huffman decode tables: a primary table indexed by the next
// huffTableBits input bits, with an arena of subtables for codes
// longer than that. Entries pack sym<<8 | codeLength; a primary entry
// with huffSubFlag set instead packs subFlag | arenaOffset<<8 |
// subtableBits, and the subtable entry carries the code's total
// length. Entry 0 (length 0) marks an invalid bit pattern — how the
// degenerate and empty codes stdlib accepts at build time fail at
// first use, exactly like decompressor.huffSym. The primary table is
// always full size, codes shorter than huffTableBits replicated across
// it, so a lookup masks with a constant and needs no bounds check.
const (
	huffTableBits = 10
	huffTableMask = 1<<huffTableBits - 1
	huffSubFlag   = 1 << 31
	huffSubOffs   = 1<<23 - 1 // mask for the arena offset after >>8
)

type huffTable struct {
	primary [1 << huffTableBits]uint32
	sub     []uint32
	subw    [1 << huffTableBits]uint8 // build scratch: per-slot subtable width
}

// build constructs the decode table for the canonical code described
// by lengths (bits per symbol, 0 = absent), applying stdlib flate's
// acceptance rules: any complete code, the degenerate single-symbol
// length-1 code, and the empty code (which then fails on first read).
func (t *huffTable) build(lengths []int) bool {
	var count [16]int
	min, max := 0, 0
	for _, n := range lengths {
		if n == 0 {
			continue
		}
		if min == 0 || n < min {
			min = n
		}
		if n > max {
			max = n
		}
		count[n]++
	}
	if max == 0 {
		clear(t.primary[:])
		return true
	}

	code := 0
	var nextcode [16]int
	for i := min; i <= max; i++ {
		code <<= 1
		nextcode[i] = code
		code += count[i]
	}
	if code != 1<<uint(max) {
		if !(code == 1 && max == 1) {
			return false
		}
		// The degenerate code leaves every other entry invalid; a
		// complete code overwrites every entry below.
		clear(t.primary[:])
	}

	const tb = huffTableBits
	if max > tb {
		// First pass: each primary slot's subtable is as wide as the
		// longest code sharing that tb-bit prefix requires.
		clear(t.subw[:])
		nc := nextcode
		for _, n := range lengths {
			if n == 0 {
				continue
			}
			c := nc[n]
			nc[n]++
			if n <= tb {
				continue
			}
			rev := int(bits.Reverse16(uint16(c))) >> uint(16-n)
			if s := rev & huffTableMask; int(t.subw[s]) < n-tb {
				t.subw[s] = uint8(n - tb)
			}
		}
		off := 0
		for s, w := range t.subw {
			if w == 0 {
				continue
			}
			t.primary[s] = huffSubFlag | uint32(off)<<8 | uint32(w)
			off += 1 << uint(w)
		}
		if cap(t.sub) < off {
			t.sub = make([]uint32, off)
		}
		t.sub = t.sub[:off]
	}

	for sym, n := range lengths {
		if n == 0 {
			continue
		}
		c := nextcode[n]
		nextcode[n]++
		rev := int(bits.Reverse16(uint16(c))) >> uint(16-n)
		entry := uint32(sym)<<8 | uint32(n)
		if n <= tb {
			for off := rev; off < len(t.primary); off += 1 << uint(n) {
				t.primary[off] = entry
			}
		} else {
			p := t.primary[rev&huffTableMask]
			base := int(p>>8) & huffSubOffs
			w := int(p & 0xff)
			for off := rev >> tb; off < 1<<uint(w); off += 1 << uint(n-tb) {
				t.sub[base+off] = entry
			}
		}
	}
	return true
}

// readSym decodes one symbol (non-hot path: the code-length code of a
// dynamic header). The hot block loop inlines the same logic.
func (b *bitReader) readSym(t *huffTable) (int, error) {
	if b.cnt < 15 {
		b.fill()
	}
	e := t.primary[uint32(b.bits)&huffTableMask]
	if e&huffSubFlag != 0 {
		e = t.sub[(int(e>>8)&huffSubOffs)+int(uint32(b.bits)>>huffTableBits)&(1<<(e&0xff)-1)]
	}
	n := int(e & 0xff)
	if n == 0 || n > b.cnt {
		return 0, errInflate
	}
	b.bits >>= uint(n)
	b.cnt -= n
	return int(e >> 8), nil
}

// Length and distance symbol expansions, RFC 1951 §3.2.5. Symbol 257+i
// maps to base lenBase[i] plus lenExtra[i] extra bits; distance symbol
// i to distBase[i] plus distExtra[i].
var (
	lenBase = [29]uint16{
		3, 4, 5, 6, 7, 8, 9, 10, 11, 13, 15, 17, 19, 23, 27, 31,
		35, 43, 51, 59, 67, 83, 99, 115, 131, 163, 195, 227, 258,
	}
	lenExtra = [29]uint8{
		0, 0, 0, 0, 0, 0, 0, 0, 1, 1, 1, 1, 2, 2, 2, 2,
		3, 3, 3, 3, 4, 4, 4, 4, 5, 5, 5, 5, 0,
	}
	distBase = [30]uint16{
		1, 2, 3, 4, 5, 7, 9, 13, 17, 25, 33, 49, 65, 97, 129, 193,
		257, 385, 513, 769, 1025, 1537, 2049, 3073, 4097, 6145,
		8193, 12289, 16385, 24577,
	}
	distExtra = [30]uint8{
		0, 0, 0, 0, 1, 1, 2, 2, 3, 3, 4, 4, 5, 5, 6, 6,
		7, 7, 8, 8, 9, 9, 10, 10, 11, 11, 12, 12, 13, 13,
	}
)

// Fixed Huffman tables (RFC 1951 §3.2.6), built once and shared
// read-only by every inflater — including codec instances on parallel
// decode workers (sync.Once publishes the fully-built tables).
var (
	fixedOnce        sync.Once
	fixedLitTable    huffTable
	fixedDistTable   huffTable
	inflateCodeOrder = [19]int{16, 17, 18, 0, 8, 7, 9, 6, 10, 5, 11, 4, 12, 3, 13, 2, 14, 1, 15}
)

func fixedTables() (*huffTable, *huffTable) {
	fixedOnce.Do(func() {
		var lens [288]int
		for i := 0; i < 144; i++ {
			lens[i] = 8
		}
		for i := 144; i < 256; i++ {
			lens[i] = 9
		}
		for i := 256; i < 280; i++ {
			lens[i] = 7
		}
		for i := 280; i < 288; i++ {
			lens[i] = 8
		}
		fixedLitTable.build(lens[:])
		// All 32 five-bit distance codes get table entries; symbols 30
		// and 31 are rejected at use, like stdlib's dist switch.
		var dlens [32]int
		for i := range dlens {
			dlens[i] = 5
		}
		fixedDistTable.build(dlens[:])
	})
	return &fixedLitTable, &fixedDistTable
}

const (
	inflateMaxLit  = 286 // maxNumLit: HLIT bound and lit/len symbol bound
	inflateMaxDist = 30  // maxNumDist: HDIST bound and distance symbol bound
)

var errOversizedFrame = errors.New("trace: compressed frame inflates past its declared size")

// inflater decodes one whole DEFLATE stream per call, reusing its
// tables and scratch across calls. Not goroutine-safe; each frame
// decoder owns one.
type inflater struct {
	br   bitReader
	lit  huffTable // dynamic literal/length table
	dist huffTable // dynamic distance table
	cl   huffTable // code-length code table
	lens [inflateMaxLit + inflateMaxDist]int
}

// decompress decodes the stream in src into out, returning the number
// of bytes produced. A stream that would produce more than len(out)
// bytes fails with errOversizedFrame (len(out) is the caller's
// corruption bound, mirroring the stdlib path's read-past-max probe);
// exactly len(out) is fine. Input bytes after the final block are
// ignored, as the stdlib reader ignores them.
func (d *inflater) decompress(out, src []byte) (int, error) {
	d.br = bitReader{in: src}
	w := 0
	for {
		v, err := d.br.read(3)
		if err != nil {
			return w, err
		}
		final := v&1 != 0
		switch v >> 1 {
		case 0:
			w, err = d.storedBlock(out, w)
		case 1:
			lit, dist := fixedTables()
			w, err = d.huffmanBlock(out, w, lit, dist)
		case 2:
			if err = d.readHuffman(); err == nil {
				w, err = d.huffmanBlock(out, w, &d.lit, &d.dist)
			}
		default:
			err = errInflate
		}
		if err != nil {
			return w, err
		}
		if final {
			return w, nil
		}
	}
}

// storedBlock copies one uncompressed block. The accumulator's whole
// buffered bytes are returned to the input and the partial byte is
// discarded — the same alignment-bit discard as stdlib dataBlock.
func (d *inflater) storedBlock(out []byte, w int) (int, error) {
	b := &d.br
	b.pos -= b.cnt >> 3
	b.bits, b.cnt = 0, 0
	if b.pos+4 > len(b.in) {
		return w, io.ErrUnexpectedEOF
	}
	n := int(binary.LittleEndian.Uint16(b.in[b.pos:]))
	nn := binary.LittleEndian.Uint16(b.in[b.pos+2:])
	b.pos += 4
	if nn != ^uint16(n) {
		return w, errInflate
	}
	if b.pos+n > len(b.in) {
		return w, io.ErrUnexpectedEOF
	}
	if w+n > len(out) {
		return w, errOversizedFrame
	}
	copy(out[w:], b.in[b.pos:b.pos+n])
	b.pos += n
	return w + n, nil
}

// readHuffman parses a dynamic-block header (RFC 1951 §3.2.7) into
// d.lit and d.dist, enforcing the stdlib's bounds: HLIT ≤ 286,
// HDIST ≤ 30, repeat codes staying inside the length array, repeat-
// previous with no previous rejected.
func (d *inflater) readHuffman() error {
	b := &d.br
	v, err := b.read(14)
	if err != nil {
		return err
	}
	nlit := int(v&0x1f) + 257
	ndist := int(v>>5&0x1f) + 1
	nclen := int(v>>10&0xf) + 4
	if nlit > inflateMaxLit || ndist > inflateMaxDist {
		return errInflate
	}
	var clLens [19]int
	for i := 0; i < nclen; i++ {
		c, err := b.read(3)
		if err != nil {
			return err
		}
		clLens[inflateCodeOrder[i]] = int(c)
	}
	if !d.cl.build(clLens[:]) {
		return errInflate
	}
	lens := d.lens[:nlit+ndist]
	for i := 0; i < len(lens); {
		sym, err := b.readSym(&d.cl)
		if err != nil {
			return err
		}
		if sym < 16 {
			lens[i] = sym
			i++
			continue
		}
		var rep, nb, val int
		switch sym {
		case 16:
			if i == 0 {
				return errInflate
			}
			val, rep, nb = lens[i-1], 3, 2
		case 17:
			rep, nb = 3, 3
		default: // 18
			rep, nb = 11, 7
		}
		x, err := b.read(nb)
		if err != nil {
			return err
		}
		rep += int(x)
		if i+rep > len(lens) {
			return errInflate
		}
		for j := 0; j < rep; j++ {
			lens[i] = val
			i++
		}
	}
	if !d.lit.build(lens[:nlit]) || !d.dist.build(lens[nlit:]) {
		return errInflate
	}
	return nil
}

// Margins of the fast loop (huffmanFast): it runs while a whole 64-bit
// refill load fits in the input and the longest match, rounded up to
// whole 8-byte word stores, fits in the output.
const (
	fastInMargin  = 8
	fastOutMargin = 258 + 8
)

// huffmanBlock decodes one compressed block into out starting at w:
// huffmanFast first, then the careful loop below for the block tail
// the fast loop's margins leave. In the careful loop one fill per
// iteration covers the worst-case symbol: 15 bits of literal/length
// code + 5 extra + 15 bits of distance code + 13 extra = 48 ≤ 56; the
// per-step cnt checks only fire near true end of input (where they
// mean truncation) — never in steady state.
func (d *inflater) huffmanBlock(out []byte, w int, lit, dist *huffTable) (int, error) {
	w, done, err := d.huffmanFast(out, w, lit, dist)
	if done || err != nil {
		return w, err
	}
	b := &d.br
	max := len(out)
	for {
		if b.cnt < 48 {
			b.fill()
		}
		e := lit.primary[uint32(b.bits)&huffTableMask]
		if e&huffSubFlag != 0 {
			e = lit.sub[(int(e>>8)&huffSubOffs)+int(uint32(b.bits)>>huffTableBits)&(1<<(e&0xff)-1)]
		}
		n := int(e & 0xff)
		if n == 0 || n > b.cnt {
			return w, errInflate
		}
		b.bits >>= uint(n)
		b.cnt -= n
		sym := int(e >> 8)
		if sym < 256 {
			if w >= max {
				return w, errOversizedFrame
			}
			out[w] = byte(sym)
			w++
			continue
		}
		if sym == 256 {
			return w, nil // end of block
		}
		li := sym - 257
		if li >= len(lenBase) {
			return w, errInflate
		}
		length := int(lenBase[li])
		if eb := int(lenExtra[li]); eb > 0 {
			if b.cnt < eb {
				return w, errInflate
			}
			length += int(uint32(b.bits) & (1<<uint(eb) - 1))
			b.bits >>= uint(eb)
			b.cnt -= eb
		}

		e = dist.primary[uint32(b.bits)&huffTableMask]
		if e&huffSubFlag != 0 {
			e = dist.sub[(int(e>>8)&huffSubOffs)+int(uint32(b.bits)>>huffTableBits)&(1<<(e&0xff)-1)]
		}
		n = int(e & 0xff)
		if n == 0 || n > b.cnt {
			return w, errInflate
		}
		b.bits >>= uint(n)
		b.cnt -= n
		ds := int(e >> 8)
		if ds >= inflateMaxDist {
			return w, errInflate
		}
		dst := int(distBase[ds])
		if eb := int(distExtra[ds]); eb > 0 {
			if b.cnt < eb {
				return w, errInflate
			}
			dst += int(uint32(b.bits) & (1<<uint(eb) - 1))
			b.bits >>= uint(eb)
			b.cnt -= eb
		}

		if dst > w {
			return w, errInflate // match reaches before output start
		}
		if w+length > max {
			return w, errOversizedFrame
		}
		if dst == 1 {
			c := out[w-1]
			for i := 0; i < length; i++ {
				out[w+i] = c
			}
		} else if dst >= length {
			copy(out[w:w+length], out[w-dst:])
		} else {
			for i := 0; i < length; i++ {
				out[w+i] = out[w-dst+i]
			}
		}
		w += length
	}
}

// huffmanFast is the body of huffmanBlock while the input holds at
// least fastInMargin unread bytes and the output fastOutMargin free
// ones (the structure of libdeflate's decompressor fast loop; the
// refill is the branch-free 64-bit refill of Fabian Giesen's "Reading
// bits in far too many ways"). The bit state lives in locals and is written
// back to d.br on every exit. Each iteration refills with one
// unaligned 64-bit load, leaving ≥ 56 valid bits: more than the
// worst-case length/distance pair (48 bits), so no step can run out of
// bits and the careful loop's truncation checks are not needed here.
// The output margin makes the oversize check unnecessary too and lets
// match copies store whole words: nothing lands past len(out), and the
// bytes a word store writes past the match end are overwritten before
// they are read, or lie beyond the returned out[:w]. Every other check
// of the careful loop stays, with the same errors. done reports that
// the block's end-of-block symbol was decoded; otherwise, without an
// error, the careful loop finishes the block.
func (d *inflater) huffmanFast(out []byte, w int, lit, dist *huffTable) (_ int, done bool, err error) {
	in := d.br.in
	pos, bb, cnt := d.br.pos, d.br.bits, uint(d.br.cnt)
	for pos+fastInMargin <= len(in) && w+fastOutMargin <= len(out) {
		bb |= binary.LittleEndian.Uint64(in[pos:]) << (cnt & 63)
		k := (63 - cnt) >> 3
		pos += int(k)
		cnt += k << 3

		e := lit.primary[uint32(bb)&huffTableMask]
		if e&huffSubFlag != 0 {
			e = lit.sub[(int(e>>8)&huffSubOffs)+int(uint32(bb)>>huffTableBits)&(1<<(e&0xff)-1)]
		}
		n := uint(e & 0xff)
		if n == 0 {
			err = errInflate
			break
		}
		if e < 256<<8 {
			bb >>= n & 63
			cnt -= n
			out[w] = byte(e >> 8)
			w++
			// A second literal fits in the ≥ 41 bits left; anything
			// else is decoded again after the next refill.
			e = lit.primary[uint32(bb)&huffTableMask]
			if e&huffSubFlag != 0 {
				e = lit.sub[(int(e>>8)&huffSubOffs)+int(uint32(bb)>>huffTableBits)&(1<<(e&0xff)-1)]
			}
			if n = uint(e & 0xff); n != 0 && e < 256<<8 {
				bb >>= n & 63
				cnt -= n
				out[w] = byte(e >> 8)
				w++
			}
			continue
		}
		bb >>= n & 63
		cnt -= n
		sym := int(e >> 8)
		if sym == 256 {
			done = true
			break
		}
		li := sym - 257
		if li >= len(lenBase) {
			err = errInflate
			break
		}
		eb := uint(lenExtra[li])
		length := int(lenBase[li]) + int(bb&(1<<eb-1))
		bb >>= eb & 63
		cnt -= eb

		e = dist.primary[uint32(bb)&huffTableMask]
		if e&huffSubFlag != 0 {
			e = dist.sub[(int(e>>8)&huffSubOffs)+int(uint32(bb)>>huffTableBits)&(1<<(e&0xff)-1)]
		}
		n = uint(e & 0xff)
		if n == 0 {
			err = errInflate
			break
		}
		bb >>= n & 63
		cnt -= n
		ds := int(e >> 8)
		if ds >= inflateMaxDist {
			err = errInflate
			break
		}
		eb = uint(distExtra[ds])
		dst := int(distBase[ds]) + int(bb&(1<<eb-1))
		bb >>= eb & 63
		cnt -= eb
		if dst > w {
			err = errInflate // match reaches before output start
			break
		}

		switch {
		case dst >= 8:
			src := w - dst
			binary.LittleEndian.PutUint64(out[w:], binary.LittleEndian.Uint64(out[src:]))
			binary.LittleEndian.PutUint64(out[w+8:], binary.LittleEndian.Uint64(out[src+8:]))
			for i := 16; i < length; i += 8 {
				binary.LittleEndian.PutUint64(out[w+i:], binary.LittleEndian.Uint64(out[src+i:]))
			}
		case dst == 1:
			v := uint64(out[w-1]) * 0x0101010101010101
			binary.LittleEndian.PutUint64(out[w:], v)
			binary.LittleEndian.PutUint64(out[w+8:], v)
			for i := 16; i < length; i += 8 {
				binary.LittleEndian.PutUint64(out[w+i:], v)
			}
		default:
			for i := 0; i < length; i++ {
				out[w+i] = out[w-dst+i]
			}
		}
		w += length
	}
	d.br.pos, d.br.bits, d.br.cnt = pos, bb, int(cnt)
	return w, done, err
}
