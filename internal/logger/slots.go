package logger

import (
	"heapmd/internal/arena"
	"heapmd/internal/heapgraph"
)

// slotTable records which words of one live object currently hold a
// pointer, mapping the slot's offset within the object to the target
// vertex recorded when the write was observed. It is the per-object
// companion of the heap-graph's adjacency sets and shares their
// size-class philosophy: almost every heap object holds at most a few
// pointers, so the table begins as a fixed inline array and only
// escalates when the object proves bigger than that.
//
// Tiers, in escalation order:
//
//   - inline: up to inlineSlots (offset, target) pairs, no allocation.
//   - words: a word-indexed slice of targets for objects up to
//     maxWordBytes whose slots are all word-aligned — one direct index
//     per lookup, ceil(size/8) entries, VertexID 0 meaning "no
//     pointer here" (no vertex handle is 0). The slices come from the
//     logger's size-class list (arena.SizeClasses: objects are freed
//     and rebuilt run after run in the same shapes, so the next object,
//     or the next run, refills the slices an earlier one grew) and go
//     back to it when the object is freed, leaves the tier, or
//     outlives its run (Logger.reset).
//   - spill: an offset-keyed map, the fully general fallback for huge
//     objects and the unaligned stores only damaged raw traces
//     produce.
//
// Keying by offset rather than absolute address means realloc never
// rewrites keys: a moved object keeps its table and only drops the
// slots the shrink cut off (see resize).
//
// The zero slotTable is an empty table.
type slotTable struct {
	n      int32 // inline entries in use; 0 once promoted
	inline [inlineSlots]slotEntry
	words  *[]heapgraph.VertexID
	spill  map[uint64]heapgraph.VertexID
}

// inlineSlots is the inline capacity of a slotTable: most objects hold
// at most a few pointers, and each inline entry costs 16 bytes in every
// address-table record.
const inlineSlots = 4

// maxWordBytes bounds the words tier: an object larger than this uses
// the spill map beyond its inline slots, so one giant allocation
// cannot force a proportionally giant slot slice.
const maxWordBytes = 1 << 16

type slotEntry struct {
	off    uint64
	target heapgraph.VertexID
}

// get returns the target recorded at offset off, if any.
func (t *slotTable) get(off uint64) (heapgraph.VertexID, bool) {
	if t.spill != nil {
		v, ok := t.spill[off]
		return v, ok
	}
	if t.words != nil {
		if w := *t.words; off%8 == 0 {
			if i := off / 8; i < uint64(len(w)) && w[i] != 0 {
				return w[i], true
			}
		}
		return 0, false
	}
	for i := int32(0); i < t.n; i++ {
		if t.inline[i].off == off {
			return t.inline[i].target, true
		}
	}
	return 0, false
}

// set records target at offset off. size is the object's current size,
// consulted when the inline tier overflows to pick the next tier, which
// takes its words from p. target must be non-zero, as every vertex
// handle is.
func (t *slotTable) set(off uint64, target heapgraph.VertexID, size uint64, p *arena.SizeClasses[heapgraph.VertexID]) {
	if t.spill != nil {
		t.spill[off] = target
		return
	}
	if t.words != nil {
		if w := *t.words; off%8 == 0 && off/8 < uint64(len(w)) {
			w[off/8] = target
			return
		}
		// An unaligned (or out-of-bounds) slot in word mode: only
		// damaged raw traces get here. Fall back to the map.
		t.demote(p)
		t.spill[off] = target
		return
	}
	for i := int32(0); i < t.n; i++ {
		if t.inline[i].off == off {
			t.inline[i].target = target
			return
		}
	}
	if t.n < inlineSlots {
		t.inline[t.n] = slotEntry{off: off, target: target}
		t.n++
		return
	}
	// Inline tier full: promote. Word-aligned slots in a modest object
	// go to the direct-indexed slice; everything else to the map.
	if size <= maxWordBytes && off%8 == 0 && t.inlineAligned() {
		t.words = p.Get(int((size + 7) / 8))
		w := *t.words
		for i := int32(0); i < t.n; i++ {
			w[t.inline[i].off/8] = t.inline[i].target
		}
		t.n = 0
		w[off/8] = target
		return
	}
	m := make(map[uint64]heapgraph.VertexID, 2*inlineSlots)
	for i := int32(0); i < t.n; i++ {
		m[t.inline[i].off] = t.inline[i].target
	}
	t.n = 0
	m[off] = target
	t.spill = m
}

// inlineAligned reports whether every inline slot offset is
// word-aligned (the words tier's representability condition).
func (t *slotTable) inlineAligned() bool {
	for i := int32(0); i < t.n; i++ {
		if t.inline[i].off%8 != 0 {
			return false
		}
	}
	return true
}

// demote converts the words tier to the spill map, handing the words
// back to p.
func (t *slotTable) demote(p *arena.SizeClasses[heapgraph.VertexID]) {
	m := make(map[uint64]heapgraph.VertexID, 2*inlineSlots)
	for i, v := range *t.words {
		if v != 0 {
			m[uint64(i)*8] = v
		}
	}
	p.Put(t.words)
	t.words = nil
	t.spill = m
}

// release hands the words tier, if any, back to p and leaves the
// table without one; the object the table belongs to is gone.
func (t *slotTable) release(p *arena.SizeClasses[heapgraph.VertexID]) {
	if t.words != nil {
		p.Put(t.words)
		t.words = nil
	}
}

// del removes the slot at offset off, if present.
func (t *slotTable) del(off uint64) {
	if t.spill != nil {
		delete(t.spill, off)
		return
	}
	if t.words != nil {
		if w := *t.words; off%8 == 0 && off/8 < uint64(len(w)) {
			w[off/8] = 0
		}
		return
	}
	for i := int32(0); i < t.n; i++ {
		if t.inline[i].off == off {
			t.n--
			t.inline[i] = t.inline[t.n] // swap-remove
			return
		}
	}
}

// resize drops every slot at offset >= newSize, calling drop (if
// non-nil) for each removed entry, and re-bounds the words tier to the
// new size, trading its words through p when they no longer fit.
// Realloc calls this: offset keys make it the whole of slot rebasing.
func (t *slotTable) resize(newSize uint64, drop func(off uint64, target heapgraph.VertexID), p *arena.SizeClasses[heapgraph.VertexID]) {
	switch {
	case t.spill != nil:
		for off, target := range t.spill {
			if off >= newSize {
				if drop != nil {
					drop(off, target)
				}
				delete(t.spill, off)
			}
		}
	case t.words != nil:
		w := *t.words
		for i := range w {
			if off := uint64(i) * 8; off >= newSize && w[i] != 0 {
				if drop != nil {
					drop(off, w[i])
				}
				w[i] = 0
			}
		}
		if newSize > maxWordBytes {
			t.demote(p)
			return
		}
		newWords := (newSize + 7) / 8
		switch {
		case uint64(len(w)) > newWords:
			*t.words = w[:newWords]
		case uint64(cap(w)) >= newWords:
			*t.words = w[:newWords]
			clear(w[len(w):newWords]) // a prior shrink may have left stale entries in the cap region
		default:
			grown := p.Get(int(newWords))
			copy(*grown, w)
			p.Put(t.words)
			t.words = grown
		}
	default:
		for i := int32(0); i < t.n; {
			if t.inline[i].off >= newSize {
				if drop != nil {
					drop(t.inline[i].off, t.inline[i].target)
				}
				t.n--
				t.inline[i] = t.inline[t.n]
				continue
			}
			i++
		}
	}
}
