// Package heap implements the simulated process heap that plays the
// role of the instrumented x86 process in the paper.
//
// The paper's binary instrumenter exposes three things to HeapMD's
// execution logger: allocator activity (malloc/realloc/free with
// addresses and sizes), every instruction that writes to the heap (the
// written address and value), and — for the SWAT comparison — heap
// reads. Package heap reproduces that observable surface: Sim is a
// word-addressed allocator with a virtual address space whose every
// Alloc, Realloc, Free, Store and Load emits an event.Event to the
// registered sinks.
//
// The simulation is deliberately faithful in the respects that matter
// to heap-graph construction:
//
//   - Freed address ranges are recycled (size-class free lists), so a
//     stale pointer can end up referring to a different, newer object —
//     the aliasing that makes real dangling-pointer bugs subtle.
//   - Stores through dangling pointers are permitted (they emit events
//     and are visible to the logger), because buggy programs do exactly
//     that; only the workload harness decides whether that is a fault.
//   - Interior pointers (addresses strictly inside an object) resolve
//     to the containing object, as the paper's object-granularity
//     heap-graph requires.
package heap

import (
	"errors"
	"fmt"

	"heapmd/internal/event"
	"heapmd/internal/intervals"
)

// WordSize is the size in bytes of one heap word. The simulated
// machine is 64-bit, matching the pointer-sized granularity at which
// the paper's instrumenter observes heap writes.
const WordSize = 8

// Base is the lowest address the allocator hands out. It is far above
// the range of ordinary scalar values (counters, random keys, sizes)
// so that data words stored into the heap are never mistaken for
// pointers by the execution logger — the same role the high canonical
// user-space addresses play for a real 64-bit process.
const Base uint64 = 0x100_0000_0000

// Common error conditions surfaced by the simulator. Workloads under
// fault injection may trigger these deliberately; the harness decides
// whether they abort the run.
var (
	ErrDoubleFree   = errors.New("heap: double free")
	ErrInvalidFree  = errors.New("heap: free of address that is not an object base")
	ErrBadSize      = errors.New("heap: allocation size must be positive")
	ErrMisaligned   = errors.New("heap: misaligned word access")
	ErrOutOfSpace   = errors.New("heap: virtual address space exhausted")
	ErrNotAllocated = errors.New("heap: address does not belong to a live object")
)

// object is a live allocation.
type object struct {
	base  uint64
	size  uint64 // bytes
	words []uint64
	site  event.FnID // allocation site
	seq   uint64     // allocation sequence number (generation)
}

// Stats summarizes allocator activity.
type Stats struct {
	Allocs     uint64 // total successful allocations
	Frees      uint64 // total successful frees
	Reallocs   uint64 // total successful reallocs
	Stores     uint64
	Loads      uint64
	LiveBytes  uint64 // bytes in live objects
	PeakBytes  uint64 // high-water mark of LiveBytes
	LiveCount  int    // number of live objects
	WildStores uint64 // stores to addresses outside any live object
	WildLoads  uint64
}

// Sim is the simulated heap. It is not safe for concurrent use; the
// simulated program is single-threaded, as are the paper's
// instrumented runs.
type Sim struct {
	objects *intervals.Map[*object]
	free    map[uint64][]uint64 // size class (bytes) -> reusable bases
	next    uint64              // bump pointer
	limit   uint64              // end of address space: Base + 1<<40
	seq     uint64              // allocation counter
	sinks   event.Multi
	stats   Stats
	site    event.FnID // current allocation-site attribution
}

// New creates an empty simulated heap.
func New() *Sim {
	return &Sim{
		objects: intervals.New[*object](),
		free:    make(map[uint64][]uint64),
		next:    Base,
		limit:   Base + (1 << 40),
	}
}

// Subscribe registers a sink to receive every heap event. Sinks are
// invoked in registration order. This is the moral equivalent of the
// paper's instrumentation: after Subscribe, nothing can happen to the
// heap without the sink seeing it.
func (s *Sim) Subscribe(sink event.Sink) { s.sinks = append(s.sinks, sink) }

// Unsubscribe removes sink's first registration; later events do not
// reach it.
func (s *Sim) Unsubscribe(sink event.Sink) { s.sinks = s.sinks.Without(sink) }

// SetSite sets the allocation-site attribution used for subsequent
// Alloc events. The workload runtime keeps this synchronized with the
// top of the simulated call stack.
func (s *Sim) SetSite(fn event.FnID) { s.site = fn }

func (s *Sim) emit(e event.Event) {
	if len(s.sinks) > 0 {
		s.sinks.Emit(e)
	}
}

// roundUp rounds n up to a whole number of words.
func roundUp(n uint64) uint64 {
	return (n + WordSize - 1) &^ (WordSize - 1)
}

// Alloc allocates size bytes (rounded up to whole words) and returns
// the object's base address. Freed ranges of the same size class are
// reused before fresh address space is consumed, so addresses recycle
// as they do under a real allocator.
func (s *Sim) Alloc(size uint64) (uint64, error) {
	if size == 0 {
		return 0, ErrBadSize
	}
	size = roundUp(size)
	var base uint64
	if lst := s.free[size]; len(lst) > 0 {
		base = lst[len(lst)-1]
		s.free[size] = lst[:len(lst)-1]
	} else {
		if s.next+size > s.limit || s.next+size < s.next {
			return 0, ErrOutOfSpace
		}
		base = s.next
		s.next += size
	}
	s.seq++
	obj := &object{
		base:  base,
		size:  size,
		words: make([]uint64, size/WordSize),
		site:  s.site,
		seq:   s.seq,
	}
	s.objects.Insert(base, size, obj)
	s.stats.Allocs++
	s.stats.LiveCount++
	s.stats.LiveBytes += size
	if s.stats.LiveBytes > s.stats.PeakBytes {
		s.stats.PeakBytes = s.stats.LiveBytes
	}
	s.emit(event.Event{Type: event.Alloc, Fn: s.site, Addr: base, Size: size})
	return base, nil
}

// Free releases the object based at addr. Freeing an address that is
// not a live object base is an error (double free or wild free); the
// object's memory contents are discarded and its address range becomes
// reusable.
func (s *Sim) Free(addr uint64) error {
	obj, ok := s.objects.Get(addr)
	if !ok {
		if _, _, _, stab := s.objects.Stab(addr); stab {
			return ErrInvalidFree
		}
		return ErrDoubleFree
	}
	s.objects.Remove(addr)
	s.free[obj.size] = append(s.free[obj.size], addr)
	s.stats.Frees++
	s.stats.LiveCount--
	s.stats.LiveBytes -= obj.size
	s.emit(event.Event{Type: event.Free, Fn: s.site, Addr: addr, Size: obj.size})
	return nil
}

// Realloc resizes the object based at addr to newSize bytes, moving it
// to a fresh address if it grows, and returns the (possibly new) base.
// Word contents are preserved up to the smaller of the two sizes.
func (s *Sim) Realloc(addr uint64, newSize uint64) (uint64, error) {
	if newSize == 0 {
		return 0, ErrBadSize
	}
	obj, ok := s.objects.Get(addr)
	if !ok {
		return 0, ErrNotAllocated
	}
	newSize = roundUp(newSize)
	if newSize == obj.size {
		return addr, nil
	}
	// Shrink in place. The trailing bytes are abandoned rather than
	// returned to a free list (mirroring realloc implementations
	// that do not split blocks); the interval map must be re-keyed
	// so stabbing queries stop matching the abandoned tail.
	if newSize < obj.size {
		s.stats.LiveBytes -= obj.size - newSize
		obj.size = newSize
		obj.words = obj.words[:newSize/WordSize]
		s.objects.Remove(addr)
		s.objects.Insert(addr, newSize, obj)
		s.stats.Reallocs++
		s.emit(event.Event{Type: event.Realloc, Fn: s.site, Addr: addr, Value: addr, Size: newSize})
		return addr, nil
	}
	// Grow by moving: allocate fresh, copy, release old range.
	var base uint64
	if lst := s.free[newSize]; len(lst) > 0 {
		base = lst[len(lst)-1]
		s.free[newSize] = lst[:len(lst)-1]
	} else {
		if s.next+newSize > s.limit || s.next+newSize < s.next {
			return 0, ErrOutOfSpace
		}
		base = s.next
		s.next += newSize
	}
	words := make([]uint64, newSize/WordSize)
	copy(words, obj.words)
	s.objects.Remove(addr)
	s.free[obj.size] = append(s.free[obj.size], addr)
	s.stats.LiveBytes += newSize - obj.size
	if s.stats.LiveBytes > s.stats.PeakBytes {
		s.stats.PeakBytes = s.stats.LiveBytes
	}
	s.seq++
	moved := &object{base: base, size: newSize, words: words, site: obj.site, seq: s.seq}
	s.objects.Insert(base, newSize, moved)
	s.stats.Reallocs++
	s.emit(event.Event{Type: event.Realloc, Fn: s.site, Addr: addr, Value: base, Size: newSize})
	return base, nil
}

// Store writes value into the word at addr. Stores to addresses that
// do not belong to any live object ("wild" stores — e.g. through a
// dangling pointer after the range was freed and not yet recycled) are
// tolerated and counted but have no backing storage; the event is still
// emitted because the paper's instrumenter observes every write
// instruction regardless of where it lands.
func (s *Sim) Store(addr, value uint64) error {
	if addr%WordSize != 0 {
		return ErrMisaligned
	}
	obj := s.containing(addr)
	var old uint64
	if obj != nil {
		idx := (addr - obj.base) / WordSize
		old = obj.words[idx]
		obj.words[idx] = value
	} else {
		s.stats.WildStores++
	}
	s.stats.Stores++
	s.emit(event.Event{Type: event.Store, Fn: s.site, Addr: addr, Value: value, Old: old})
	return nil
}

// Load reads the word at addr. Loads from wild addresses return 0.
func (s *Sim) Load(addr uint64) (uint64, error) {
	if addr%WordSize != 0 {
		return 0, ErrMisaligned
	}
	obj := s.containing(addr)
	var v uint64
	if obj != nil {
		v = obj.words[(addr-obj.base)/WordSize]
	} else {
		s.stats.WildLoads++
	}
	s.stats.Loads++
	s.emit(event.Event{Type: event.Load, Fn: s.site, Addr: addr, Value: v})
	return v, nil
}

// containing resolves addr to its containing live object, if any.
func (s *Sim) containing(addr uint64) *object {
	_, _, obj, ok := s.objects.Stab(addr)
	if !ok {
		return nil
	}
	return obj
}

// Live returns the number of live objects.
func (s *Sim) Live() int { return s.objects.Len() }

// Stats returns a copy of the allocator statistics.
func (s *Sim) Stats() Stats { return s.stats }

// String implements fmt.Stringer with a one-line allocator summary.
func (s *Sim) String() string {
	return fmt.Sprintf("heap{live=%d bytes=%d peak=%d allocs=%d frees=%d}",
		s.stats.LiveCount, s.stats.LiveBytes, s.stats.PeakBytes, s.stats.Allocs, s.stats.Frees)
}
