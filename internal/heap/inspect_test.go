package heap

import "heapmd/internal/event"

// Out-of-band inspection for the package's tests: none of these emit
// events or touch the access statistics.

// Contains reports whether addr lies inside a live object and, if so,
// returns the object's base address and size.
func (s *Sim) Contains(addr uint64) (base, size uint64, ok bool) {
	obj := s.containing(addr)
	if obj == nil {
		return 0, 0, false
	}
	return obj.base, obj.size, true
}

// SizeOf returns the size of the live object based exactly at addr.
func (s *Sim) SizeOf(addr uint64) (uint64, bool) {
	obj, ok := s.objects.Get(addr)
	if !ok {
		return 0, false
	}
	return obj.size, true
}

// SiteOf returns the allocation site recorded for the live object
// based at addr.
func (s *Sim) SiteOf(addr uint64) (event.FnID, bool) {
	obj, ok := s.objects.Get(addr)
	if !ok {
		return event.NoFn, false
	}
	return obj.site, true
}

// WalkLive visits each live object in ascending address order, calling
// fn with the base address and size; iteration stops if fn returns
// false.
func (s *Sim) WalkLive(fn func(base, size uint64) bool) {
	s.objects.Walk(func(base, size uint64, _ *object) bool {
		return fn(base, size)
	})
}
