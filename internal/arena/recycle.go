package arena

import (
	"math/bits"
	"runtime"
	"sync"
)

// FreeList keeps values handed back by one run for the next run to
// reuse: the heap images of released loggers and the decode state of
// finished replays. It is safe for concurrent use; the zero value is
// an empty list.
//
// Get takes the most recently put value. The list keeps at most
// GOMAXPROCS values, as many as a process running one run per CPU uses
// at once, and drops a value left in it while 2×GOMAXPROCS Gets took
// others, so a process that has gone back to one run at a time does not
// keep the idle values of its concurrent phase alive.
//
// It is a plain list, not a sync.Pool: a sync.Pool empties over two
// garbage collections and hides the last value a P put from the other
// Ps, so whether a run reused its storage or rebuilt it from nothing
// would hang on GC and scheduler timing.
type FreeList[T any] struct {
	mu   sync.Mutex
	free []held[T] // oldest first
	gets uint64    // Get calls so far
}

// held is a value in a FreeList and the Get count when it was put.
type held[T any] struct {
	x  *T
	at uint64
}

// Get returns the most recently put value, or nil when the list is
// empty.
func (f *FreeList[T]) Get() *T {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.gets++
	var x *T
	if n := len(f.free); n > 0 {
		x = f.free[n-1].x
		f.free[n-1] = held[T]{}
		f.free = f.free[:n-1]
	}
	aged := 0
	for aged < len(f.free) && f.gets-f.free[aged].at >= 2*uint64(runtime.GOMAXPROCS(0)) {
		aged++
	}
	if aged > 0 {
		n := copy(f.free, f.free[aged:])
		clear(f.free[n:])
		f.free = f.free[:n]
	}
	return x
}

// Put keeps x for a later Get unless the list already holds GOMAXPROCS
// values, in which case x is left to the garbage collector.
func (f *FreeList[T]) Put(x *T) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if len(f.free) < runtime.GOMAXPROCS(0) {
		f.free = append(f.free, held[T]{x, f.gets})
	}
}

// SizeClasses keeps slices of E not in use, one LIFO list per
// power-of-two capacity, for an owner that frees and rebuilds them run
// after run in the same shapes: the heap graph's spill tables and the
// logger's slot word tables. Slices travel boxed, so an owner can hold
// one behind a pointer and a Put allocates nothing. It is not safe for
// concurrent use; the zero value is empty.
type SizeClasses[E any] struct {
	free [][]*[]E // free[c]: slices of capacity 1<<c
	out  int
}

// Get returns a slice of n zero entries (n ≥ 1) whose capacity is n
// rounded up to a power of two: one put back earlier in that size class
// when there is one, else a new one.
func (s *SizeClasses[E]) Get(n int) *[]E {
	s.out++
	c := bits.Len(uint(n - 1))
	if c < len(s.free) {
		if k := len(s.free[c]); k > 0 {
			b := s.free[c][k-1]
			s.free[c][k-1] = nil
			s.free[c] = s.free[c][:k-1]
			*b = (*b)[:n]
			clear(*b)
			return b
		}
	}
	b := make([]E, n, 1<<c)
	return &b
}

// Put takes b, a slice from Get, back for a later Get of its size
// class. b's contents are cleared when it is taken again.
func (s *SizeClasses[E]) Put(b *[]E) {
	s.out--
	c := bits.Len(uint(cap(*b))) - 1
	for len(s.free) <= c {
		s.free = append(s.free, nil)
	}
	s.free[c] = append(s.free[c], b)
}

// Out returns how many slices Get handed out that Put has not taken
// back.
func (s *SizeClasses[E]) Out() int { return s.out }
