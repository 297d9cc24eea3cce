package arena

import (
	"runtime"
	"sync"
	"testing"
)

// TestFreeListLIFO: Get takes the most recently put value, and nil
// once the list is empty.
func TestFreeListLIFO(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))
	var f FreeList[int]
	if f.Get() != nil {
		t.Fatal("an empty list returned a value")
	}
	xs := []*int{new(int), new(int), new(int)}
	for _, x := range xs {
		f.Put(x)
	}
	for i := len(xs) - 1; i >= 0; i-- {
		if got := f.Get(); got != xs[i] {
			t.Fatalf("Get returned %p, want the value put %d-th (%p)", got, i+1, xs[i])
		}
	}
	if f.Get() != nil {
		t.Fatal("a drained list returned a value")
	}
}

// TestFreeListCap: the list keeps at most GOMAXPROCS values and leaves
// the ones put beyond that to the collector.
func TestFreeListCap(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(2))
	var f FreeList[int]
	a, b, c := new(int), new(int), new(int)
	f.Put(a)
	f.Put(b)
	f.Put(c)
	if got := [3]*int{f.Get(), f.Get(), f.Get()}; got != [3]*int{b, a, nil} {
		t.Fatalf("Gets returned %v, want b, a and then nothing (c was over the cap)", got)
	}
}

// TestFreeListDropsIdle pins the aging rule at GOMAXPROCS 2: a value
// left in the list while 2×GOMAXPROCS Gets took others is dropped, so a
// process back to one run at a time keeps one idle value, not two. Two
// values used in turn, as by two concurrent runs, both stay.
func TestFreeListDropsIdle(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(2))
	const limit = 4 // 2×GOMAXPROCS
	var f FreeList[int]
	a, b := new(int), new(int)
	f.Put(b)
	f.Put(a)
	for k := 1; k <= limit; k++ {
		if got := f.Get(); got != a {
			t.Fatalf("Get #%d did not take the most recently put value", k)
		}
		f.Put(a)
		want := 2
		if k == limit {
			want = 1
		}
		if n := len(f.free); n != want {
			t.Fatalf("after %d Gets took the other value, %d values wait; want %d", k, n, want)
		}
	}
	if f.Get() != a {
		t.Fatal("the value in use was dropped instead of the idle one")
	}
	if f.Get() != nil {
		t.Fatal("Get returned the dropped value")
	}

	f.Put(a)
	f.Put(b)
	for round := 0; round < 4*limit; round++ {
		x, y := f.Get(), f.Get()
		if x == y || (x != a && x != b) || (y != a && y != b) {
			t.Fatalf("round %d: two values used in turn were not both kept", round)
		}
		f.Put(y)
		f.Put(x)
	}
	if n := len(f.free); n != 2 {
		t.Fatalf("%d values wait after alternating use; want 2", n)
	}
}

// TestFreeListSurvivesGC: a value waits for the next Get however many
// garbage collections pass in between, unlike in a sync.Pool.
func TestFreeListSurvivesGC(t *testing.T) {
	var f FreeList[[1 << 10]byte]
	x := new([1 << 10]byte)
	f.Put(x)
	for range 3 {
		runtime.GC()
	}
	if f.Get() != x {
		t.Fatal("garbage collection dropped the value")
	}
}

// TestFreeListConcurrent runs Gets and Puts from several goroutines at
// once (run it under -race): no value is handed to two holders at a
// time, and the list never keeps more than GOMAXPROCS values.
func TestFreeListConcurrent(t *testing.T) {
	var f FreeList[int]
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 2000; i++ {
				x := f.Get()
				if x == nil {
					x = new(int)
				}
				if *x != 0 {
					t.Error("a value was handed to two holders at once")
					return
				}
				*x = 1
				runtime.Gosched()
				*x = 0
				f.Put(x)
			}
		}()
	}
	wg.Wait()
	if n := len(f.free); n > runtime.GOMAXPROCS(0) {
		t.Fatalf("%d values wait; the cap is GOMAXPROCS = %d", n, runtime.GOMAXPROCS(0))
	}
}

// TestSizeClassesRounding: Get(n) returns n entries with capacity n
// rounded up to a power of two, and a put slice serves the next Get of
// any length in its class, but not one of another class.
func TestSizeClassesRounding(t *testing.T) {
	var s SizeClasses[int32]
	for _, c := range []struct{ n, cap int }{{1, 1}, {2, 2}, {3, 4}, {5, 8}, {8, 8}, {9, 16}, {16, 16}, {17, 32}, {1000, 1024}} {
		b := s.Get(c.n)
		if len(*b) != c.n || cap(*b) != c.cap {
			t.Errorf("Get(%d): len %d cap %d, want len %d cap %d", c.n, len(*b), cap(*b), c.n, c.cap)
		}
		s.Put(b)
	}
	b := s.Get(9)
	s.Put(b)
	if s.Get(8) == b || s.Get(17) == b {
		t.Fatal("a slice of capacity 16 served a Get of another class")
	}
	if got := s.Get(12); got != b || len(*got) != 12 {
		t.Fatal("a slice of capacity 16 did not serve a Get(12)")
	}
}

// TestSizeClassesZeroedReuse: a reused slice comes back zeroed across
// its whole new length, also where an earlier holder shrank it and left
// values past its length.
func TestSizeClassesZeroedReuse(t *testing.T) {
	var s SizeClasses[int32]
	b := s.Get(16)
	for i := range *b {
		(*b)[i] = int32(i + 1)
	}
	*b = (*b)[:3]
	s.Put(b)
	got := s.Get(13)
	if got != b {
		t.Fatal("Get did not reuse the slice put back")
	}
	for i, v := range *got {
		if v != 0 {
			t.Fatalf("reused slice holds %d at %d, want zero", v, i)
		}
	}
}

// TestSizeClassesOut: Out counts the slices handed out and not put
// back, across classes.
func TestSizeClassesOut(t *testing.T) {
	var s SizeClasses[int32]
	a, b, c := s.Get(4), s.Get(40), s.Get(400)
	if s.Out() != 3 {
		t.Fatalf("Out = %d after three Gets, want 3", s.Out())
	}
	s.Put(b)
	s.Put(a)
	if s.Out() != 1 {
		t.Fatalf("Out = %d after two Puts, want 1", s.Out())
	}
	s.Get(40)
	s.Put(c)
	if s.Out() != 1 {
		t.Fatalf("Out = %d after a reuse and a Put, want 1", s.Out())
	}
}
