package callstack

import (
	"testing"
	"testing/quick"

	"heapmd/internal/event"
)

func TestTrackerEnterLeave(t *testing.T) {
	tr := NewTracker()
	if tr.Depth() != 0 || tr.Top() != event.NoFn {
		t.Fatal("fresh tracker not empty")
	}
	tr.Enter(1)
	tr.Enter(2)
	tr.Enter(3)
	if tr.Depth() != 3 || tr.Top() != 3 {
		t.Fatalf("depth=%d top=%d", tr.Depth(), tr.Top())
	}
	tr.Leave()
	if tr.Top() != 2 {
		t.Errorf("after leave top = %d, want 2", tr.Top())
	}
	snap := tr.Snapshot()
	if len(snap) != 2 || snap[0] != 1 || snap[1] != 2 {
		t.Errorf("snapshot = %v, want [1 2]", snap)
	}
}

func TestTrackerLeaveEmpty(t *testing.T) {
	tr := NewTracker()
	tr.Leave() // must not panic
	if tr.Depth() != 0 {
		t.Error("leave on empty stack changed depth")
	}
}

func TestTrackerObserve(t *testing.T) {
	tr := NewTracker()
	if !tr.Observe(event.Event{Type: event.Enter, Fn: 5}) {
		t.Error("Observe(Enter) should report true")
	}
	if tr.Observe(event.Event{Type: event.Store}) {
		t.Error("Observe(Store) should report false")
	}
	if tr.Depth() != 1 || tr.Top() != 5 {
		t.Error("Observe did not track Enter")
	}
	if !tr.Observe(event.Event{Type: event.Leave}) {
		t.Error("Observe(Leave) should report true")
	}
	if tr.Depth() != 0 {
		t.Error("Observe did not track Leave")
	}
}

func TestSnapshotIsCopy(t *testing.T) {
	tr := NewTracker()
	tr.Enter(1)
	snap := tr.Snapshot()
	tr.Enter(2)
	if len(snap) != 1 {
		t.Error("snapshot aliases live stack")
	}
}

func TestRingBasics(t *testing.T) {
	r := NewRing(3)
	if r.Cap() != 3 || r.Len() != 0 {
		t.Fatalf("fresh ring cap=%d len=%d", r.Cap(), r.Len())
	}
	r.Add(Capture{Tick: 1})
	r.Add(Capture{Tick: 2})
	if r.Len() != 2 {
		t.Fatalf("Len = %d, want 2", r.Len())
	}
	got := r.Snapshot()
	if got[0].Tick != 1 || got[1].Tick != 2 {
		t.Errorf("snapshot order = %v", got)
	}
}

func TestRingEviction(t *testing.T) {
	r := NewRing(3)
	for tick := uint64(1); tick <= 5; tick++ {
		r.Add(Capture{Tick: tick})
	}
	got := r.Snapshot()
	if len(got) != 3 {
		t.Fatalf("Len after overflow = %d, want 3", len(got))
	}
	// Oldest two (1, 2) evicted; 3, 4, 5 retained oldest-first.
	for i, want := range []uint64{3, 4, 5} {
		if got[i].Tick != want {
			t.Errorf("snapshot[%d].Tick = %d, want %d", i, got[i].Tick, want)
		}
	}
}

func TestRingClear(t *testing.T) {
	r := NewRing(2)
	r.Add(Capture{Tick: 1})
	r.Clear()
	if r.Len() != 0 || len(r.Snapshot()) != 0 {
		t.Error("Clear did not empty the ring")
	}
	r.Add(Capture{Tick: 9})
	if got := r.Snapshot(); len(got) != 1 || got[0].Tick != 9 {
		t.Error("ring unusable after Clear")
	}
}

func TestRingNonPositiveCapacity(t *testing.T) {
	r := NewRing(0)
	if r.Cap() != 1 {
		t.Errorf("Cap = %d, want 1", r.Cap())
	}
	r.Add(Capture{Tick: 1})
	r.Add(Capture{Tick: 2})
	if got := r.Snapshot(); len(got) != 1 || got[0].Tick != 2 {
		t.Errorf("capacity-1 ring = %v", got)
	}
}

// TestRingKeepsNewestSuffix: after any sequence of adds, the ring
// holds exactly the last min(n, cap) captures in order.
func TestRingKeepsNewestSuffix(t *testing.T) {
	f := func(ticks []uint64, capSeed uint8) bool {
		capacity := int(capSeed%10) + 1
		r := NewRing(capacity)
		for _, tk := range ticks {
			r.Add(Capture{Tick: tk})
		}
		got := r.Snapshot()
		want := ticks
		if len(want) > capacity {
			want = want[len(want)-capacity:]
		}
		if len(got) != len(want) {
			return false
		}
		for i := range want {
			if got[i].Tick != want[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestSymtab(t *testing.T) {
	s := event.NewSymtab()
	a := s.Intern("alpha")
	b := s.Intern("beta")
	if a == b || a == event.NoFn || b == event.NoFn {
		t.Fatalf("interning collided: %d %d", a, b)
	}
	if s.Intern("alpha") != a {
		t.Error("re-interning returned different ID")
	}
	if s.Name(a) != "alpha" || s.Name(event.NoFn) != "<none>" || s.Name(999) != "?" {
		t.Error("Name resolution wrong")
	}
	if s.Len() != 2 {
		t.Errorf("Len = %d, want 2", s.Len())
	}
	names := s.Names([]event.FnID{a, b})
	if names[0] != "alpha" || names[1] != "beta" {
		t.Errorf("Names = %v", names)
	}
	if s.Intern("") != event.NoFn {
		t.Error("empty name should intern to NoFn")
	}
}
