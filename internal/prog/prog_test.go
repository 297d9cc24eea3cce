package prog

import (
	"errors"
	"testing"

	"heapmd/internal/event"
	"heapmd/internal/faults"
	"heapmd/internal/heap"
	"heapmd/internal/logger"
)

func TestEnterLeaveEvents(t *testing.T) {
	p := NewProcess(Options{Seed: 1})
	var got []event.Event
	p.Subscribe(event.SinkFunc(func(e event.Event) { got = append(got, e) }))

	func() {
		defer p.Enter("outer")()
		func() {
			defer p.Enter("inner")()
			if len(p.stack) != 2 {
				t.Errorf("stack depth = %d, want 2", len(p.stack))
			}
		}()
	}()
	if len(p.stack) != 0 {
		t.Fatalf("stack depth after returns = %d", len(p.stack))
	}
	if len(got) != 4 {
		t.Fatalf("events = %d, want 4", len(got))
	}
	wantTypes := []event.Type{event.Enter, event.Enter, event.Leave, event.Leave}
	for i, w := range wantTypes {
		if got[i].Type != w {
			t.Errorf("event %d type = %v, want %v", i, got[i].Type, w)
		}
	}
	if p.Sym().Name(got[0].Fn) != "outer" || p.Sym().Name(got[1].Fn) != "inner" {
		t.Error("function attribution wrong")
	}
}

func TestAllocSiteFollowsStack(t *testing.T) {
	p := NewProcess(Options{Seed: 1})
	var allocs []event.Event
	p.Subscribe(event.SinkFunc(func(e event.Event) {
		if e.Type == event.Alloc {
			allocs = append(allocs, e)
		}
	}))
	var inner uint64
	func() {
		defer p.Enter("f")()
		func() {
			defer p.Enter("g")()
			inner = p.AllocWords(2)
		}()
		p.AllocWords(2) // attributed to f after g returns
	}()
	_ = inner
	if len(allocs) != 2 {
		t.Fatalf("allocs = %d", len(allocs))
	}
	if p.Sym().Name(allocs[0].Fn) != "g" {
		t.Errorf("first alloc site = %s, want g", p.Sym().Name(allocs[0].Fn))
	}
	if p.Sym().Name(allocs[1].Fn) != "f" {
		t.Errorf("second alloc site = %s, want f", p.Sym().Name(allocs[1].Fn))
	}
}

func TestStoreLoadField(t *testing.T) {
	p := NewProcess(Options{Seed: 1})
	a := p.AllocWords(4)
	p.StoreField(a, 2, 99)
	if got := p.LoadField(a, 2); got != 99 {
		t.Errorf("LoadField = %d, want 99", got)
	}
	if got := p.Load(a + 2*heap.WordSize); got != 99 {
		t.Errorf("Load = %d, want 99", got)
	}
}

func TestRunConvertsFaultPanics(t *testing.T) {
	p := NewProcess(Options{Seed: 1})
	a := p.AllocWords(1)
	p.Free(a)
	err := Run(func() { p.Free(a) }) // double free
	var f *Fault
	if !errors.As(err, &f) {
		t.Fatalf("err = %v, want *Fault", err)
	}
	if !errors.Is(err, heap.ErrDoubleFree) {
		t.Errorf("err chain missing ErrDoubleFree: %v", err)
	}
	if f.Op != "free" {
		t.Errorf("fault op = %q", f.Op)
	}
}

func TestRunConvertsOtherPanics(t *testing.T) {
	err := Run(func() { panic("boom") })
	if !errors.Is(err, ErrPanicked) {
		t.Fatalf("err = %v, want ErrPanicked", err)
	}
}

func TestRunNilError(t *testing.T) {
	if err := Run(func() {}); err != nil {
		t.Fatalf("err = %v", err)
	}
}

func TestDeterministicRNG(t *testing.T) {
	a := NewProcess(Options{Seed: 42}).Rand().Uint64()
	b := NewProcess(Options{Seed: 42}).Rand().Uint64()
	c := NewProcess(Options{Seed: 43}).Rand().Uint64()
	if a != b {
		t.Error("same seed produced different RNG streams")
	}
	if a == c {
		t.Error("different seeds produced identical first values")
	}
}

func TestFaultPlanWiring(t *testing.T) {
	plan := faults.NewPlan().EnableAlways(faults.DListNoPrev)
	p := NewProcess(Options{Seed: 1, Plan: plan})
	if !p.Hit(faults.DListNoPrev) {
		t.Error("enabled fault did not fire through process")
	}
	if p.Hit(faults.OctDAG) {
		t.Error("disabled fault fired")
	}
	// Nil plan: Plan() returns usable empty plan.
	q := NewProcess(Options{Seed: 1})
	if q.Plan() == nil || q.Hit(faults.DListNoPrev) {
		t.Error("default plan misbehaves")
	}
}

func TestProcessDrivesLogger(t *testing.T) {
	p := NewProcess(Options{Seed: 1})
	l := logger.New(logger.Options{Frequency: 1})
	p.Subscribe(l)

	func() {
		defer p.Enter("build")()
		a := p.AllocWords(2)
		b := p.AllocWords(2)
		p.StoreField(a, 1, b)
	}()
	func() {
		defer p.Enter("tick")()
	}()

	if n := len(l.Report().Snapshots); n != 2 {
		t.Fatalf("metric points = %d, want 2", n)
	}
	g := l.Graph()
	if g.NumVertices() != 2 || g.NumEdges() != 1 {
		t.Errorf("graph V=%d E=%d, want 2/1", g.NumVertices(), g.NumEdges())
	}
}
