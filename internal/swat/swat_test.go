package swat

import (
	"testing"

	"heapmd/internal/event"
	"heapmd/internal/faults"
	"heapmd/internal/workloads"
)

// drive sends a synthetic event sequence: n objects allocated at a
// site, optionally touched periodically, padded with filler events to
// advance the clock.
func drive(d *Detector, site event.FnID, n int, touchEvery int, filler int) []uint64 {
	var addrs []uint64
	for i := 0; i < n; i++ {
		addr := uint64(0x1000_0000 + i*64)
		addrs = append(addrs, addr)
		d.Emit(event.Event{Type: event.Alloc, Fn: site, Addr: addr, Size: 32})
	}
	for t := 0; t < filler; t++ {
		if touchEvery > 0 && t%touchEvery == 0 {
			for _, a := range addrs {
				d.Emit(event.Event{Type: event.Load, Addr: a})
			}
		} else {
			// Filler access to untracked memory advances the clock.
			d.Emit(event.Event{Type: event.Load, Addr: 1})
		}
	}
	return addrs
}

func TestAbandonedObjectsReported(t *testing.T) {
	d := New()
	drive(d, 7, 5, 0, 1000) // 5 objects, never touched again
	leaks := d.Report(nil)
	if len(leaks) != 1 {
		t.Fatalf("leaks = %d, want 1", len(leaks))
	}
	if leaks[0].Site != 7 || leaks[0].Stale != 5 || leaks[0].Live != 5 {
		t.Errorf("leak = %+v", leaks[0])
	}
}

func TestTouchedObjectsNotReported(t *testing.T) {
	d := New()
	drive(d, 7, 5, 100, 1000) // touched every 100 events
	if leaks := d.Report(nil); len(leaks) != 0 {
		t.Fatalf("touched objects reported: %+v", leaks)
	}
}

func TestFreedObjectsNotReported(t *testing.T) {
	d := New()
	addrs := drive(d, 7, 5, 0, 500)
	for _, a := range addrs {
		d.Emit(event.Event{Type: event.Free, Addr: a, Size: 32})
	}
	for t2 := 0; t2 < 500; t2++ {
		d.Emit(event.Event{Type: event.Load, Addr: 1})
	}
	if leaks := d.Report(nil); len(leaks) != 0 {
		t.Fatalf("freed objects reported: %+v", leaks)
	}
	if n := d.objects.Len(); n != 0 {
		t.Errorf("tracked objects = %d", n)
	}
}

func TestMinStaleCount(t *testing.T) {
	d := New()
	drive(d, 7, minStaleCount-1, 0, 1000) // one short of the threshold
	if leaks := d.Report(nil); len(leaks) != 0 {
		t.Fatalf("under-threshold site reported: %+v", leaks)
	}
	d = New()
	drive(d, 7, minStaleCount, 0, 1000) // exactly at the threshold
	if leaks := d.Report(nil); len(leaks) != 1 || leaks[0].Stale != minStaleCount {
		t.Fatalf("at-threshold site: leaks = %+v, want one with %d stale", leaks, minStaleCount)
	}
}

// staleShare drives 16 busy objects and stale idle ones at one site and
// returns the report.
func staleShare(stale int) []Leak {
	d := New()
	site := event.FnID(9)
	var busy []uint64
	for i := 0; i < 16; i++ {
		a := uint64(0x2000_0000 + i*64)
		busy = append(busy, a)
		d.Emit(event.Event{Type: event.Alloc, Fn: site, Addr: a, Size: 32})
	}
	for i := 0; i < stale; i++ {
		d.Emit(event.Event{Type: event.Alloc, Fn: site, Addr: uint64(0x3000_0000 + i*64), Size: 32})
	}
	for t := 0; t < 2000; t++ {
		d.Emit(event.Event{Type: event.Load, Addr: busy[t%len(busy)]})
	}
	return d.Report(nil)
}

func TestMinStaleFraction(t *testing.T) {
	// 4 of 20 live objects stale (20%) is under minStaleFraction...
	if leaks := staleShare(4); len(leaks) != 0 {
		t.Fatalf("mostly-busy site reported: %+v", leaks)
	}
	// ...and 7 of 23 (30.4%) is over it.
	if leaks := staleShare(7); len(leaks) != 1 || leaks[0].Stale != 7 || leaks[0].Live != 23 {
		t.Fatalf("site over the stale fraction: leaks = %+v", leaks)
	}
}

func TestReallocKeepsTracking(t *testing.T) {
	d := New()
	for i := 0; i < 4; i++ {
		d.Emit(event.Event{Type: event.Alloc, Fn: 7, Addr: uint64(0x1000 + i*64), Size: 32})
	}
	// Move one object; it stays tracked at its new address.
	d.Emit(event.Event{Type: event.Realloc, Addr: 0x1000, Value: 0x9000, Size: 64})
	for t2 := 0; t2 < 1000; t2++ {
		d.Emit(event.Event{Type: event.Load, Addr: 1})
	}
	leaks := d.Report(nil)
	if len(leaks) != 1 || leaks[0].Stale != 4 {
		t.Fatalf("leaks after realloc = %+v", leaks)
	}
}

func TestSiteNameResolution(t *testing.T) {
	sym := event.NewSymtab()
	site := sym.Intern("assets.load")
	d := New()
	drive(d, site, 4, 0, 800)
	leaks := d.Report(sym)
	if len(leaks) != 1 || leaks[0].SiteName != "assets.load" {
		t.Fatalf("leaks = %+v", leaks)
	}
}

// TestReachableLeakVisibleToSWAT is the Table 1 division of labour:
// a reachable-but-never-accessed cache is exactly what SWAT sees and
// HeapMD does not (Section 4.2).
func TestReachableLeakVisibleToSWAT(t *testing.T) {
	w, err := workloads.Get("multimedia")
	if err != nil {
		t.Fatal(err)
	}
	in := w.Inputs(1)[0]
	plan := faults.NewPlan().Enable(faults.ReachableLeak, faults.Config{MaxTriggers: 8})
	d := New()
	_, p, err := workloads.RunLogged(w, in, workloads.RunConfig{
		Plan:       plan,
		ExtraSinks: []event.Sink{d},
	})
	if err != nil {
		t.Fatal(err)
	}
	leaks := d.Report(p.Sym())
	found := false
	for _, l := range leaks {
		if l.SiteName == "mm.leak" || l.SiteName == "mm.cacheStore" {
			found = true
		}
	}
	if !found {
		t.Errorf("SWAT missed the reachable leak; reports: %+v", leaks)
	}
}

func TestCleanWorkloadRunFewReports(t *testing.T) {
	// On a fault-free run SWAT should report at most a couple of
	// cache-like sites (its documented false-positive mode), not a
	// flood.
	w, err := workloads.Get("multimedia")
	if err != nil {
		t.Fatal(err)
	}
	in := w.Inputs(1)[0]
	d := New()
	_, p, err := workloads.RunLogged(w, in, workloads.RunConfig{
		ExtraSinks: []event.Sink{d},
	})
	if err != nil {
		t.Fatal(err)
	}
	leaks := d.Report(p.Sym())
	if len(leaks) > 3 {
		names := make([]string, len(leaks))
		for i, l := range leaks {
			names[i] = l.SiteName
		}
		t.Errorf("SWAT reported %d sites on a clean run: %v", len(leaks), names)
	}
}

func BenchmarkEmitStore(b *testing.B) {
	d := New()
	for i := 0; i < 1000; i++ {
		d.Emit(event.Event{Type: event.Alloc, Fn: 1, Addr: uint64(0x1000 + i*64), Size: 32})
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		d.Emit(event.Event{Type: event.Store, Addr: uint64(0x1000 + (i%1000)*64)})
	}
}
