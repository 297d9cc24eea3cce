// Package swat reimplements the SWAT memory-leak detector (Chilimbi &
// Hauswirth, ASPLOS 2004) to the fidelity the paper's Table 1
// comparison requires.
//
// SWAT's premise is *staleness*, not reachability: it monitors heap
// accesses (with adaptive sampling to bound overhead) and flags
// objects that have not been touched for a long time as leaks,
// aggregated by allocation site. Two consequences the paper leans on:
//
//   - SWAT finds leaks HeapMD cannot: objects that remain *reachable*
//     but are never used again (a forgotten cache) are stale even
//     though no heap-graph metric moves.
//   - SWAT reports false positives HeapMD does not: "cached objects
//     that are reachable but not accessed" look exactly like leaks to
//     a staleness detector; HeapMD, which tracks structure rather
//     than staleness, stays quiet (Table 1 shows 1 SWAT false positive
//     each on two of the three applications, and none for HeapMD).
//
// The detector consumes the same event stream as HeapMD's execution
// logger, so one run can drive both tools — how the paper ran its
// side-by-side comparison.
package swat

import (
	"sort"

	"heapmd/internal/event"
	"heapmd/internal/intervals"
)

// The detector's fixed settings.
const (
	// idleFraction: an object is stale when it has been idle for at
	// least this fraction of the observed run.
	idleFraction = 0.5
	// minStaleCount: a site is reported only when at least this many
	// of its live objects are stale — single stray objects are noise,
	// systemic leaks accumulate. The paper's smallest synthesized
	// leaks abandon a couple of objects, so 2 keeps them within
	// SWAT's sensitivity.
	minStaleCount = 2
	// minStaleFraction: a site is reported only when at least this
	// fraction of its live objects are stale. Churning pools have
	// long-lifetime tails; requiring a substantial share of a site's
	// population to be stale separates leaks from tails. It is no
	// higher because leaks share allocation sites with healthy
	// objects (the Figure 11 typo leaks lists from a site that also
	// feeds live lists), so demanding near-total staleness hides them.
	minStaleFraction = 0.3
	// sampleAfter is the adaptive access sampling threshold: once a
	// site has observed this many accesses, only every 8th access
	// updates staleness bookkeeping (SWAT samples frequently-executed
	// code paths at reduced rates).
	sampleAfter = 4096
)

// objRec tracks one live object.
type objRec struct {
	site       event.FnID
	allocTick  uint64
	lastAccess uint64
}

// Leak is one reported leak site.
type Leak struct {
	// Site is the allocation site whose objects went stale.
	Site event.FnID
	// SiteName is the resolved name (when a symtab was supplied).
	SiteName string
	// Stale is the number of stale live objects at the site.
	Stale int
	// Live is the total number of live objects at the site.
	Live int
	// MaxIdle is the longest idle period among the stale objects,
	// in event ticks.
	MaxIdle uint64
}

// Detector implements event.Sink.
type Detector struct {
	clock    uint64 // advances once per event
	objects  *intervals.Map[*objRec]
	siteHits map[event.FnID]uint64
}

// New creates a SWAT detector.
func New() *Detector {
	return &Detector{
		objects:  intervals.New[*objRec](),
		siteHits: make(map[event.FnID]uint64),
	}
}

// Emit implements event.Sink.
func (d *Detector) Emit(e event.Event) {
	d.clock++
	switch e.Type {
	case event.Alloc:
		d.objects.Insert(e.Addr, e.Size, &objRec{
			site:       e.Fn,
			allocTick:  d.clock,
			lastAccess: d.clock, // initialization counts as an access
		})
	case event.Free:
		d.objects.Remove(e.Addr)
	case event.Realloc:
		if rec, ok := d.objects.Get(e.Addr); ok {
			d.objects.Remove(e.Addr)
			rec.lastAccess = d.clock
			d.objects.Insert(e.Value, e.Size, rec)
		}
	case event.Store, event.Load:
		d.touch(e.Addr)
	}
}

// touch records an access to the object containing addr, subject to
// adaptive sampling.
func (d *Detector) touch(addr uint64) {
	_, _, rec, ok := d.objects.Stab(addr)
	if !ok {
		return
	}
	hits := d.siteHits[rec.site]
	d.siteHits[rec.site] = hits + 1
	if hits > sampleAfter && hits%8 != 0 {
		// Sampled out: SWAT trades access-tracking precision on hot
		// paths for overhead; occasionally this manufactures
		// staleness, one source of its false positives.
		return
	}
	rec.lastAccess = d.clock
}

// Report aggregates stale live objects by allocation site and returns
// the sites that cross the reporting thresholds, most stale first.
// sym, when non-nil, resolves site names.
func (d *Detector) Report(sym *event.Symtab) []Leak {
	idleCut := uint64(float64(d.clock) * idleFraction)
	type agg struct {
		stale, live int
		maxIdle     uint64
	}
	sites := make(map[event.FnID]*agg)
	d.objects.Walk(func(_, _ uint64, rec *objRec) bool {
		a := sites[rec.site]
		if a == nil {
			a = &agg{}
			sites[rec.site] = a
		}
		a.live++
		if idle := d.clock - rec.lastAccess; idle >= idleCut {
			a.stale++
			if idle > a.maxIdle {
				a.maxIdle = idle
			}
		}
		return true
	})
	var out []Leak
	for site, a := range sites {
		if a.stale < minStaleCount {
			continue
		}
		if float64(a.stale) < minStaleFraction*float64(a.live) {
			continue
		}
		l := Leak{Site: site, Stale: a.stale, Live: a.live, MaxIdle: a.maxIdle}
		if sym != nil {
			l.SiteName = sym.Name(site)
		}
		out = append(out, l)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Stale != out[j].Stale {
			return out[i].Stale > out[j].Stale
		}
		return out[i].Site < out[j].Site
	})
	return out
}
