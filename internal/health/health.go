// Package health implements instrumentation-health accounting: a
// tally of every event the logger observed but could not interpret.
//
// HeapMD's whole premise is running against buggy programs, and a
// buggy program emits buggy instrumentation: double frees, frees of
// addresses that were never allocated, stores through wild pointers,
// reallocs of unknown bases. The original execution logger silently
// dropped all of these — reasonable for keeping the heap image
// consistent, but it discards evidence: a spike in wild stores is
// itself a heap-bug signal squarely inside the paper's taxonomy
// (Section 4.1's corruption bugs), and a run whose trace had to be
// salvaged should say so in its report. This package gives those
// drops a home. The logger populates a Counters as it runs, the
// Counters travels inside every logger.Report, and the detector
// turns each nonzero bug-evidence counter into an
// InstrumentationAnomaly finding.
package health

import (
	"fmt"
	"strings"
)

// Counters tallies instrumentation events that could not be applied
// to the heap image, plus infrastructure faults absorbed along the
// way. The zero value is ready to use. Counters is not synchronized;
// like the logger that owns it, it assumes a single event stream.
type Counters struct {
	// DoubleFrees counts frees of an address that was previously
	// allocated and already freed (and not since recycled).
	DoubleFrees uint64 `json:"double_frees,omitempty"`
	// WildFrees counts frees of an address with no record of ever
	// being allocated.
	WildFrees uint64 `json:"wild_frees,omitempty"`
	// WildStores counts stores to addresses outside every live
	// object.
	WildStores uint64 `json:"wild_stores,omitempty"`
	// BadReallocs counts reallocs whose old base is not a live
	// object (freed, never allocated, or an interior pointer).
	BadReallocs uint64 `json:"bad_reallocs,omitempty"`
	// UnknownEvents counts events whose type byte is outside the
	// known event.Type range — bit flips in a trace, or a version
	// skew between recorder and replayer.
	UnknownEvents uint64 `json:"unknown_events,omitempty"`
	// ObserverPanics counts panics recovered from SampleObservers.
	// Each panicking observer is quarantined after its first panic,
	// so this also bounds the number of quarantined observers.
	ObserverPanics uint64 `json:"observer_panics,omitempty"`
	// SalvagedGaps counts contiguous regions of a trace that were
	// dropped during salvage (zero for live runs and clean traces).
	SalvagedGaps uint64 `json:"salvaged_gaps,omitempty"`
	// SalvagedBytes is the total size of those dropped regions.
	SalvagedBytes uint64 `json:"salvaged_bytes,omitempty"`
}

// Total returns the sum of all anomaly counters (salvaged bytes are
// excluded: they are a size, not an occurrence count).
func (c *Counters) Total() uint64 {
	return c.DoubleFrees + c.WildFrees + c.WildStores + c.BadReallocs +
		c.UnknownEvents + c.ObserverPanics + c.SalvagedGaps
}

// Zero reports whether no anomalies were recorded.
func (c *Counters) Zero() bool { return c.Total() == 0 }

// Add accumulates o into c.
func (c *Counters) Add(o Counters) {
	c.DoubleFrees += o.DoubleFrees
	c.WildFrees += o.WildFrees
	c.WildStores += o.WildStores
	c.BadReallocs += o.BadReallocs
	c.UnknownEvents += o.UnknownEvents
	c.ObserverPanics += o.ObserverPanics
	c.SalvagedGaps += o.SalvagedGaps
	c.SalvagedBytes += o.SalvagedBytes
}

// Item is one named counter value, for iteration and rendering.
type Item struct {
	Name  string
	Count uint64
}

// evidenceCounters is how many of Items' leading counters are bug
// evidence: double frees, wild frees, wild stores, bad reallocs and
// unknown events.
const evidenceCounters = 5

// Items returns every counter with its canonical name, in a fixed
// order, bug evidence first. Zero counters are included; filter with
// Nonzero if needed.
func (c *Counters) Items() []Item {
	return []Item{
		{"double-frees", c.DoubleFrees},
		{"wild-frees", c.WildFrees},
		{"wild-stores", c.WildStores},
		{"bad-reallocs", c.BadReallocs},
		{"unknown-events", c.UnknownEvents},
		{"observer-panics", c.ObserverPanics},
		{"salvaged-gaps", c.SalvagedGaps},
	}
}

// Nonzero returns only the counters with nonzero values.
func (c *Counters) Nonzero() []Item { return nonzero(c.Items()) }

// Evidence returns the nonzero bug-evidence counters, in Items order.
// Any one of them is a corruption signal from the monitored program,
// so a single occurrence counts. Observer panics and salvaged gaps
// never do: they mark damaged infrastructure, not necessarily a heap
// bug in the monitored program.
func (c *Counters) Evidence() []Item { return nonzero(c.Items()[:evidenceCounters]) }

func nonzero(items []Item) []Item {
	var out []Item
	for _, it := range items {
		if it.Count > 0 {
			out = append(out, it)
		}
	}
	return out
}

// String renders the nonzero counters compactly, e.g.
// "double-frees=3 wild-stores=17", or "clean" when all are zero.
func (c *Counters) String() string {
	items := c.Nonzero()
	if len(items) == 0 {
		return "clean"
	}
	parts := make([]string, len(items))
	for i, it := range items {
		parts[i] = fmt.Sprintf("%s=%d", it.Name, it.Count)
	}
	if c.SalvagedBytes > 0 {
		parts = append(parts, fmt.Sprintf("salvaged-bytes=%d", c.SalvagedBytes))
	}
	return strings.Join(parts, " ")
}
