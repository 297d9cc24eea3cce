// Package callstack tracks the simulated program's call stack and
// maintains the circular buffer of stack captures that HeapMD uses for
// root-cause reporting.
//
// Paper Section 2.2: "HeapMD enables call-stack logging when a metric
// that was identified as stable during training approaches its
// calibrated maximum value with a positive slope, or when it
// approaches its minimum value with a negative slope. This call-stack
// logging into a circular buffer continues until either the metric
// moves away from the minimum/maximum calibrated value, or it crosses
// either extreme value, thus triggering a bug report." The anomaly
// detector (package detect) drives the arming policy; this package
// provides the mechanism.
package callstack

import "heapmd/internal/event"

// Tracker mirrors the simulated program's call stack from the
// Enter/Leave event stream.
type Tracker struct {
	stack []event.FnID
}

// NewTracker returns an empty call-stack tracker.
func NewTracker() *Tracker {
	return &Tracker{stack: make([]event.FnID, 0, 64)}
}

// Reset empties the tracker, keeping the stack's capacity.
func (t *Tracker) Reset() { t.stack = t.stack[:0] }

// Enter pushes fn.
func (t *Tracker) Enter(fn event.FnID) { t.stack = append(t.stack, fn) }

// Leave pops the top frame. Mismatched leaves (possible when a trace
// is truncated mid-call) pop whatever is on top; leaving an empty
// stack is a no-op.
func (t *Tracker) Leave() {
	if len(t.stack) > 0 {
		t.stack = t.stack[:len(t.stack)-1]
	}
}

// Snapshot copies the current stack, outermost frame first.
func (t *Tracker) Snapshot() []event.FnID {
	out := make([]event.FnID, len(t.stack))
	copy(out, t.stack)
	return out
}

// Capture is one logged call stack, tagged with the metric sample that
// triggered logging.
type Capture struct {
	Tick  uint64       // metric computation point ordinal
	Value float64      // metric value at capture time
	Stack []event.FnID // outermost first
}

// Ring is a fixed-capacity circular buffer of Captures. When full, new
// captures overwrite the oldest — exactly the paper's design, which
// retains context "before, during, and after the metric crosses its
// calibrated minimum/maximum value".
type Ring struct {
	buf   []Capture
	start int // index of oldest element
	n     int // number of valid elements
}

// NewRing creates a ring holding up to capacity captures. Capacity
// must be positive; a non-positive value is treated as 1.
func NewRing(capacity int) *Ring {
	if capacity < 1 {
		capacity = 1
	}
	return &Ring{buf: make([]Capture, capacity)}
}

// Add appends a capture, evicting the oldest if full.
func (r *Ring) Add(c Capture) {
	if r.n < len(r.buf) {
		r.buf[(r.start+r.n)%len(r.buf)] = c
		r.n++
		return
	}
	r.buf[r.start] = c
	r.start = (r.start + 1) % len(r.buf)
}

// Snapshot returns the held captures oldest-first.
func (r *Ring) Snapshot() []Capture {
	out := make([]Capture, r.n)
	for i := 0; i < r.n; i++ {
		out[i] = r.buf[(r.start+i)%len(r.buf)]
	}
	return out
}

// Clear discards all captures.
func (r *Ring) Clear() {
	r.start, r.n = 0, 0
}
