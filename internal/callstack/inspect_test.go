package callstack

import "heapmd/internal/event"

// Inspection for the package's tests.

// Depth returns the current stack depth.
func (t *Tracker) Depth() int { return len(t.stack) }

// Top returns the innermost frame, or NoFn when the stack is empty.
func (t *Tracker) Top() event.FnID {
	if len(t.stack) == 0 {
		return event.NoFn
	}
	return t.stack[len(t.stack)-1]
}

// Cap returns the ring capacity.
func (r *Ring) Cap() int { return len(r.buf) }

// Observe updates the tracker from an event, ignoring non-call events,
// and reports whether the event affected the stack.
func (t *Tracker) Observe(e event.Event) bool {
	switch e.Type {
	case event.Enter:
		t.Enter(e.Fn)
		return true
	case event.Leave:
		t.Leave()
		return true
	}
	return false
}

// Len returns the number of captures currently held.
func (r *Ring) Len() int { return r.n }
