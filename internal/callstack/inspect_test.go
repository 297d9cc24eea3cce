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
