package event

// Test-only helpers: name lookup, the event-type check and the
// tallying sink. Production code interns names and resolves IDs, and
// the logger counts unknown event types in its switch's default case.

// Lookup returns the FnID for name without interning.
func (s *Symtab) Lookup(name string) (FnID, bool) {
	id, ok := s.byName[name]
	return id, ok
}

// Counter is a Sink that tallies events by type. Events with an out-of-range type byte (possible
// when counting a damaged trace) land in Unknown rather than
// panicking.
type Counter struct {
	ByType  [NumTypes]uint64
	Unknown uint64
	Total   uint64
}

// Emit implements Sink.
func (c *Counter) Emit(e Event) {
	if e.Type.Known() {
		c.ByType[e.Type]++
	} else {
		c.Unknown++
	}
	c.Total++
}

// EmitBatch implements BatchSink.
func (c *Counter) EmitBatch(batch []Event) {
	for _, e := range batch {
		c.Emit(e)
	}
}

// Count returns the number of events of type t seen so far.
func (c *Counter) Count(t Type) uint64 { return c.ByType[t] }

// Known reports whether t is a defined event type.
func (t Type) Known() bool { return t < NumTypes }
