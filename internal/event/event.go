// Package event defines the instrumentation event stream that connects
// the simulated program substrate to HeapMD's analysis components.
//
// In the paper, a binary instrumenter (built on Vulcan) rewrites an x86
// binary so that every allocator call and every heap write reports to
// the execution logger. This reproduction replaces the x86 process with
// a simulated heap (package heap) and a workload runtime (package
// prog); both report through the Event type defined here. Everything
// downstream of this interface — the execution logger, the metric
// summarizer, the anomaly detector, and the SWAT baseline — consumes
// only Events, exactly as the paper's components consume only
// instrumentation callbacks.
package event

import "fmt"

// Type enumerates the kinds of instrumentation events.
type Type uint8

const (
	// Alloc reports a new heap object: Addr is its base address,
	// Size its length in bytes. Fn identifies the function that
	// performed the allocation (the allocation site).
	Alloc Type = iota
	// Free reports object deallocation: Addr is the base address,
	// Size the released length.
	Free
	// Realloc reports an object resize/move: Addr is the old base,
	// Value the new base, Size the new length.
	Realloc
	// Store reports a heap write: Addr is the written location,
	// Value the word written, Old the word previously stored there.
	Store
	// Load reports a heap read: Addr is the location read, Value
	// the word observed. Loads do not affect the heap-graph; they
	// exist for access-tracking tools such as the SWAT baseline.
	Load
	// Enter reports entry into a function. Function entries are
	// HeapMD's metric computation points (Section 2.1).
	Enter
	// Leave reports return from a function.
	Leave
)

// NumTypes is the number of defined event types.
const NumTypes = 7

// String returns the mnemonic name of the event type.
func (t Type) String() string {
	switch t {
	case Alloc:
		return "alloc"
	case Free:
		return "free"
	case Realloc:
		return "realloc"
	case Store:
		return "store"
	case Load:
		return "load"
	case Enter:
		return "enter"
	case Leave:
		return "leave"
	default:
		return fmt.Sprintf("event.Type(%d)", uint8(t))
	}
}

// FnID is an interned function identifier. The symbol table mapping
// FnIDs back to names travels with the run (see package prog), mirroring
// the symbol information the paper's tool reads from the binary.
type FnID uint32

// NoFn marks events that carry no function attribution.
const NoFn FnID = 0

// Event is a single instrumentation record. The struct is fixed-size
// and contains no pointers so that high-frequency event streams do not
// pressure the garbage collector.
type Event struct {
	Type  Type
	Fn    FnID   // attributed function (allocation site / entered fn)
	Addr  uint64 // subject address (object base or written location)
	Value uint64 // stored word, new base (realloc), or loaded word
	Old   uint64 // previously stored word (Store only)
	Size  uint64 // object size in bytes (Alloc/Free/Realloc)
}

// Sink consumes instrumentation events. Implementations must tolerate
// being invoked once per simulated heap operation; anything expensive
// must be amortized internally (the execution logger, for example,
// samples metrics only at every frq-th Enter event).
type Sink interface {
	Emit(Event)
}

// SinkFunc adapts a function to the Sink interface.
type SinkFunc func(Event)

// Emit implements Sink.
func (f SinkFunc) Emit(e Event) { f(e) }

// BatchSink is an optional extension of Sink for consumers that can
// accept decoded events a frame at a time. Batch delivery replaces one
// interface dispatch per event with one per batch, which matters on
// replay paths pushing tens of millions of events per second. The
// batch slice is borrowed: it is valid only for the duration of the
// call and is overwritten afterwards, so implementations must finish
// with (or copy) it before returning.
type BatchSink interface {
	Sink
	EmitBatch([]Event)
}

// Batch is a reusable event buffer: a growable []Event that trace
// writers and frame decoders recycle across record batches so that
// steady-state batch processing allocates nothing. The zero value is
// an empty, ready-to-use batch. Slices returned by Grow and Events
// are borrowed — they alias the buffer and are overwritten by the
// next Grow/Append/Reset, exactly like the BatchSink contract.
type Batch struct{ evs []Event }

// Append adds one event to the batch.
func (b *Batch) Append(e Event) { b.evs = append(b.evs, e) }

// Len returns the number of buffered events.
func (b *Batch) Len() int { return len(b.evs) }

// Reset empties the batch, keeping its capacity.
func (b *Batch) Reset() { b.evs = b.evs[:0] }

// Grow resizes the batch to exactly n events (contents unspecified),
// reusing the existing allocation when it is large enough, and
// returns the resized slice for the caller to fill in place.
func (b *Batch) Grow(n int) []Event {
	if cap(b.evs) < n {
		b.evs = make([]Event, n)
	}
	b.evs = b.evs[:n]
	return b.evs
}

// Events returns the buffered events (borrowed).
func (b *Batch) Events() []Event { return b.evs }

// EmitAll delivers batch through sink's EmitBatch when implemented,
// falling back to per-event Emit calls. The borrowed-slice contract of
// BatchSink.EmitBatch applies.
func EmitAll(sink Sink, batch []Event) {
	if bs, ok := sink.(BatchSink); ok {
		bs.EmitBatch(batch)
		return
	}
	for _, e := range batch {
		sink.Emit(e)
	}
}

// Multi fans a single event stream out to several sinks in order.
type Multi []Sink

// Emit implements Sink by forwarding e to every registered sink.
func (m Multi) Emit(e Event) {
	for _, s := range m {
		s.Emit(e)
	}
}

// Without returns m less its first registration of sink, in a new
// slice, so an Emit ranging over m is undisturbed. sink's dynamic type
// must be comparable.
func (m Multi) Without(sink Sink) Multi {
	for i, s := range m {
		if s == sink {
			return append(append(Multi(nil), m[:i]...), m[i+1:]...)
		}
	}
	return m
}
