package trace

import (
	"io"

	"heapmd/internal/event"
)

// Test-only entry points and a counting sink. Production replays
// through ReplayWith and SalvageWith and closes its writers; nothing
// flushes a writer mid-run or reads its count.

// tally is a sink that counts the events it receives.
type tally struct{ Total uint64 }

// Emit implements event.Sink.
func (c *tally) Emit(event.Event) { c.Total++ }

// EmitBatch implements event.BatchSink.
func (c *tally) EmitBatch(batch []event.Event) { c.Total += uint64(len(batch)) }

// Salvage is SalvageWith at the default reader settings.
func Salvage(r io.ReadSeeker, sink event.Sink) (*event.Symtab, *SalvageInfo, error) {
	return SalvageWith(r, sink, ReadOptions{})
}

// Events returns the number of events written so far.
func (tw *Writer) Events() uint64 { return tw.n }

// Flush seals any pending batch into a frame and flushes buffered
// bytes to the underlying writer, establishing a salvage point. The
// Writer remains usable.
func (tw *Writer) Flush() error {
	tw.flushBatch()
	if tw.err == nil {
		tw.err = tw.w.Flush()
	}
	return tw.err
}
