// Package trace records and replays instrumentation event streams,
// enabling HeapMD's second usage mode (paper Section 2): post-mortem
// analysis, where the program's execution trace is captured online and
// compared against the model offline. Offline analysis can use whole-
// trace information and avoids perturbing the monitored program beyond
// the cost of logging.
//
// Because HeapMD runs against *buggy* programs, the trace is written
// by a process that may crash, corrupt its own output, or be killed
// mid-run. The framed formats are therefore crash-safe: events travel
// in framed record batches, each frame carrying a CRC32 over its
// payload, and the symbol table is checkpointed periodically instead
// of living only in an end-of-file trailer. Replay of a truncated or
// corrupted framed trace can salvage every complete, checksum-valid
// frame before the damage (see SalvageWith and SalvageInfo) instead of
// failing wholesale.
//
// The Writer writes format v3 only. Formats v1 and v2 are read-only:
// Replay and SalvageWith still accept traces written by earlier versions.
//
// Format v3 (written by NewWriterWith; all integers little-endian):
//
//	header:  magic "HMDT" | version u32 (=3)
//	frames:  kind u8 | payloadLen u32 | crc32(payload) u32 | payload
//	  kind 1 (events): flags u8 | count u32 | body
//	         body: one array per Event field, delta+varint encoded
//	         (see columnar.go); flags selects the body codec —
//	         0 = raw, 1 = flate-compressed (only when smaller).
//	  kind 2 (symtab): full symbol-table snapshot:
//	         count u32, then count length-prefixed names.
//	         Later checkpoints supersede earlier ones.
//	  kind 3 (end): eventCount u64 — marks a clean close.
//
// Clustered addresses and near-monotonic columns collapse to one or
// two bytes per event (~6x smaller than v2's fixed-width records on
// recorded workload traces), and each frame's delta chains restart at
// zero, so salvage recovers every complete frame independently.
//
// Format v2 (read-only) has v3's envelope — the same header shape,
// frame kinds, CRC32C framing, symtab checkpoints and end frame, so
// frame walking and salvage are version-independent — but its event
// frames hold fixed-width records:
//
//	header:  magic "HMDT" | version u32 (=2)
//	  kind 1 (events): payload is n records of 37 bytes each:
//	         type u8 | fn u32 | addr u64 | value u64 | old u64 | size u64
//	  kinds 2 and 3: byte-identical to v3.
//
// Format v1 (read-only):
//
//	header:  magic "HMDT" | version u32 (=1)
//	events:  n records of 37 bytes each (as in v2, unframed)
//	trailer: symtab (count u32, then count length-prefixed names)
//	         | symtabLen u64 | eventCount u64 | magic "TDMH"
//
// v1 keeps the symbol table solely in the trailer, so a run that
// crashes before Close loses it — and, because nothing in the body is
// checksummed, the best v1 salvage can do is reinterpret the bytes
// after the header as records.
package trace

import (
	"bufio"
	"bytes"
	"compress/flate"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"runtime"
	"sync"
	"sync/atomic"

	"heapmd/internal/arena"
	"heapmd/internal/event"
)

var (
	headerMagic  = [4]byte{'H', 'M', 'D', 'T'}
	trailerMagic = [4]byte{'T', 'D', 'M', 'H'}
)

// VersionV1 is the legacy trailer-based format, still readable.
const VersionV1 uint32 = 1

// VersionV2 is the legacy framed format of fixed-width records, still
// readable.
const VersionV2 uint32 = 2

// VersionV3 is the columnar delta-encoded format (optionally
// flate-compressed per frame), the only format the Writer writes. It
// shares v2's frame envelope and salvage semantics.
const VersionV3 uint32 = 3

const recordSize = 1 + 4 + 8 + 8 + 8 + 8

// Frame kinds (v2 and v3).
const (
	frameEvents byte = 1
	frameSymtab byte = 2
	frameEnd    byte = 3
)

const frameHeaderSize = 1 + 4 + 4

// maxFramePayload bounds a single frame so that a corrupted length
// field cannot demand a multi-gigabyte allocation.
const maxFramePayload = 1 << 24

// DefaultBatchRecords is how many event records accumulate before the
// Writer seals them into a checksummed frame. Larger batches amortize
// frame overhead — above all, on a flate-compressed v3 trace, each
// frame's dynamic Huffman header and the tables replay builds from it;
// smaller batches lose less data when the monitored process dies
// mid-batch: a crash between frames loses at most
// DefaultBatchRecords-1 events. A Writer with a symtab attached
// checkpoints it after every event frame, so symbols are also
// checkpointed every DefaultBatchRecords events. The reader takes
// frames of any size within its corruption bounds, so traces sealed at
// 512 records by earlier writers replay unchanged.
const DefaultBatchRecords = 4096

var crcTable = crc32.MakeTable(crc32.Castagnoli)

// ErrCorrupt indicates a malformed trace file.
var ErrCorrupt = errors.New("trace: corrupt trace")

// SalvageInfo describes what salvage recovered from a damaged trace.
// A clean replay yields the zero value (Truncated false, nothing
// dropped).
type SalvageInfo struct {
	// EventsRecovered is the number of events delivered to the sink.
	EventsRecovered uint64
	// BytesDropped is the size of the unreadable region that salvage
	// skipped (always a suffix: salvage keeps the longest valid
	// prefix).
	BytesDropped uint64
	// Truncated reports that the trace did not end cleanly — the end
	// frame (or v1 trailer) was missing or damaged, typically
	// because the monitored process crashed mid-run.
	Truncated bool
}

// Salvaged reports whether anything was lost.
func (s *SalvageInfo) Salvaged() bool { return s.Truncated || s.BytesDropped > 0 }

func (s *SalvageInfo) String() string {
	if !s.Salvaged() {
		return "clean"
	}
	return fmt.Sprintf("salvaged %d events, dropped %d bytes (truncated=%v)",
		s.EventsRecovered, s.BytesDropped, s.Truncated)
}

// Writer streams events to an underlying writer in format v3. It
// implements event.Sink; I/O errors are sticky and surfaced by Close.
//
// Events accumulate into record batches that are sealed into CRC32-
// framed chunks every DefaultBatchRecords events; if the process dies
// between batches, everything already framed remains salvageable, so a
// crash loses at most the DefaultBatchRecords-1 events of the open
// batch. Attach the run's symbol table with SetSymtab to also
// checkpoint it after every event frame, so function names survive a
// crash too.
type Writer struct {
	w       *bufio.Writer
	n       uint64 // events emitted
	err     error
	evs     event.Batch   // pending, not-yet-framed events
	enc     []byte        // columnar body scratch, reused per frame
	payload []byte        // assembled frame payload scratch
	comp    bytes.Buffer  // compressed body scratch
	fw      *flate.Writer // writes into comp; nil = never compress
	sym     *event.Symtab
	symBuf  []byte // symtab checkpoint scratch, reused per checkpoint
	// hdr is the frame-header scratch. A local array would be moved to
	// the heap on every writeFrame call (bufio may hand the slice to
	// the underlying io.Writer, so it escapes); keeping it on the
	// Writer makes the steady-state emit path allocation-free.
	hdr [frameHeaderSize]byte
}

// WriterOptions configure NewWriterWith.
type WriterOptions struct {
	// Version must be 0 or VersionV3, the only format the Writer
	// writes.
	Version uint32
	// Compress flate-compresses each event-frame body, for traces
	// headed to cold storage. The flag is per frame on the wire: a
	// frame is stored compressed only when that is actually smaller,
	// and replay output is identical either way.
	Compress bool
}

// NewWriterWith writes the v3 header and returns a Writer.
func NewWriterWith(w io.Writer, opts WriterOptions) (*Writer, error) {
	if opts.Version != 0 && opts.Version != VersionV3 {
		return nil, fmt.Errorf("trace: cannot write format version %d", opts.Version)
	}
	bw := bufio.NewWriterSize(w, 1<<16)
	if err := writeHeader(bw, VersionV3); err != nil {
		return nil, err
	}
	tw := &Writer{w: bw}
	if opts.Compress {
		// flate reaches ~2x on columnar residue at BestSpeed; the
		// writer is reset per frame, so framing allocates nothing.
		fw, err := flate.NewWriter(&tw.comp, flate.BestSpeed)
		if err != nil {
			return nil, err
		}
		tw.fw = fw
	}
	return tw, nil
}

func writeHeader(w io.Writer, version uint32) error {
	if _, err := w.Write(headerMagic[:]); err != nil {
		return err
	}
	var v [4]byte
	binary.LittleEndian.PutUint32(v[:], version)
	_, err := w.Write(v[:])
	return err
}

// SetSymtab attaches the run's live symbol table; the Writer snapshots
// it into the trace after every event frame, so a crashed run still
// replays with symbolized functions. Without it, symbols are written
// only by Close.
func (tw *Writer) SetSymtab(sym *event.Symtab) { tw.sym = sym }

// Emit implements event.Sink.
func (tw *Writer) Emit(e event.Event) {
	if tw.err != nil {
		return
	}
	tw.evs.Append(e)
	tw.n++
	if tw.evs.Len() >= DefaultBatchRecords {
		tw.flushBatch()
	}
}

// flushBatch seals the pending events into an event frame and, when a
// symtab is attached, follows it with a symtab checkpoint.
func (tw *Writer) flushBatch() {
	if tw.err != nil || tw.evs.Len() == 0 {
		return
	}
	payload := tw.encodeEvents()
	if tw.err != nil {
		return
	}
	tw.writeFrame(frameEvents, payload)
	tw.evs.Reset()
	if tw.sym != nil {
		tw.symBuf = appendSymtab(tw.symBuf[:0], tw.sym)
		tw.writeFrame(frameSymtab, tw.symBuf)
	}
}

// encodeEvents assembles the pending batch into an event-frame payload
// (flags | count | body), reusing the Writer's scratch buffers. With
// compression on, the body is stored compressed only when that is
// smaller — the flags byte records the choice per frame.
func (tw *Writer) encodeEvents() []byte {
	evs := tw.evs.Events()
	tw.enc = encodeColumns(tw.enc[:0], evs)
	body := tw.enc
	flags := codecRaw
	if tw.fw != nil {
		tw.comp.Reset()
		tw.fw.Reset(&tw.comp)
		if _, err := tw.fw.Write(body); err != nil {
			tw.err = err
			return nil
		}
		if err := tw.fw.Close(); err != nil {
			tw.err = err
			return nil
		}
		if tw.comp.Len() < len(body) {
			body = tw.comp.Bytes()
			flags = codecFlate
		}
	}
	var count [4]byte
	binary.LittleEndian.PutUint32(count[:], uint32(len(evs)))
	tw.payload = append(tw.payload[:0], flags)
	tw.payload = append(tw.payload, count[:]...)
	tw.payload = append(tw.payload, body...)
	return tw.payload
}

func (tw *Writer) writeFrame(kind byte, payload []byte) {
	if tw.err != nil {
		return
	}
	tw.hdr[0] = kind
	binary.LittleEndian.PutUint32(tw.hdr[1:], uint32(len(payload)))
	binary.LittleEndian.PutUint32(tw.hdr[5:], crc32.Checksum(payload, crcTable))
	if _, err := tw.w.Write(tw.hdr[:]); err != nil {
		tw.err = err
		return
	}
	if _, err := tw.w.Write(payload); err != nil {
		tw.err = err
	}
}

// Close seals pending events, writes the final symbol-table
// checkpoint and the end frame, and flushes. The Writer is unusable
// afterwards. sym may be nil if SetSymtab was used (or there are no
// symbols).
func (tw *Writer) Close(sym *event.Symtab) error {
	if tw.err == nil {
		tw.flushBatch()
		if sym == nil {
			sym = tw.sym
		}
		var end [8]byte
		binary.LittleEndian.PutUint64(end[:], tw.n)
		tw.symBuf = appendSymtab(tw.symBuf[:0], sym)
		tw.writeFrame(frameSymtab, tw.symBuf)
		tw.writeFrame(frameEnd, end[:])
	}
	if tw.err == nil {
		tw.err = tw.w.Flush()
	}
	return tw.err
}

// appendSymtab appends a full symbol-table snapshot (count, then
// length-prefixed names) to dst. A nil symtab encodes as zero entries.
func appendSymtab(dst []byte, sym *event.Symtab) []byte {
	count := 0
	if sym != nil {
		count = sym.Len()
	}
	dst = binary.LittleEndian.AppendUint32(dst, uint32(count))
	for id := event.FnID(1); id <= event.FnID(count); id++ {
		name := sym.Name(id)
		dst = binary.LittleEndian.AppendUint32(dst, uint32(len(name)))
		dst = append(dst, name...)
	}
	return dst
}

// checkSymtab validates an appendSymtab payload without decoding it.
func checkSymtab(payload []byte) error {
	if len(payload) < 4 {
		return fmt.Errorf("%w: symtab count", ErrCorrupt)
	}
	count := binary.LittleEndian.Uint32(payload)
	rest := payload[4:]
	for i := uint32(0); i < count; i++ {
		if len(rest) < 4 {
			return fmt.Errorf("%w: symtab entry", ErrCorrupt)
		}
		n := binary.LittleEndian.Uint32(rest)
		rest = rest[4:]
		if uint64(n) > uint64(len(rest)) {
			return fmt.Errorf("%w: symtab name", ErrCorrupt)
		}
		rest = rest[n:]
	}
	if len(rest) != 0 {
		return fmt.Errorf("%w: symtab trailing bytes", ErrCorrupt)
	}
	return nil
}

// decodeSymtab parses an appendSymtab payload. The names share one
// string: a symbol table is built once per replay, and its names live
// as long as it does.
func decodeSymtab(payload []byte) (*event.Symtab, error) {
	if err := checkSymtab(payload); err != nil {
		return nil, err
	}
	count := binary.LittleEndian.Uint32(payload)
	all := string(payload)
	sym := event.NewSymtabCap(int(count))
	for i, off := uint32(0), 4; i < count; i++ {
		n := int(binary.LittleEndian.Uint32(payload[off:]))
		off += 4
		sym.Intern(all[off : off+n])
		off += n
	}
	return sym, nil
}

func decodeRecord(b []byte) event.Event {
	return event.Event{
		Type:  event.Type(b[0]),
		Fn:    event.FnID(binary.LittleEndian.Uint32(b[1:])),
		Addr:  binary.LittleEndian.Uint64(b[5:]),
		Value: binary.LittleEndian.Uint64(b[13:]),
		Old:   binary.LittleEndian.Uint64(b[21:]),
		Size:  binary.LittleEndian.Uint64(b[29:]),
	}
}

// Stats describes the physical shape of a replayed trace: which
// format it was written in and what the bytes cost per event — the
// numbers the replay CLI surfaces and the trace-size regression gate
// checks. Populated via ReadOptions.Stats; identical between the
// synchronous reader and the decode pipeline, and in salvage mode
// covers the recovered prefix.
type Stats struct {
	// Version is the format version from the trace header.
	Version uint32
	// TotalBytes is the size of the trace file.
	TotalBytes uint64
	// Events is the number of events delivered to the sink.
	Events uint64
	// EventFrames counts decoded event frames (framed formats only).
	EventFrames uint64
	// CompressedFrames counts v3 event frames stored flate-compressed.
	CompressedFrames uint64
	// StoredEventBytes sums the on-disk payload bytes of event frames.
	StoredEventBytes uint64
	// RawEventBytes sums what those payloads occupy uncompressed —
	// equal to StoredEventBytes when no frame is compressed.
	RawEventBytes uint64
	// DecodeWorkers is the decode parallelism replay actually used: 0
	// for the synchronous reader, n ≥ 1 for the scanner + n-worker
	// pipeline. The only Stats field that may legitimately differ
	// between reader configurations; all trace-shape fields above are
	// identical at any worker count.
	DecodeWorkers int
	// ScannerStalls counts the times the pipeline's framing scanner had
	// a frame ready but no recycled buffer to scan it into — the
	// consumer side (decode + sink) is the bottleneck. Pipeline only.
	ScannerStalls uint64
	// ResequencerStalls counts decoded frames that arrived at the
	// resequencer out of order and had to wait for an earlier frame —
	// decode-worker skew; large values with an idle sink mean one slow
	// frame (or worker) is gating delivery. Pipeline only.
	ResequencerStalls uint64

	// IngestWorkers, SpeculationHits, SpeculationFallbacks,
	// PreResolveStalls and MutatorStalls are the counters of the
	// retired speculative ingest stage. heapmd.ReplayTraceWith sets
	// IngestWorkers to 1; the other four are always 0.
	//
	// Deprecated: ingestion is always serial.
	IngestWorkers        int
	SpeculationHits      uint64
	SpeculationFallbacks uint64
	PreResolveStalls     uint64
	MutatorStalls        uint64
}

// shape strips the reader-configuration fields, leaving only the
// trace-shape accounting that must be identical between the
// synchronous reader and the pipeline at any worker count — what
// equivalence tests compare.
func (s *Stats) shape() Stats {
	c := *s
	c.DecodeWorkers = 0
	c.ScannerStalls = 0
	c.ResequencerStalls = 0
	return c
}

// BytesPerEvent is the trace's whole-file storage cost per event.
func (s *Stats) BytesPerEvent() float64 {
	if s.Events == 0 {
		return 0
	}
	return float64(s.TotalBytes) / float64(s.Events)
}

// CompressionRatio is raw-over-stored for the event payloads: 1 when
// nothing is compressed, >1 when the per-frame flate pass saved space.
func (s *Stats) CompressionRatio() float64 {
	if s.StoredEventBytes == 0 {
		return 1
	}
	return float64(s.RawEventBytes) / float64(s.StoredEventBytes)
}

// DefaultDecodeWorkers is the recommended ReadOptions.DecodeWorkers
// for this host: one decode worker per usable core on a multi-core
// box, and the synchronous reader (0) on a single core, where the
// pipeline only adds channel overhead for decode work the lone core
// must do anyway.
func DefaultDecodeWorkers() int {
	if n := runtime.GOMAXPROCS(0); n > 1 {
		return n
	}
	return 0
}

// ReadOptions configure the replay fast path; the zero value is the
// default synchronous reader.
type ReadOptions struct {
	// DecodeWorkers sets the frame-decode parallelism for framed
	// (v2/v3) traces; v1 traces (unframed) always read synchronously.
	//
	//	0   synchronous reader (decode inline with the sink)
	//	n≥1 pipeline: a framing scanner fans whole frames to n workers
	//	    (CRC + inflate + columnar decode into recycled buffers)
	//	    and an in-order resequencer feeds the sink; at 1 the lone
	//	    worker decodes frame N+1 while the sink consumes frame N
	//
	// Delivery order, salvage behavior, and error semantics are
	// identical to the synchronous reader at any setting — the lowest
	// damaged frame wins, reported at the same offsets. Negative
	// values read synchronously. See DefaultDecodeWorkers for the
	// host heuristic; sched.ParseDecodeWorkers normalizes CLI values.
	DecodeWorkers int
	// Stats, when non-nil, is filled with the trace's format and size
	// accounting as replay proceeds.
	Stats *Stats
}

// Replay reads a trace (either format version) and delivers every
// event to sink in order. It returns the reconstructed symbol table
// and the number of events replayed. Replay is strict: any damage
// yields ErrCorrupt (events before the damage may already have been
// delivered). Use SalvageWith to recover the valid prefix of a damaged
// trace instead.
//
// Events are delivered a frame at a time through event.EmitAll: a sink
// implementing event.BatchSink receives each frame's records as one
// borrowed []event.Event batch instead of one Emit call per record.
// The frame-decode loop reuses its payload and batch buffers, so
// steady-state replay allocates nothing per frame.
func Replay(r io.ReadSeeker, sink event.Sink) (*event.Symtab, uint64, error) {
	return ReplayWith(r, sink, ReadOptions{})
}

// ReplayWith is Replay with control over the reader (see ReadOptions).
func ReplayWith(r io.ReadSeeker, sink event.Sink, opts ReadOptions) (*event.Symtab, uint64, error) {
	sym, n, _, err := replay(r, sink, false, opts)
	return sym, n, err
}

// SalvageWith reads a possibly-damaged trace, delivering every event
// from the longest valid prefix to sink, and reports what was
// recovered and what was lost. It fails only when not even the 8-byte
// header survives (nothing to salvage) or the version is unknown. opts
// controls the reader as for ReplayWith.
func SalvageWith(r io.ReadSeeker, sink event.Sink, opts ReadOptions) (*event.Symtab, *SalvageInfo, error) {
	sym, _, info, err := replay(r, sink, true, opts)
	return sym, info, err
}

func replay(r io.ReadSeeker, sink event.Sink, salvage bool, opts ReadOptions) (*event.Symtab, uint64, *SalvageInfo, error) {
	size, err := r.Seek(0, io.SeekEnd)
	if err != nil {
		return nil, 0, nil, err
	}
	if _, err := r.Seek(0, io.SeekStart); err != nil {
		return nil, 0, nil, err
	}
	var hdr [8]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return nil, 0, nil, fmt.Errorf("%w: short header", ErrCorrupt)
	}
	if [4]byte(hdr[:4]) != headerMagic {
		return nil, 0, nil, fmt.Errorf("%w: bad magic", ErrCorrupt)
	}
	v := binary.LittleEndian.Uint32(hdr[4:])
	if opts.Stats != nil {
		*opts.Stats = Stats{Version: v, TotalBytes: uint64(size)}
	}
	switch v {
	case VersionV1:
		return replayV1(r, sink, size, salvage, opts)
	case VersionV2, VersionV3:
		return replayFramed(r, sink, v, size, salvage, opts)
	default:
		if opts.Stats != nil {
			opts.Stats.Version = 0
		}
		return nil, 0, nil, fmt.Errorf("trace: unsupported version %d", v)
	}
}

// frameBuf is the reusable scratch storage for one decoded frame: the
// raw payload bytes and, for event frames, the decoded records. Both
// are recycled across frames, so steady-state frame decoding performs
// no allocation.
type frameBuf struct {
	payload []byte
	events  event.Batch
}

// decodeState is everything one replay of a framed trace decodes
// with: the frame reader and its buffered reader, the last symtab
// checkpoint, the payload decoders, the frame buffers and the
// pipeline's channels and resequencing ring (parallel.go). A full frame
// decodes into DefaultBatchRecords events (160 KiB) and a compressed
// one through about 200 KiB of inflate scratch, so a replay takes a
// whole state from decodeStates and hands it back once no stage can
// touch it any more. A state grows to the largest worker count it has
// served, so replays that alternate worker counts share one state
// without rebuilding it.
type decodeState struct {
	fr   frameReader
	last []byte            // the last valid symtab checkpoint
	decs []*payloadDecoder // one per worker, one for the synchronous reader
	bufs []*frameBuf       // one per frame in flight

	// The pipeline of this replay: workers is 0 on the synchronous
	// reader, which uses only fr, decs[0] and bufs[0].
	workers       int
	depth         int // frames in flight
	free          chan *frameBuf
	work          chan scanJob
	results       chan frameMsg
	ring          []frameMsg
	have          []bool
	nextSeq       uint64
	stop          chan struct{}
	wg            sync.WaitGroup
	scannerStalls atomic.Uint64
	stats         *Stats
}

// decodeStates holds the states of finished replays for the next ones.
var decodeStates arena.FreeList[decodeState]

// openDecodeState takes a state for a replay of the framed region of
// a trace whose 8-byte header r has consumed, and starts the decode
// pipeline when workers ≥ 1. close hands the state back.
func openDecodeState(r io.Reader, version uint32, size int64, workers int, stats *Stats) *decodeState {
	s := decodeStates.Get()
	if s == nil {
		s = &decodeState{fr: frameReader{br: bufio.NewReaderSize(nil, 1<<16)}}
	}
	s.fr.br.Reset(r)
	s.fr = frameReader{br: s.fr.br, offset: 8, size: size}
	s.last = s.last[:0]
	for len(s.decs) < max(workers, 1) {
		s.decs = append(s.decs, new(payloadDecoder))
	}
	for _, d := range s.decs {
		d.version = version
	}
	s.workers, s.stats = workers, stats
	if workers >= 1 {
		s.start()
	} else if len(s.bufs) == 0 {
		s.bufs = append(s.bufs, new(frameBuf))
	}
	return s
}

// next returns the next frame in sequence order.
func (s *decodeState) next() frameMsg {
	if s.workers == 0 {
		return s.decs[0].decodeJob(s.fr.readFrame(s.bufs[0]))
	}
	return s.resequence()
}

// release hands a delivered frame's buffer back to the scanner.
func (s *decodeState) release(b *frameBuf) {
	if s.workers == 0 || b == nil {
		return
	}
	select {
	case s.free <- b:
	case <-s.stop:
	}
}

// close stops the pipeline, if any, and keeps the state for the next
// replay, without its reference to this replay's source.
func (s *decodeState) close() {
	if s.workers >= 1 {
		s.halt()
	}
	s.fr.br.Reset(nil)
	s.stats = nil
	decodeStates.Put(s)
}

// frameMsg is one fully-validated, fully-decoded frame (or the reason
// decoding stopped). Exactly one terminal message ends every stream:
// either err != nil, or kind == frameEnd.
type frameMsg struct {
	kind       byte
	seq        uint64        // frame sequence number (parallel resequencing)
	events     []event.Event // frameEvents: decoded records (alias buf.events)
	declared   uint64        // frameEnd: writer's event count
	end        int64         // offset consumed through the last fully-valid frame
	buf        *frameBuf     // must be released by the consumer once delivered
	err        error         // corruption, message-compatible with strict mode
	stored     int           // frameEvents, frameSymtab: on-disk payload bytes, buf.payload[:stored]
	raw        int           // frameEvents: payload bytes before compression
	compressed bool          // frameEvents: body was stored flate-compressed
}

// payloadDecoder turns one CRC-valid frame payload into a frameMsg.
// It is the version-specific half of frame decoding, shared by the
// synchronous reader and by each pipeline decode worker; its decomp
// and inflate state are reused across frames, so one instance belongs
// to exactly one goroutine.
type payloadDecoder struct {
	version uint32
	decomp  []byte   // v3: decompressed body scratch, reused per frame
	inf     inflater // v3: reusable inflate state (inflate.go)
}

// decodePayload validates and decodes payload into msg, filling
// msg.kind and the kind-specific fields, or msg.err. Event records
// decode into buf.events; the caller owns offset bookkeeping.
func (d *payloadDecoder) decodePayload(kind byte, payload []byte, buf *frameBuf, msg *frameMsg) {
	msg.kind = kind
	switch kind {
	case frameEvents:
		if d.version == VersionV3 {
			if err := d.decodeEventsV3(payload, buf, msg); err != nil {
				msg.err = err
			}
			return
		}
		if len(payload)%recordSize != 0 {
			msg.err = errors.New("ragged event frame")
			return
		}
		n := len(payload) / recordSize
		evs := buf.events.Grow(n)
		for i := 0; i < n; i++ {
			evs[i] = decodeRecord(payload[i*recordSize : (i+1)*recordSize])
		}
		msg.events = evs
		msg.stored = len(payload)
		msg.raw = len(payload)
	case frameSymtab:
		if checkSymtab(payload) != nil {
			msg.err = errors.New("bad symtab checkpoint")
			return
		}
		msg.stored = len(payload)
	case frameEnd:
		if len(payload) != 8 {
			msg.err = errors.New("bad end frame")
			return
		}
		msg.declared = binary.LittleEndian.Uint64(payload)
	default:
		msg.err = fmt.Errorf("unknown frame kind %d", kind)
	}
}

// scanJob is one frame read whole but not yet verified. payload
// aliases buf.payload.
type scanJob struct {
	seq     uint64
	kind    byte
	wantCRC uint32
	payload []byte
	buf     *frameBuf
	start   int64 // file offset of the frame header
	end     int64 // file offset just past the frame
	err     error // envelope damage: the frame could not be read whole
}

// frameReader walks the length-delimited frame envelope of a v2/v3
// trace. Its readFrame is the one framing routine: the synchronous
// reader and the pipeline's scanner both call it, so both meet the
// same envelope errors at the same offsets.
type frameReader struct {
	br     *bufio.Reader
	offset int64 // file offset of the next frame header
	size   int64
	seq    uint64
	hdr    [frameHeaderSize]byte // scratch; a local would escape via io.ReadFull
}

// readFrame reads the next frame's header and payload into buf,
// checking only the length bound — the CRC and the payload structure
// are decodeJob's. A frame that cannot be read whole comes back with
// err set: a truncated header (or, at a clean EOF on a frame boundary,
// a missing end frame), an implausible length, or a truncated payload.
func (fr *frameReader) readFrame(buf *frameBuf) scanJob {
	job := scanJob{seq: fr.seq, buf: buf, start: fr.offset}
	if _, err := io.ReadFull(fr.br, fr.hdr[:]); err != nil {
		if err == io.EOF && fr.offset == fr.size {
			// Clean EOF at a frame boundary but no end frame: the
			// writer was killed between batches.
			job.err = errors.New("missing end frame")
		} else {
			job.err = errors.New("truncated frame header")
		}
		return job
	}
	job.kind = fr.hdr[0]
	payloadLen := binary.LittleEndian.Uint32(fr.hdr[1:])
	job.wantCRC = binary.LittleEndian.Uint32(fr.hdr[5:])
	if payloadLen > maxFramePayload {
		job.err = fmt.Errorf("implausible frame length %d", payloadLen)
		return job
	}
	if cap(buf.payload) < int(payloadLen) {
		// Grow geometrically: v3 frame payloads vary in size (delta
		// content determines length), and exact-fit growth would
		// reallocate on every slightly-larger frame.
		buf.payload = make([]byte, max(int(payloadLen), 2*cap(buf.payload)))
	}
	job.payload = buf.payload[:payloadLen]
	if _, err := io.ReadFull(fr.br, job.payload); err != nil {
		job.err = errors.New("truncated frame payload")
		return job
	}
	job.end = fr.offset + int64(frameHeaderSize) + int64(payloadLen)
	fr.offset = job.end
	fr.seq++
	return job
}

// decodeJob CRC-checks and decodes one read frame. The message ends at
// the frame's end offset when the frame is intact, and at its start —
// the end of the last fully-valid frame — when it is not, so the first
// bad frame is reported at the same offset by every reader.
func (d *payloadDecoder) decodeJob(job scanJob) frameMsg {
	msg := frameMsg{seq: job.seq, buf: job.buf, end: job.start, err: job.err}
	if msg.err != nil {
		return msg
	}
	if crc32.Checksum(job.payload, crcTable) != job.wantCRC {
		msg.err = errors.New("frame checksum mismatch")
		return msg
	}
	d.decodePayload(job.kind, job.payload, job.buf, &msg)
	if msg.err == nil {
		msg.end = job.end
	}
	return msg
}

// v3 event-frame payload prefix: flags u8 | count u32.
const v3EventHeaderSize = 5

// Wire values of the v3 event-frame flags byte: how the frame body is
// stored. The writer sets codecFlate only when the compressed body
// came out smaller, so the value is a pure storage decision — replay
// output is identical either way.
const (
	codecRaw   byte = 0
	codecFlate byte = 1
)

// decodeEventsV3 decodes a CRC-valid v3 event-frame payload into the
// frame's reusable batch. The CRC already vouches for the bytes, so
// any structural failure here (unknown codec, lying count, ragged
// columns) is writer-side damage and reported as corruption.
func (d *payloadDecoder) decodeEventsV3(payload []byte, buf *frameBuf, msg *frameMsg) error {
	if len(payload) < v3EventHeaderSize {
		return errors.New("short event frame")
	}
	flags := payload[0]
	count := binary.LittleEndian.Uint32(payload[1:])
	if count > maxFrameRecords {
		return fmt.Errorf("implausible event count %d", count)
	}
	body := payload[v3EventHeaderSize:]
	msg.stored = len(payload)
	msg.raw = len(payload)
	if flags != codecRaw {
		if flags != codecFlate {
			return fmt.Errorf("unknown event frame codec %d", flags)
		}
		// A body that inflates past what count records can encode to
		// is corrupt: the bound caps what a damaged count can make
		// replay allocate.
		max := int(count)*maxEncodedRecord + v3EventHeaderSize
		if cap(d.decomp) < max {
			d.decomp = make([]byte, max)
		}
		n, err := d.inf.decompress(d.decomp[:max], body)
		if err != nil {
			return errors.New("bad compressed event frame")
		}
		body = d.decomp[:n]
		msg.raw = v3EventHeaderSize + len(body)
		msg.compressed = true
	}
	evs, err := decodeColumns(body, int(count), buf.events.Grow(int(count)))
	if err != nil {
		return err
	}
	msg.events = evs
	return nil
}

// replayFramed walks the frame sequence of a v2 or v3 trace — the
// envelope is shared, only the event-frame payload decoding differs.
// Strict mode demands every frame intact plus a matching end frame;
// salvage mode stops at the first damaged frame and keeps everything
// before it. With opts.DecodeWorkers ≥ 1 frames come from the decode
// pipeline (parallel.go), otherwise they are read and decoded inline.
func replayFramed(r io.ReadSeeker, sink event.Sink, version uint32, size int64, salvage bool, opts ReadOptions) (*event.Symtab, uint64, *SalvageInfo, error) {
	workers := max(opts.DecodeWorkers, 0)
	if opts.Stats != nil {
		opts.Stats.DecodeWorkers = workers
	}
	ds := openDecodeState(r, version, size, workers, opts.Stats)
	defer ds.close()

	// Workers only validate symtab checkpoints; the last valid one is
	// kept as bytes and decoded once, into the symbol table the replay
	// returns.
	symtab := func() *event.Symtab {
		if len(ds.last) == 0 {
			return event.NewSymtab()
		}
		sym, _ := decodeSymtab(ds.last)
		return sym
	}

	info := &SalvageInfo{Truncated: true}
	var replayed uint64
	offset := int64(8) // consumed through the last fully-valid frame
	var declared uint64
	sawEnd := false

	corrupt := func(format string, args ...any) (*event.Symtab, uint64, *SalvageInfo, error) {
		if opts.Stats != nil {
			opts.Stats.Events = replayed
		}
		if salvage {
			info.EventsRecovered = replayed
			info.BytesDropped = uint64(size - offset)
			return symtab(), replayed, info, nil
		}
		return symtab(), replayed, nil, fmt.Errorf("%w: "+format, append([]any{ErrCorrupt}, args...)...)
	}

	for !sawEnd {
		msg := ds.next()
		offset = msg.end
		if msg.err != nil {
			return corrupt("%s", msg.err)
		}
		switch msg.kind {
		case frameEvents:
			event.EmitAll(sink, msg.events)
			replayed += uint64(len(msg.events))
			if st := opts.Stats; st != nil {
				st.EventFrames++
				st.StoredEventBytes += uint64(msg.stored)
				st.RawEventBytes += uint64(msg.raw)
				if msg.compressed {
					st.CompressedFrames++
				}
			}
		case frameSymtab:
			ds.last = append(ds.last[:0], msg.buf.payload[:msg.stored]...)
		case frameEnd:
			declared = msg.declared
			sawEnd = true
		}
		ds.release(msg.buf)
	}
	if opts.Stats != nil {
		opts.Stats.Events = replayed
	}
	if declared != replayed {
		return corrupt("end frame declares %d events, replayed %d", declared, replayed)
	}
	if offset != size {
		// Bytes after a valid end frame: a concatenation accident or
		// scribbling. The prefix through the end frame is intact.
		if salvage {
			info.Truncated = false
			info.EventsRecovered = replayed
			info.BytesDropped = uint64(size - offset)
			return symtab(), replayed, info, nil
		}
		return symtab(), replayed, nil, fmt.Errorf("%w: %d trailing bytes after end frame", ErrCorrupt, size-offset)
	}
	info.Truncated = false
	info.EventsRecovered = replayed
	return symtab(), replayed, info, nil
}

// replayV1 reads the legacy trailer-based format. Strict mode is the
// original seed behaviour. Salvage mode falls back to a prefix scan
// when the trailer is unusable: with no framing or checksums in v1,
// every complete 37-byte record after the header is reinterpreted as
// an event and the symbol table is lost.
func replayV1(r io.ReadSeeker, sink event.Sink, size int64, salvage bool, opts ReadOptions) (*event.Symtab, uint64, *SalvageInfo, error) {
	v1Stats := func(n uint64) {
		if opts.Stats != nil {
			opts.Stats.Events = n
			opts.Stats.StoredEventBytes = n * recordSize
			opts.Stats.RawEventBytes = n * recordSize
		}
	}
	sym, nEvents, symStart, err := readV1Trailer(r, size)
	if err != nil {
		if !salvage {
			return nil, 0, nil, err
		}
		s, n, info, err := salvageV1Prefix(r, sink, size)
		v1Stats(n)
		return s, n, info, err
	}
	// Replay events.
	if _, err := r.Seek(8, io.SeekStart); err != nil {
		return nil, 0, nil, err
	}
	er := bufio.NewReaderSize(io.LimitReader(r, int64(nEvents)*recordSize), 1<<16)
	var rec [recordSize]byte
	for i := uint64(0); i < nEvents; i++ {
		if _, err := io.ReadFull(er, rec[:]); err != nil {
			v1Stats(i)
			if salvage {
				return sym, i, &SalvageInfo{
					EventsRecovered: i,
					BytesDropped:    uint64(symStart - 8 - int64(i)*recordSize),
					Truncated:       true,
				}, nil
			}
			return sym, i, nil, fmt.Errorf("%w: truncated events", ErrCorrupt)
		}
		sink.Emit(decodeRecord(rec[:]))
	}
	v1Stats(nEvents)
	return sym, nEvents, &SalvageInfo{EventsRecovered: nEvents}, nil
}

// readV1Trailer locates and validates the v1 trailer, returning the
// symbol table, the declared event count, and the symtab start offset.
func readV1Trailer(r io.ReadSeeker, size int64) (*event.Symtab, uint64, int64, error) {
	end := size - 20
	if end < 8 {
		return nil, 0, 0, fmt.Errorf("%w: missing trailer", ErrCorrupt)
	}
	if _, err := r.Seek(end, io.SeekStart); err != nil {
		return nil, 0, 0, fmt.Errorf("%w: missing trailer", ErrCorrupt)
	}
	var tail [20]byte
	if _, err := io.ReadFull(r, tail[:]); err != nil {
		return nil, 0, 0, fmt.Errorf("%w: short trailer", ErrCorrupt)
	}
	if [4]byte(tail[16:]) != trailerMagic {
		return nil, 0, 0, fmt.Errorf("%w: bad trailer magic", ErrCorrupt)
	}
	symLen := binary.LittleEndian.Uint64(tail[0:])
	nEvents := binary.LittleEndian.Uint64(tail[8:])
	if symLen > uint64(end) {
		return nil, 0, 0, fmt.Errorf("%w: implausible symtab length", ErrCorrupt)
	}
	symStart := end - int64(symLen)
	if symStart < 8 {
		return nil, 0, 0, fmt.Errorf("%w: implausible symtab length", ErrCorrupt)
	}
	if nEvents > uint64(symStart-8)/recordSize {
		return nil, 0, 0, fmt.Errorf("%w: implausible event count", ErrCorrupt)
	}
	if int64(8)+int64(nEvents)*recordSize != symStart {
		return nil, 0, 0, fmt.Errorf("%w: event region size mismatch", ErrCorrupt)
	}
	// Read symbol table.
	if _, err := r.Seek(symStart, io.SeekStart); err != nil {
		return nil, 0, 0, err
	}
	payload := make([]byte, symLen)
	if _, err := io.ReadFull(r, payload); err != nil {
		return nil, 0, 0, fmt.Errorf("%w: short symtab", ErrCorrupt)
	}
	sym, err := decodeSymtab(payload)
	if err != nil {
		return nil, 0, 0, err
	}
	return sym, nEvents, symStart, nil
}

// salvageV1Prefix recovers what it can from a v1 trace whose trailer
// is gone: every complete record after the header.
func salvageV1Prefix(r io.ReadSeeker, sink event.Sink, size int64) (*event.Symtab, uint64, *SalvageInfo, error) {
	if _, err := r.Seek(8, io.SeekStart); err != nil {
		return nil, 0, nil, err
	}
	body := size - 8
	n := uint64(body / recordSize)
	er := bufio.NewReaderSize(io.LimitReader(r, int64(n)*recordSize), 1<<16)
	var rec [recordSize]byte
	for i := uint64(0); i < n; i++ {
		if _, err := io.ReadFull(er, rec[:]); err != nil {
			return event.NewSymtab(), i, &SalvageInfo{
				EventsRecovered: i,
				BytesDropped:    uint64(body - int64(i)*recordSize),
				Truncated:       true,
			}, nil
		}
		sink.Emit(decodeRecord(rec[:]))
	}
	return event.NewSymtab(), n, &SalvageInfo{
		EventsRecovered: n,
		BytesDropped:    uint64(body % recordSize),
		Truncated:       true,
	}, nil
}
