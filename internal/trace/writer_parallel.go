// Parallel frame-encode pipeline: the WriterOptions.Workers ≥ 1 write
// path. Encoding a frame costs real CPU: columnar delta encoding plus
// optional per-frame flate.
//
// The caller's Emit path only appends events to the current batch.
// When a batch seals (DefaultBatchRecords events, or Flush/Close), it
// is handed to an encode pool; each worker owns its columnar scratch,
// compression buffer, and flate state, encodes the batch into a frame
// payload, computes the frame CRC, and passes the finished payload to
// a single writer goroutine that restores sequence order and performs
// all file I/O. This is the pigz shape: compression fans out, bytes
// land in order.
//
// Invariants:
//
//   - Output is byte-identical to the synchronous writer at any worker
//     count: encoding is deterministic per batch (each worker resets
//     its flate state per frame, exactly like the serial path), the
//     compress-only-if-smaller choice depends only on the batch, and
//     the writer goroutine resequences frames into submission order.
//     Symtab checkpoints and the end frame are encoded on the caller
//     at seal time and submitted with their own sequence numbers, so
//     interleaving matches the serial writer frame for frame.
//   - Every submission (event batch, control frame, flush/close
//     marker) first acquires a slot from a depth-sized window, and the
//     writer goroutine releases the slot when that sequence number is
//     written. In-flight sequence numbers therefore span less than
//     depth, a depth-sized resequencing ring suffices, and no stage
//     can deadlock: the payload-buffer pool also holds depth buffers,
//     and at most depth-1 are owned by frames other than the one the
//     writer is waiting for.
//   - Errors are sticky, like the synchronous writer's: the writer
//     goroutine records the first failure, keeps draining (so the
//     producer never blocks), and surfaces it on the next Flush or
//     Close acknowledgment.
//   - Close submits the final symtab, the end frame, and a close
//     marker, then waits for the marker's ack. The writer goroutine
//     processes the marker only after every earlier frame was written,
//     so by then the workers are idle and closing the work channel
//     tears everything down; close waits for all goroutines to exit.
package trace

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"hash/crc32"
	"sync"

	"heapmd/internal/event"
)

// Marker kinds processed by the writer goroutine. Real frame kinds
// occupy 1..3; markers sit far above and never hit the wire.
const (
	wireFlush byte = 0xfe
	wireClose byte = 0xff
)

// encJob is one sealed event batch awaiting encode.
type encJob struct {
	seq uint64
	evs *event.Batch
}

// wireMsg is one ordered unit for the writer goroutine: an encoded
// frame (payload + CRC), or a flush/close marker carrying an ack.
type wireMsg struct {
	seq     uint64
	kind    byte
	payload []byte
	scratch []byte // payload arena to recycle after writing (event frames)
	crc     uint32
	err     error
	ack     chan error
}

// encodePipeline runs the encode pool and the ordered writer.
// Submission methods are caller-side only; the Writer serializes them.
type encodePipeline struct {
	bw       *bufio.Writer
	compress bool

	slots     chan struct{} // sequence-window semaphore, cap depth
	freeBatch chan *event.Batch
	freeEnc   chan []byte
	work      chan encJob
	out       chan wireMsg
	wg        sync.WaitGroup

	seq uint64     // next sequence number to assign (caller side)
	ack chan error // reused for flush/close acknowledgments

	depth int
}

func newEncodePipeline(bw *bufio.Writer, compress bool, workers int) *encodePipeline {
	depth := 2*workers + 2
	p := &encodePipeline{
		bw:        bw,
		compress:  compress,
		slots:     make(chan struct{}, depth),
		freeBatch: make(chan *event.Batch, workers+2),
		freeEnc:   make(chan []byte, depth),
		work:      make(chan encJob, depth),
		out:       make(chan wireMsg, depth),
		ack:       make(chan error, 1),
		depth:     depth,
	}
	for i := 0; i < depth; i++ {
		p.slots <- struct{}{}
		p.freeEnc <- nil
	}
	for i := 0; i < workers+2; i++ {
		// Full-capacity batches up front: Emit never pays append
		// doubling, and the steady-state seal path allocates nothing.
		b := new(event.Batch)
		b.Grow(DefaultBatchRecords)
		b.Reset()
		p.freeBatch <- b
	}
	p.wg.Add(workers + 1)
	for i := 0; i < workers; i++ {
		go p.worker()
	}
	go p.writer()
	return p
}

// submitEvents hands a sealed batch to the encode pool and returns a
// recycled batch for the caller to keep filling.
func (p *encodePipeline) submitEvents(b *event.Batch) *event.Batch {
	<-p.slots
	p.work <- encJob{seq: p.seq, evs: b}
	p.seq++
	return <-p.freeBatch
}

// submitFrame sends a caller-encoded frame (symtab, end) in order.
func (p *encodePipeline) submitFrame(kind byte, payload []byte) {
	<-p.slots
	p.out <- wireMsg{seq: p.seq, kind: kind, payload: payload, crc: crc32.Checksum(payload, crcTable)}
	p.seq++
}

// barrier submits a flush or close marker and waits for the writer
// goroutine to reach it, returning the sticky error.
func (p *encodePipeline) barrier(kind byte) error {
	<-p.slots
	p.out <- wireMsg{seq: p.seq, kind: kind, ack: p.ack}
	p.seq++
	return <-p.ack
}

// flush waits until every submitted frame is written and the
// underlying writer is flushed.
func (p *encodePipeline) flush() error { return p.barrier(wireFlush) }

// close drains the pipeline, flushes, and tears down all goroutines.
// The pipeline is unusable afterwards.
func (p *encodePipeline) close() error {
	err := p.barrier(wireClose)
	close(p.work)
	p.wg.Wait()
	return err
}

// worker encodes sealed batches into frame payloads. Columnar scratch,
// compression buffer, and flate state are per-worker and reused, so
// steady-state encode allocates nothing.
func (p *encodePipeline) worker() {
	defer p.wg.Done()
	var enc []byte
	var comp bytes.Buffer
	var cdc flateCodec
	for job := range p.work {
		msg := wireMsg{seq: job.seq, kind: frameEvents}
		enc = encodeColumns(enc[:0], job.evs.Events())
		body := enc
		flags := codecRaw
		if p.compress {
			comp.Reset()
			if err := cdc.Compress(&comp, body); err != nil {
				msg.err = err
			} else if comp.Len() < len(body) {
				body = comp.Bytes()
				flags = cdc.ID()
			}
		}
		count := uint32(job.evs.Len())
		job.evs.Reset()
		p.freeBatch <- job.evs // pool-sized channel: never blocks
		if msg.err == nil {
			pb := <-p.freeEnc
			if pb == nil {
				pb = make([]byte, 0, 5+len(body))
			}
			pb = append(pb[:0], flags)
			var cnt [4]byte
			binary.LittleEndian.PutUint32(cnt[:], count)
			pb = append(pb, cnt[:]...)
			pb = append(pb, body...)
			msg.payload = pb
			msg.scratch = pb
			msg.crc = crc32.Checksum(pb, crcTable)
		}
		p.out <- msg
	}
}

// writer restores sequence order and performs all I/O. It records the
// first error and keeps draining so producers never block; it exits
// when the close marker's turn comes.
func (p *encodePipeline) writer() {
	defer p.wg.Done()
	ring := make([]wireMsg, p.depth)
	have := make([]bool, p.depth)
	var nextSeq uint64
	var hdr [frameHeaderSize]byte
	var err error
	for {
		m := <-p.out
		s := m.seq % uint64(p.depth)
		ring[s] = m
		have[s] = true
		for {
			slot := nextSeq % uint64(p.depth)
			if !have[slot] {
				break
			}
			m := ring[slot]
			ring[slot] = wireMsg{}
			have[slot] = false
			nextSeq++
			if err == nil && m.err != nil {
				err = m.err
			}
			switch m.kind {
			case wireFlush, wireClose:
				if err == nil {
					err = p.bw.Flush()
				}
				p.slots <- struct{}{}
				m.ack <- err
				if m.kind == wireClose {
					return
				}
			default:
				if err == nil {
					hdr[0] = m.kind
					binary.LittleEndian.PutUint32(hdr[1:], uint32(len(m.payload)))
					binary.LittleEndian.PutUint32(hdr[5:], m.crc)
					if _, werr := p.bw.Write(hdr[:]); werr != nil {
						err = werr
					} else if _, werr := p.bw.Write(m.payload); werr != nil {
						err = werr
					}
				}
				if m.scratch != nil {
					p.freeEnc <- m.scratch[:0]
				}
				p.slots <- struct{}{}
			}
		}
	}
}
