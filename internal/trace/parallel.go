// Parallel frame-decode pipeline: the DecodeWorkers ≥ 1 read path.
//
// The v3 format was built for this — every frame is self-contained
// (CRC32C envelope, per-frame delta-chain restart, per-frame codec
// byte), so frames can be checked and decoded in any order as long as
// delivery is resequenced. The pipeline has three stages:
//
//	scanner      one goroutine walks the length-delimited envelope
//	             (frameReader.readFrame), reading each frame's header +
//	             payload into a recycled frameBuf (the only stage
//	             touching the file)
//	workers      n goroutines CRC-check the payload and decode it
//	             (payloadDecoder.decodeJob: inflate + columnar decode
//	             for v3, fixed-width records for v2, symtab/end parsing)
//	             into the frameBuf's batch
//	resequencer  the consumer (replayFramed's loop) reorders decoded
//	             frames by sequence number and feeds the sink
//
// Ownership and ordering invariants:
//
//   - A frameBuf is owned by exactly one stage at a time and travels
//     free → scanner → work → worker → results → consumer → free.
//     The consumer must finish event.EmitAll before releasing (the
//     frame's events alias the buf's batch storage).
//   - Frame sequence numbers are dense. With depth buffers, every
//     in-flight frame lies in [nextSeq, nextSeq+depth-1], so a ring of
//     depth slots resequences without allocation and the stages can
//     never deadlock: the frame the consumer waits for always ends up
//     in the results channel, whose capacity admits every buffer.
//   - Error semantics equal the synchronous reader's "first bad frame
//     wins" by construction: both read frames with readFrame and
//     decode them with decodeJob, and the consumer inspects frames
//     strictly in sequence order, so a decode failure on frame k
//     surfaces if and only if frames < k were intact, with the same
//     error and the same end offset (the start of frame k). Scanner
//     failures (truncated header/payload, implausible length, missing
//     end frame) take the sequence number of the frame being scanned,
//     which likewise only surfaces after every earlier frame decoded
//     cleanly.
//   - Exactly one terminal message reaches the consumer: a scan error
//     or the end frame (the scanner stops after dispatching it). The
//     consumer may stop earlier — on the first bad frame — and then
//     halt() closes the stop channel; every stage's channel operation
//     selects on stop, so all goroutines exit promptly and halt()
//     can wait for them (a scanner mid-read finishes that one read
//     first, so the caller may close the file after replay returns).
package trace

import (
	"io"
	"sync"
	"sync/atomic"
)

// decodePipeline wires the stages together. The consumer drives it
// through next/release and must call halt when done (normally or not).
type decodePipeline struct {
	free    chan *frameBuf
	work    chan scanJob
	results chan frameMsg
	stop    chan struct{}
	wg      sync.WaitGroup

	depth   int
	bufs    []*frameBuf // every buffer in flight, put back by halt
	ring    []frameMsg
	have    []bool
	nextSeq uint64

	scannerStalls atomic.Uint64
	stats         *Stats
}

// newDecodePipeline starts the scanner and workers ≥ 1 decode workers
// over the framed region of a v2/v3 trace. With one worker the scanner
// reads ahead while the worker decodes frame N+1 and the sink consumes
// frame N.
func newDecodePipeline(r io.Reader, version uint32, size int64, workers int, stats *Stats) *decodePipeline {
	// Depth bounds both memory (each in-flight frame owns a frameBuf)
	// and how far the scanner runs ahead: enough for every worker to
	// be busy while the resequencer holds a full window and the
	// scanner keeps one frame in hand.
	depth := 2*workers + 2
	p := &decodePipeline{
		free:    make(chan *frameBuf, depth),
		work:    make(chan scanJob, depth),
		results: make(chan frameMsg, depth),
		stop:    make(chan struct{}),
		depth:   depth,
		ring:    make([]frameMsg, depth),
		have:    make([]bool, depth),
		stats:   stats,
	}
	p.bufs = make([]*frameBuf, depth)
	for i := range p.bufs {
		p.bufs[i] = getFrameBuf()
		p.free <- p.bufs[i]
	}
	p.wg.Add(1 + workers)
	go p.scan(newFrameReader(r, size))
	for i := 0; i < workers; i++ {
		go p.worker(version)
	}
	return p
}

// scan walks frame envelopes and fans whole frames to the workers.
// It owns all file I/O and performs no validation beyond the length
// bound — CRC and payload structure are the workers' job. A frame with
// an envelope error is dispatched like any other (decodeJob passes the
// error through) and ends the scan.
func (p *decodePipeline) scan(fr *frameReader) {
	defer p.wg.Done()
	defer close(p.work)
	defer fr.release()
	for {
		var buf *frameBuf
		select {
		case buf = <-p.free:
		default:
			// A frame is ready to scan but every buffer is downstream:
			// decode or the sink is the bottleneck.
			p.scannerStalls.Add(1)
			select {
			case buf = <-p.free:
			case <-p.stop:
				return
			}
		}
		job := fr.readFrame(buf)
		select {
		case p.work <- job:
		case <-p.stop:
			return
		}
		if job.err != nil || job.kind == frameEnd {
			// Terminal frame dispatched; its decoded message (or error)
			// ends the stream. Bytes past it are the consumer's
			// trailing-garbage check, not ours to read.
			return
		}
	}
}

// worker CRC-checks and decodes scanned frames. Each worker owns one
// recycled payloadDecoder, so inflate state and decompression scratch
// are O(workers), reused across all frames the worker touches and,
// through the decoder list, across replays.
func (p *decodePipeline) worker(version uint32) {
	defer p.wg.Done()
	dec := getDecoder(version)
	defer putDecoder(dec)
	for job := range p.work {
		select {
		case p.results <- dec.decodeJob(job):
		case <-p.stop:
			return
		}
	}
}

// next returns the frame with the next sequence number, buffering
// out-of-order arrivals in the ring.
func (p *decodePipeline) next() frameMsg {
	slot := p.nextSeq % uint64(p.depth)
	for !p.have[slot] {
		m := <-p.results
		if m.seq != p.nextSeq && p.stats != nil {
			// Arrived ahead of an earlier frame still being decoded:
			// worker skew is gating in-order delivery.
			p.stats.ResequencerStalls++
		}
		s := m.seq % uint64(p.depth)
		p.ring[s] = m
		p.have[s] = true
	}
	m := p.ring[slot]
	p.ring[slot] = frameMsg{}
	p.have[slot] = false
	p.nextSeq++
	return m
}

// release returns a frameBuf to the scanner.
func (p *decodePipeline) release(b *frameBuf) {
	if b == nil {
		return
	}
	select {
	case p.free <- b:
	case <-p.stop:
	}
}

// halt tears the pipeline down and waits for every stage to exit,
// then puts the frame buffers back and folds the scanner's stall count
// into Stats. Safe to call on any consumer exit path, clean or
// corrupt, once the consumer is done with the last frame's events.
func (p *decodePipeline) halt() {
	close(p.stop)
	p.wg.Wait()
	for _, b := range p.bufs {
		putFrameBuf(b)
	}
	if p.stats != nil {
		p.stats.ScannerStalls = p.scannerStalls.Load()
	}
}
