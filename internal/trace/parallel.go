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
// The stages run on a replay's decodeState (trace.go): its frame
// buffers, decoders, channels and ring are recycled across replays, so
// a warm replay starts the pipeline without allocating them.
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
//     consumer may stop earlier — on the first bad frame. Either way
//     halt() closes the replay's stop channel; every stage's channel
//     operation selects on stop, so all goroutines exit promptly and
//     halt() can wait for them (a scanner mid-read finishes that one
//     read first, so the caller may close the file after replay
//     returns). No stage closes a data channel: halt() drains them
//     instead, so the next replay reuses them empty.
package trace

// start starts the scanner and s.workers ≥ 1 decode workers over the
// framed region s.fr reads. With one worker the scanner reads ahead
// while the worker decodes frame N+1 and the sink consumes frame N.
func (s *decodeState) start() {
	// Depth bounds both memory (each in-flight frame owns a frameBuf)
	// and how far the scanner runs ahead: enough for every worker to
	// be busy while the resequencer holds a full window and the
	// scanner keeps one frame in hand. The channels and ring keep the
	// largest depth the state has served; a smaller one uses a prefix.
	s.depth = 2*s.workers + 2
	for len(s.bufs) < s.depth {
		s.bufs = append(s.bufs, new(frameBuf))
	}
	if cap(s.free) < s.depth {
		s.free = make(chan *frameBuf, s.depth)
		s.work = make(chan scanJob, s.depth)
		s.results = make(chan frameMsg, s.depth)
		s.ring = make([]frameMsg, s.depth)
		s.have = make([]bool, s.depth)
	}
	for _, b := range s.bufs[:s.depth] {
		s.free <- b
	}
	s.nextSeq = 0
	s.scannerStalls.Store(0)
	s.stop = make(chan struct{})
	s.wg.Add(1 + s.workers)
	go s.scan()
	for _, d := range s.decs[:s.workers] {
		go s.worker(d)
	}
}

// scan walks frame envelopes and fans whole frames to the workers.
// It owns all file I/O and performs no validation beyond the length
// bound — CRC and payload structure are the workers' job. A frame with
// an envelope error is dispatched like any other (decodeJob passes the
// error through) and ends the scan.
func (s *decodeState) scan() {
	defer s.wg.Done()
	for {
		var buf *frameBuf
		select {
		case buf = <-s.free:
		default:
			// A frame is ready to scan but every buffer is downstream:
			// decode or the sink is the bottleneck.
			s.scannerStalls.Add(1)
			select {
			case buf = <-s.free:
			case <-s.stop:
				return
			}
		}
		job := s.fr.readFrame(buf)
		select {
		case s.work <- job:
		case <-s.stop:
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

// worker CRC-checks and decodes scanned frames with dec, its own
// payloadDecoder, so inflate state and decompression scratch are
// O(workers) and reused across all frames the worker touches and,
// through the state, across replays.
func (s *decodeState) worker(dec *payloadDecoder) {
	defer s.wg.Done()
	for {
		select {
		case job := <-s.work:
			select {
			case s.results <- dec.decodeJob(job):
			case <-s.stop:
				return
			}
		case <-s.stop:
			return
		}
	}
}

// resequence returns the frame with the next sequence number,
// buffering out-of-order arrivals in the ring.
func (s *decodeState) resequence() frameMsg {
	slot := s.nextSeq % uint64(s.depth)
	for !s.have[slot] {
		m := <-s.results
		if m.seq != s.nextSeq && s.stats != nil {
			// Arrived ahead of an earlier frame still being decoded:
			// worker skew is gating in-order delivery.
			s.stats.ResequencerStalls++
		}
		k := m.seq % uint64(s.depth)
		s.ring[k] = m
		s.have[k] = true
	}
	m := s.ring[slot]
	s.ring[slot] = frameMsg{}
	s.have[slot] = false
	s.nextSeq++
	return m
}

// halt tears the pipeline down and waits for every stage to exit,
// then empties the channels and the ring for the next replay and folds
// the scanner's stall count into Stats. Safe to call on any consumer
// exit path, clean or corrupt, once the consumer is done with the last
// frame's events.
func (s *decodeState) halt() {
	close(s.stop)
	s.wg.Wait()
	for len(s.free) > 0 {
		<-s.free
	}
	for len(s.work) > 0 {
		<-s.work
	}
	for len(s.results) > 0 {
		<-s.results
	}
	clear(s.ring)
	clear(s.have)
	if s.stats != nil {
		s.stats.ScannerStalls = s.scannerStalls.Load()
	}
}
