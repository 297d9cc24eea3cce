package main

import (
	"bytes"
	"fmt"
	"math"
	"runtime"
	"runtime/debug"
	rtmetrics "runtime/metrics"
	"sort"
	"syscall"
	"time"

	"heapmd"
	"heapmd/internal/logger"
	"heapmd/internal/metrics"
	"heapmd/internal/prog"
	"heapmd/internal/sched"
)

// config is one setting of the program's concurrency and metric-path
// knobs.
type config struct {
	Decode       int    `json:"decode_workers"`
	Ingest       int    `json:"ingest_workers"`
	Connectivity string `json:"connectivity"`
	SCC          string `json:"scc"`

	conn, scc heapmd.ConnectivityMode
}

// configs resolves the heapmd CLI's flag defaults on the machine it
// runs on (-decode-workers 0, -ingest-workers 0, -connectivity and -scc
// snapshot) and the serial configuration of the per-layer reps, where
// every layer runs on the calling goroutine.
func configs() (defaults, serial config, err error) {
	if defaults.Decode, err = sched.ParseDecodeWorkers(0); err != nil {
		return
	}
	if defaults.Ingest, err = sched.ParseIngestWorkers(0); err != nil {
		return
	}
	if defaults.conn, err = heapmd.ParseConnectivity("snapshot"); err != nil {
		return
	}
	if defaults.scc, err = heapmd.ParseSCC("snapshot"); err != nil {
		return
	}
	defaults.Connectivity, defaults.SCC = defaults.conn.String(), defaults.scc.String()
	serial = defaults
	serial.Decode, serial.Ingest = 0, 1
	return
}

// runner executes ops over a workload's items and checks each against
// its reference.
type runner struct {
	in        *inputs
	attempted int
	failed    int
	failures  []string // the first few failures, for the result file
}

// opOut is what one op produced.
type opOut struct {
	rep     *logger.Report
	signal  bool
	crashed bool
	stats   heapmd.TraceStats
}

// repStats describes one rep: one op on every item.
type repStats struct {
	ops, bares               []float64 // per-item op and paired bare wall time, ns
	opsCPU, baresCPU         []float64 // the same in process CPU time, ns
	opNS, bareNS             float64   // sums of ops and bares
	events, bareEvents       uint64
	allocBytes, allocObjects uint64
	gcCPU, totalCPU          float64
	stats                    heapmd.TraceStats // counters summed over the rep
	peakRSS                  float64           // MiB; set by the end-to-end reps
}

func (rs *repStats) eventsPerSec() float64 { return float64(rs.events) / (rs.opNS / 1e9) }

// rep runs one op per item at configuration c, traced when tr is
// non-nil, each paired with a bare run when bare is set.
func (r *runner) rep(c config, tr *tracer, bare bool) repStats {
	var rs repStats
	cpu0 := readRuntime(cpuSamples)
	for _, it := range r.in.items {
		var bareErr error
		if bare {
			d, dCPU, err := r.bare(it)
			rs.bares = append(rs.bares, d)
			rs.baresCPU = append(rs.baresCPU, dCPU)
			rs.bareNS += d
			rs.bareEvents += it.ref.events
			bareErr = err
		}
		a0 := readRuntime(allocSamples)
		c0, t0 := cpuTime(), time.Now()
		out, err := r.op(it, c, tr)
		d, dCPU := float64(time.Since(t0)), cpuTime()-c0
		a1 := readRuntime(allocSamples)
		if err == nil {
			err = bareErr
		}
		r.check(it, out, err)
		rs.ops = append(rs.ops, d)
		rs.opsCPU = append(rs.opsCPU, dCPU)
		rs.opNS += d
		if out.rep != nil {
			rs.events += out.rep.Events
		}
		rs.allocBytes += uint64(a1[0] - a0[0])
		rs.allocObjects += uint64(a1[1] - a0[1])
		addStats(&rs.stats, out.stats)
	}
	cpu1 := readRuntime(cpuSamples)
	rs.gcCPU, rs.totalCPU = cpu1[0]-cpu0[0], cpu1[1]-cpu0[1]
	return rs
}

// op runs one item through the program. A panic counts as a failed op.
func (r *runner) op(it *item, c config, tr *tracer) (out opOut, err error) {
	defer func() {
		if p := recover(); p != nil {
			err = fmt.Errorf("panic: %v", p)
		}
	}()
	switch {
	case r.in.live && tr != nil:
		return liveTraced(it, c, tr)
	case r.in.live:
		return liveOp(it, c)
	case tr != nil:
		return replayTraced(it, c, r.in.suite, tr)
	default:
		return replayOp(it, c, r.in.suite)
	}
}

// check is the correctness oracle: the op must reproduce its item's
// reference report digest, crash status and detection verdict.
func (r *runner) check(it *item, out opOut, err error) {
	r.attempted++
	var why string
	switch {
	case err != nil:
		why = err.Error()
	case digestOf(out.rep) != it.ref.digest:
		why = "report digest differs from the reference"
	case out.crashed != it.ref.crashed:
		why = fmt.Sprintf("crashed=%v, reference crashed=%v", out.crashed, it.ref.crashed)
	case out.signal != it.ref.signal:
		why = fmt.Sprintf("detection signal=%v, reference signal=%v", out.signal, it.ref.signal)
	default:
		return
	}
	r.failed++
	if len(r.failures) < 10 {
		r.failures = append(r.failures, fmt.Sprintf("%s/%s: %s", it.program, it.input, why))
	}
}

// replayOp is the post-mortem op: heapmd.ReplayTraceWith, then the
// offline check when the item has a model.
func replayOp(it *item, c config, suite metrics.Suite) (opOut, error) {
	var st heapmd.TraceStats
	rep, _, _, err := heapmd.ReplayTraceWith(bytes.NewReader(it.data), it.program, it.input, heapmd.ReplayOptions{
		Suite: suite, DecodeWorkers: c.Decode, IngestWorkers: c.Ingest,
		Connectivity: c.conn, SCC: c.scc, Stats: &st,
	})
	if err != nil {
		return opOut{}, err
	}
	out := opOut{rep: rep, stats: st}
	if it.model != nil {
		out.signal = signaled(heapmd.Check(it.model, rep))
	}
	return out, nil
}

// liveOp is the online op: a monitored session run of the program with
// the online detector attached, as the heapmd package documents it.
func liveOp(it *item, c config) (opOut, error) {
	sess := heapmd.NewSession(heapmd.Options{IngestWorkers: c.Ingest, Connectivity: c.conn, SCC: c.scc})
	run := sess.NewFaultyRun(it.program, it.input, it.in.Seed, it.plan())
	det := heapmd.NewDetector(it.model)
	run.Observe(det)
	err := prog.Run(func() { it.w.Run(run.Process(), it.in, 1) })
	rep := run.Report()
	crashed, err := crashOf(err)
	if err != nil {
		return opOut{}, err
	}
	ing := run.IngestStats()
	return opOut{rep: rep, signal: onlineVerdict(det, rep), crashed: crashed, stats: heapmd.TraceStats{
		IngestWorkers: ing.Workers, SpeculationHits: ing.SpeculationHits, SpeculationFallbacks: ing.SpeculationFallbacks,
		PreResolveStalls: ing.PreResolveStalls, MutatorStalls: ing.MutatorStalls,
	}}, nil
}

// bare runs the item's event source with nothing of HeapMD attached —
// the program with no subscriber, or the generator into a discarding
// sink — and returns its wall and CPU time in ns.
func (r *runner) bare(it *item) (wall, cpu float64, err error) {
	c0, t0 := cpuTime(), time.Now()
	crashed, err := it.produce(nil)
	wall, cpu = float64(time.Since(t0)), cpuTime()-c0
	if err == nil && crashed != it.ref.crashed {
		err = fmt.Errorf("bare run crashed=%v, reference crashed=%v", crashed, it.ref.crashed)
	}
	return wall, cpu, err
}

// cpuTime is the CPU time the process has used on all its threads, in
// ns. A kernel that accounts steal time (CONFIG_PARAVIRT_TIME_ACCOUNTING)
// leaves out the time the hypervisor gave the virtual CPUs to other
// guests, which wall time includes.
func cpuTime() float64 {
	var ru syscall.Rusage
	// RUSAGE_SELF with a valid pointer cannot fail.
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru)
	return float64(ru.Utime.Nano() + ru.Stime.Nano())
}

func addStats(dst *heapmd.TraceStats, s heapmd.TraceStats) {
	dst.TotalBytes += s.TotalBytes
	dst.Events += s.Events
	dst.ScannerStalls += s.ScannerStalls
	dst.ResequencerStalls += s.ResequencerStalls
	dst.SpeculationHits += s.SpeculationHits
	dst.SpeculationFallbacks += s.SpeculationFallbacks
	dst.PreResolveStalls += s.PreResolveStalls
	dst.MutatorStalls += s.MutatorStalls
}

// ---------------------------------------------------------------------------
// The measured phases of one run.

// measurement is everything one run produced, before it is rendered.
type measurement struct {
	defaults, serial config
	setups           []float64 // seconds
	setupsCPU        []float64 // the same in process CPU time
	buildMS          float64
	rssPerRep        bool // the kernel's peak-RSS accounting restarted at each rep
	reps             []repStats
	serialReps       []repStats
	traced           *repStats
	tr               *tracer
	addr             addrStats
	r                *runner
}

// measure runs one workload: set-up at least sz.setups times and for
// at least sz.setupTime, each set-up replacing the previous one; one
// warm-up rep; then either timed reps at the defaults until seconds
// have passed (end-to-end), or alternating default and serial reps
// followed by one traced serial rep and the isolated pass (per-layer).
func measure(w *workload, seed int64, seconds int, perLayer bool, sz sizes) (*measurement, error) {
	m := &measurement{}
	var err error
	if m.defaults, m.serial, err = configs(); err != nil {
		return nil, err
	}
	workers := runtime.NumCPU()
	var in *inputs
	var spent time.Duration
	for len(m.setups) < sz.setups || spent < sz.setupTime {
		in = nil
		runtime.GC()
		c0, t0 := cpuTime(), time.Now()
		if in, err = w.setup(seed, sz, workers); err != nil {
			return nil, fmt.Errorf("%s set-up: %w", w.name, err)
		}
		d := time.Since(t0)
		spent += d
		m.setups = append(m.setups, d.Seconds())
		m.setupsCPU = append(m.setupsCPU, (cpuTime()-c0)/1e9)
	}
	m.buildMS = in.buildMS
	// Drop the set-up's garbage before the measured phase.
	runtime.GC()
	debug.FreeOSMemory()

	r := &runner{in: in}
	m.r = r
	r.rep(m.defaults, nil, false) // warm-up
	deadline := time.Now().Add(time.Duration(seconds) * time.Second)
	if !perLayer {
		for len(m.reps) < sz.minReps || len(m.reps)*len(in.items) < sz.minOps || time.Now().Before(deadline) {
			// Each rep's peak starts from a collected heap with its free
			// pages returned, not from what the last rep left behind.
			runtime.GC()
			debug.FreeOSMemory()
			m.rssPerRep = resetPeakRSS()
			rs := r.rep(m.defaults, nil, true)
			rs.peakRSS = peakRSSMiB()
			m.reps = append(m.reps, rs)
		}
		return m, nil
	}
	for len(m.reps) == 0 || time.Now().Before(deadline) {
		m.reps = append(m.reps, r.rep(m.defaults, nil, false))
		m.serialReps = append(m.serialReps, r.rep(m.serial, nil, true))
	}
	m.tr = newTracer()
	traced := r.rep(m.serial, m.tr, false)
	m.traced = &traced
	if m.addr, err = r.addrindexPass(); err != nil {
		return nil, err
	}
	return m, nil
}

// ---------------------------------------------------------------------------
// Runtime counters and statistics.

// Pairs of runtime/metrics counters, read around each op and each rep.
// The sample slices are allocated once so reading them allocates
// nothing the op would be charged for.
var (
	allocSamples = []rtmetrics.Sample{{Name: "/gc/heap/allocs:bytes"}, {Name: "/gc/heap/allocs:objects"}}
	cpuSamples   = []rtmetrics.Sample{{Name: "/cpu/classes/gc/total:cpu-seconds"}, {Name: "/cpu/classes/total:cpu-seconds"}}
)

func readRuntime(s []rtmetrics.Sample) (v [2]float64) {
	rtmetrics.Read(s)
	for i := range v {
		switch s[i].Value.Kind() {
		case rtmetrics.KindUint64:
			v[i] = float64(s[i].Value.Uint64())
		case rtmetrics.KindFloat64:
			v[i] = s[i].Value.Float64()
		}
	}
	return v
}

func sorted(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := sorted(xs)
	n := len(s)
	return (s[(n-1)/2] + s[n/2]) / 2
}

// percentile is the nearest-rank percentile of sorted values.
func percentile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	k := int(math.Ceil(float64(len(sorted))*p/100)) - 1
	return sorted[max(0, min(k, len(sorted)-1))]
}

// quartiles returns the first and third quartiles the way Python's
// statistics.quantiles(xs, n=4) computes them (the exclusive method).
func quartiles(xs []float64) (q1, q3 float64) {
	s := sorted(xs)
	n := len(s)
	if n < 2 {
		return median(s), median(s)
	}
	q := func(i int) float64 {
		m := n + 1
		j := max(1, min(i*m/4, n-1))
		delta := float64(i*m - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return q(1), q(3)
}
