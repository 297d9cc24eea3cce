// The replay subcommand ingests recorded trace files: the paper's
// post-mortem usage mode, hardened for production operation. Reads
// are retried with bounded exponential backoff (traces often live on
// network filesystems), and -salvage recovers the longest valid
// prefix of a trace left truncated or corrupted by a crashed run.
// Several traces — listed as extra arguments, or a directory passed
// to -trace — replay concurrently on a bounded worker pool, with
// per-trace summaries printed in argument order and instrumentation
// health aggregated across the batch.
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"sort"
	"strings"
	"time"

	"heapmd"
	"heapmd/internal/health"
	"heapmd/internal/metrics"
	"heapmd/internal/model"
	"heapmd/internal/sched"
)

// replayConfig carries the per-trace replay settings of cmdReplay.
type replayConfig struct {
	opts    heapmd.ReplayOptions
	mdl     *model.Model
	retries int
	program string
	input   string
}

func cmdReplay(args []string) error {
	fs := flag.NewFlagSet("replay", flag.ExitOnError)
	tracePath := fs.String("trace", "", "trace file recorded with heapmd.RecordTrace, or a directory of traces")
	modelPath := fs.String("model", "", "optional model file: check each replayed report against it")
	salvage := fs.Bool("salvage", false, "recover the longest valid prefix of a damaged trace")
	extended := fs.Bool("extended", false, "compute the extended metric suite (adds WCC/SCC structure metrics)")
	freq := fs.Uint64("freq", 0, "sampling frequency; must match the recording (0 = simulation default)")
	retries := fs.Int("retries", 3, "max retries per read/seek on transient I/O errors")
	parallel := fs.Int("parallel", 0, "traces replayed in flight (0 = all cores, 1 = serial; output is identical)")
	program := fs.String("program", "replayed", "program name recorded in the report")
	input := fs.String("input", "trace", "input name recorded in the report (single trace; multi-trace uses file names)")
	cpuProfile := fs.String("cpuprofile", "", "write a CPU profile of the replay to this file")
	memProfile := fs.String("memprofile", "", "write a heap profile taken after the replay to this file")
	if err := fs.Parse(args); err != nil {
		return err
	}
	paths, err := collectTracePaths(*tracePath, fs.Args())
	if err != nil {
		return err
	}
	if *cpuProfile != "" {
		pf, err := os.Create(*cpuProfile)
		if err != nil {
			return err
		}
		defer pf.Close()
		if err := pprof.StartCPUProfile(pf); err != nil {
			return err
		}
		defer pprof.StopCPUProfile()
	}
	if *memProfile != "" {
		defer func() {
			pf, err := os.Create(*memProfile)
			if err != nil {
				fmt.Fprintf(os.Stderr, "memprofile: %v\n", err)
				return
			}
			defer pf.Close()
			runtime.GC() // settle the heap so the profile shows live replay state
			if err := pprof.WriteHeapProfile(pf); err != nil {
				fmt.Fprintf(os.Stderr, "memprofile: %v\n", err)
			}
		}()
	}
	replayWorkers, err := sched.ParseParallel(*parallel)
	if err != nil {
		return err
	}
	var suite metrics.Suite
	if *extended {
		suite = metrics.ExtendedSuite()
	}
	cfg := replayConfig{
		opts: heapmd.ReplayOptions{
			Frequency:     *freq,
			Salvage:       *salvage,
			DecodeWorkers: heapmd.DefaultDecodeWorkers(),
			Suite:         suite,
		},
		retries: *retries,
		program: *program,
		input:   *input,
	}
	if *modelPath != "" {
		mf, err := os.Open(*modelPath)
		if err != nil {
			return err
		}
		cfg.mdl, err = model.Load(mf)
		mf.Close()
		if err != nil {
			return err
		}
	}
	if len(paths) == 1 {
		out, err := replayOne(paths[0], cfg)
		if err != nil {
			return err
		}
		fmt.Print(out.text)
		return nil
	}
	// Multi-trace: fan the files out on the worker pool. Summaries
	// come back in argument order, and the first failing trace (in
	// that order) decides the error, so the output is identical at any
	// -parallel setting.
	multiCfg := cfg
	outs, err := sched.Map(replayWorkers, len(paths), func(i int) (*replayOut, error) {
		c := multiCfg
		c.input = filepath.Base(paths[i])
		return replayOne(paths[i], c)
	})
	if err != nil {
		return err
	}
	var agg health.Counters
	var events, findings uint64
	var aggStats heapmd.TraceStats
	formats := map[uint32]int{}
	for _, out := range outs {
		fmt.Print(out.text)
		agg.Add(out.health)
		events += out.events
		findings += uint64(out.findings)
		aggStats.TotalBytes += out.stats.TotalBytes
		aggStats.Events += out.stats.Events
		aggStats.StoredEventBytes += out.stats.StoredEventBytes
		aggStats.RawEventBytes += out.stats.RawEventBytes
		aggStats.CompressedFrames += out.stats.CompressedFrames
		aggStats.EventFrames += out.stats.EventFrames
		if out.stats.Version != 0 {
			formats[out.stats.Version]++
		}
	}
	fmt.Printf("replayed %d traces: %d events total", len(paths), events)
	if cfg.mdl != nil {
		fmt.Printf(", %d findings", findings)
	}
	fmt.Println()
	if aggStats.Events > 0 {
		var fmts []string
		for _, v := range []uint32{1, 2, 3} {
			if n := formats[v]; n > 0 {
				fmts = append(fmts, fmt.Sprintf("v%d ×%d", v, n))
			}
		}
		fmt.Printf("trace storage: %s, %.2f bytes/event overall", strings.Join(fmts, ", "), aggStats.BytesPerEvent())
		if aggStats.CompressedFrames > 0 {
			fmt.Printf(", compression %.2fx", aggStats.CompressionRatio())
		}
		fmt.Println()
	}
	if !agg.Zero() {
		fmt.Printf("aggregate instrumentation health: %s\n", agg.String())
	}
	return nil
}

// collectTracePaths resolves the -trace flag plus positional
// arguments into the ordered list of trace files. A directory
// contributes its regular files sorted by name.
func collectTracePaths(tracePath string, extra []string) ([]string, error) {
	var paths []string
	add := func(p string) error {
		st, err := os.Stat(p)
		if err != nil {
			return err
		}
		if !st.IsDir() {
			paths = append(paths, p)
			return nil
		}
		entries, err := os.ReadDir(p)
		if err != nil {
			return err
		}
		var names []string
		for _, e := range entries {
			if !e.IsDir() {
				names = append(names, e.Name())
			}
		}
		sort.Strings(names)
		for _, n := range names {
			paths = append(paths, filepath.Join(p, n))
		}
		return nil
	}
	if tracePath != "" {
		if err := add(tracePath); err != nil {
			return nil, err
		}
	}
	for _, p := range extra {
		if err := add(p); err != nil {
			return nil, err
		}
	}
	if len(paths) == 0 {
		return nil, errors.New("replay: -trace (or trace file arguments) required")
	}
	return paths, nil
}

// replayOut is one trace's replay summary.
type replayOut struct {
	text     string
	events   uint64
	findings int
	health   health.Counters
	stats    heapmd.TraceStats
}

// replayOne ingests a single trace file and renders its summary.
func replayOne(path string, cfg replayConfig) (*replayOut, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	rr := &retryReader{r: f, maxRetries: cfg.retries, backoff: 50 * time.Millisecond}

	// Stats must be private to this trace: cfg is shared across the
	// worker pool, so a pointer placed there would be raced over.
	var st heapmd.TraceStats
	cfg.opts.Stats = &st
	rep, sym, info, err := heapmd.ReplayTraceWith(rr, cfg.program, cfg.input, cfg.opts)
	if err != nil {
		if cfg.opts.Salvage {
			return nil, fmt.Errorf("%s: unsalvageable trace: %w", path, err)
		}
		return nil, fmt.Errorf("%s: %w (rerun with -salvage to recover a damaged trace)", path, err)
	}
	out := &replayOut{events: info.EventsRecovered, health: rep.Health, stats: st}
	var b strings.Builder
	fmt.Fprintf(&b, "replayed %d events (%d snapshots, %d symbols) from %s\n",
		info.EventsRecovered, len(rep.Snapshots), sym.Len(), path)
	if st.Events > 0 {
		fmt.Fprintf(&b, "trace format v%d: %.2f bytes/event", st.Version, st.BytesPerEvent())
		if st.CompressedFrames > 0 {
			fmt.Fprintf(&b, ", compression %.2fx (%d/%d frames)",
				st.CompressionRatio(), st.CompressedFrames, st.EventFrames)
		}
		b.WriteByte('\n')
	}
	if info.Salvaged() {
		fmt.Fprintf(&b, "salvage: %s\n", info)
	}
	if rr.retried > 0 {
		fmt.Fprintf(&b, "transient read errors retried: %d\n", rr.retried)
	}
	if h := rep.Health; !h.Zero() {
		fmt.Fprintf(&b, "instrumentation health: %s\n", h.String())
	}
	if cfg.mdl == nil {
		out.text = b.String()
		return out, nil
	}
	findings := heapmd.Check(cfg.mdl, rep)
	out.findings = len(findings)
	if len(findings) == 0 {
		b.WriteString("check: clean\n")
	} else {
		fmt.Fprintf(&b, "check: %d findings\n", len(findings))
		for _, fd := range findings {
			fmt.Fprintf(&b, "  %s\n", fd.Describe(sym))
		}
	}
	out.text = b.String()
	return out, nil
}

// retryReader wraps an io.ReadSeeker with bounded retry and
// exponential backoff on transient errors. EOF conditions are data,
// not faults — salvage handles those — so they pass through
// untouched; everything else (a flaky NFS mount, a device hiccup)
// gets maxRetries further attempts per call.
type retryReader struct {
	r          io.ReadSeeker
	maxRetries int
	backoff    time.Duration
	retried    int // total transient errors retried, for reporting
}

func transient(err error) bool {
	return err != nil && err != io.EOF && !errors.Is(err, io.ErrUnexpectedEOF)
}

func (rr *retryReader) Read(p []byte) (int, error) {
	var n int
	var err error
	delay := rr.backoff
	for attempt := 0; ; attempt++ {
		n, err = rr.r.Read(p)
		if n > 0 || !transient(err) || attempt >= rr.maxRetries {
			return n, err
		}
		rr.retried++
		time.Sleep(delay)
		delay *= 2
	}
}

func (rr *retryReader) Seek(offset int64, whence int) (int64, error) {
	var pos int64
	var err error
	delay := rr.backoff
	for attempt := 0; ; attempt++ {
		pos, err = rr.r.Seek(offset, whence)
		if !transient(err) || attempt >= rr.maxRetries {
			return pos, err
		}
		rr.retried++
		time.Sleep(delay)
		delay *= 2
	}
}
