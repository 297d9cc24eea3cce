// Command bench is the HeapMD benchmark. It builds seeded inputs, feeds
// them through the program's public entry points at the options the
// heapmd CLI's flag defaults resolve to on the machine it runs on,
// checks every op's output against a reference, and reports end-to-end
// metrics or, with -trace 1, per-layer metrics from serial and traced
// reps. See README.md.
//
//	bench -workload store-churn -seed 1 -seconds 15 -trace 0
//	bench -seed 1                  # every workload, both modes
//	bench -compare A.json B.json   # check B against A with the bounds
//
// The last line of standard output is the run's result as JSON.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"slices"
	"strconv"
	"strings"

	"heapmd"
)

// schemaVersion versions the result files; bump it when a field
// changes meaning.
const schemaVersion = 1

type metricDef struct{ name, unit string }

// endToEndMetrics and perLayerMetrics are the metrics of the result
// line, as BENCHMARK.json declares them (a test keeps the two in step).
// Op costs are process CPU time relative to the bare run paired with
// each op, so they move neither with the machine's own speed nor with
// the time the hypervisor steals from its virtual CPUs.
var endToEndMetrics = []metricDef{
	{"cpu_slowdown_x", "x"},
	{"op_cpu_p50_x", "x"},
	{"op_cpu_p95_x", "x"},
	{"alloc_bytes_per_event", "B"},
	{"peak_rss_mb", "MiB"},
	{"setup_s", "s"},
}

// endToEndDetailMetrics are wall-time slowdown, throughput and latency,
// and the set-up's CPU time. They go to the result file and -compare's
// report: on a shared machine wall time drifts with the load of other
// guests by more than any useful bound between runs.
var endToEndDetailMetrics = []metricDef{
	{"slowdown_x", "x"},
	{"events_per_s", "ev/s"},
	{"op_p50_ms", "ms"},
	{"op_p95_ms", "ms"},
	{"setup_cpu_s", "s"},
}

var allEndToEndMetrics = append(append([]metricDef(nil), endToEndMetrics...), endToEndDetailMetrics...)

var perLayerMetrics = []metricDef{
	{"trace.decode_share", "ratio"},
	{"trace.bytes_per_event", "B"},
	{"trace.scanner_stalls", "count"},
	{"trace.resequencer_stalls", "count"},
	{"addrindex.stab_ns", "ns"},
	{"logger.apply_ns_per_event", "ns"},
	{"logger.apply_share", "ratio"},
	{"logger.spec_hit_ratio", "ratio"},
	{"logger.mutator_stalls", "count"},
	{"logger.preresolve_stalls", "count"},
	{"metrics.point_us", "us"},
	{"metrics.point_share", "ratio"},
	{"heapgraph.peak_vertices", "count"},
	{"heapgraph.peak_edges", "count"},
	{"detect.share", "ratio"},
	{"prog.share", "ratio"},
	{"runtime.gc_cpu_share", "ratio"},
	{"runtime.allocs_per_event", "count"},
	{"sched.parallel_gain_x", "x"},
	{"bench.trace_overhead_x", "x"},
}

// layerDetailMetrics go to the result file only: times of layers that
// run on some workloads (the result line carries the same metrics on
// every workload), and counts that describe the input rather than the
// program's cost.
var layerDetailMetrics = []metricDef{
	{"metrics.points", "count"},
	{"addrindex.stabs_per_event", "count"},
	{"trace.decode_ns_per_event", "ns"},
	{"prog.bare_ns_per_event", "ns"},
	{"detect.check_us", "us"},
	{"detect.sample_ns", "ns"},
	{"model.build_ms", "ms"},
}

var allLayerMetrics = append(append([]metricDef(nil), perLayerMetrics...), layerDetailMetrics...)

func main() { os.Exit(run(os.Args[1:], os.Stdout)) }

func run(args []string, stdout io.Writer) int {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	name := fs.String("workload", "all", "workload to run, or all: every workload in both modes, one child process per run")
	seed := fs.Int64("seed", 1, "seed the inputs are generated from")
	seconds := fs.Int("seconds", 15, "measured seconds per run")
	traceMode := fs.Int("trace", 0, "0: end-to-end metrics at the defaults; 1: per-layer metrics from serial and traced reps")
	out := fs.String("out", "", "result file (default .bench_build/results/...); spans go next to it")
	compare := fs.Bool("compare", false, "check result set B against A with the bounds in BENCHMARK.json: -compare A B (files or directories)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	switch {
	case *compare:
		if fs.NArg() != 2 {
			fmt.Fprintln(os.Stderr, "bench: -compare takes two result sets")
			return 2
		}
		return compareResults(fs.Arg(0), fs.Arg(1), "BENCHMARK.json", stdout)
	case fs.NArg() != 0 || *seconds < 0 || (*traceMode != 0 && *traceMode != 1):
		fs.Usage()
		return 2
	case *name == "all":
		return runAll(*seed, *seconds, *out, stdout)
	}
	w := lookupWorkload(*name)
	if w == nil {
		fmt.Fprintf(os.Stderr, "bench: unknown workload %q\n", *name)
		return 2
	}
	if *out == "" {
		*out = filepath.Join(".bench_build", "results", fmt.Sprintf("%s-seed%d-trace%d.json", w.name, *seed, *traceMode))
	}
	res, err := runOne(w, *seed, *seconds, *traceMode == 1, fullSizes, *out)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	printResult(stdout, res)
	if !res.Correct {
		return 1
	}
	return 0
}

// metric is one measured value; Samples are its per-rep (or per-set-up)
// values where it has them.
type metric struct {
	Value   float64   `json:"value"`
	Unit    string    `json:"unit"`
	Samples []float64 `json:"samples,omitempty"`
}

// result is one run's versioned result file.
type result struct {
	SchemaVersion int     `json:"schema_version"`
	Machine       machine `json:"machine"`
	Workload      string  `json:"workload"`
	Why           string  `json:"why"`
	Seed          int64   `json:"seed"`
	Seconds       int     `json:"seconds"`
	Trace         bool    `json:"trace"`
	Defaults      config  `json:"defaults"`
	Serial        config  `json:"serial"`
	ItemsPerRep   int     `json:"items_per_rep"`
	Reps          int     `json:"reps"`

	Correct   bool     `json:"correct"`
	Attempted int      `json:"attempted"`
	Failed    int      `json:"failed"`
	ErrorRate float64  `json:"error_rate"`
	Failures  []string `json:"failures,omitempty"`
	// MissedBugs and FalseAlarms count, per rep, faulty ops the catalog
	// expects detected that raised no signal, and signals on clean ops
	// or on faults the catalog expects quiet.
	MissedBugs  int `json:"missed_bugs"`
	FalseAlarms int `json:"false_alarms"`

	PeakRSSPerRep bool              `json:"peak_rss_per_rep"`
	Metrics       map[string]metric `json:"metrics"`
	SpansFile     string            `json:"spans_file,omitempty"`
}

// runOne measures one workload in one mode and writes its result file
// (and, per-layer, its spans) to out.
func runOne(w *workload, seed int64, seconds int, perLayer bool, sz sizes, out string) (*result, error) {
	m, err := measure(w, seed, seconds, perLayer, sz)
	if err != nil {
		return nil, err
	}
	r := m.r
	res := &result{
		SchemaVersion: schemaVersion, Machine: stampMachine(),
		Workload: w.name, Why: w.why, Seed: seed, Seconds: seconds, Trace: perLayer,
		Defaults: m.defaults, Serial: m.serial, ItemsPerRep: len(r.in.items), Reps: len(m.reps),
		Correct: r.failed == 0, Attempted: r.attempted, Failed: r.failed,
		ErrorRate: div(float64(r.failed), float64(r.attempted)), Failures: r.failures,
		PeakRSSPerRep: m.rssPerRep, Metrics: map[string]metric{},
	}
	for _, it := range r.in.items {
		switch {
		case it.expect == expectDetect && !it.ref.signal:
			res.MissedBugs++
		case it.expect == expectQuiet && it.ref.signal:
			res.FalseAlarms++
		}
	}
	var values map[string]float64
	var samples map[string][]float64
	defs := allEndToEndMetrics
	if perLayer {
		values, defs = layerValues(m), allLayerMetrics
	} else {
		values, samples = endToEndValues(m)
	}
	for _, d := range defs {
		if v, ok := values[d.name]; ok {
			res.Metrics[d.name] = metric{Value: v, Unit: d.unit, Samples: samples[d.name]}
		}
	}
	if err := os.MkdirAll(filepath.Dir(out), 0o755); err != nil {
		return nil, err
	}
	if perLayer {
		res.SpansFile = strings.TrimSuffix(out, ".json") + ".spans.json"
		if err := writeJSON(res.SpansFile, struct {
			Spans []span `json:"spans"`
		}{m.tr.spans}, false); err != nil {
			return nil, err
		}
	}
	return res, writeJSON(out, res, true)
}

// endToEndValues computes the end-to-end metrics from the timed reps.
// An op's CPU slowdown is its CPU time over that of the bare run just
// before it, so a change in the machine's speed between ops cancels out.
// A GC cycle that starts late lifts one rep's peak RSS by up to half;
// such spikes only ever add, so a run reports its lowest rep peak, the
// memory a whole pass over the inputs needs.
func endToEndValues(m *measurement) (map[string]float64, map[string][]float64) {
	s := map[string][]float64{}
	var ops, cpuRatios []float64
	for _, rs := range m.reps {
		repRatios := make([]float64, len(rs.opsCPU))
		for i, d := range rs.opsCPU {
			repRatios[i] = div(d, rs.baresCPU[i])
		}
		repOps, repRatios := sorted(rs.ops), sorted(repRatios)
		ops = append(ops, repOps...)
		cpuRatios = append(cpuRatios, repRatios...)
		s["cpu_slowdown_x"] = append(s["cpu_slowdown_x"], div(sum(rs.opsCPU), sum(rs.baresCPU)))
		s["op_cpu_p50_x"] = append(s["op_cpu_p50_x"], percentile(repRatios, 50))
		s["op_cpu_p95_x"] = append(s["op_cpu_p95_x"], percentile(repRatios, 95))
		s["alloc_bytes_per_event"] = append(s["alloc_bytes_per_event"], div(float64(rs.allocBytes), float64(rs.events)))
		s["peak_rss_mb"] = append(s["peak_rss_mb"], rs.peakRSS)
		s["slowdown_x"] = append(s["slowdown_x"], div(rs.opNS, rs.bareNS))
		s["events_per_s"] = append(s["events_per_s"], rs.eventsPerSec())
		s["op_p50_ms"] = append(s["op_p50_ms"], percentile(repOps, 50)/1e6)
		s["op_p95_ms"] = append(s["op_p95_ms"], percentile(repOps, 95)/1e6)
	}
	ops, cpuRatios = sorted(ops), sorted(cpuRatios)
	s["setup_s"], s["setup_cpu_s"] = m.setups, m.setupsCPU
	return map[string]float64{
		"cpu_slowdown_x":        median(s["cpu_slowdown_x"]),
		"op_cpu_p50_x":          percentile(cpuRatios, 50),
		"op_cpu_p95_x":          percentile(cpuRatios, 95),
		"alloc_bytes_per_event": median(s["alloc_bytes_per_event"]),
		"peak_rss_mb":           slices.Min(s["peak_rss_mb"]),
		"setup_s":               median(m.setups),
		"slowdown_x":            median(s["slowdown_x"]),
		"events_per_s":          median(s["events_per_s"]),
		"op_p50_ms":             percentile(ops, 50) / 1e6,
		"op_p95_ms":             percentile(ops, 95) / 1e6,
		"setup_cpu_s":           median(m.setupsCPU),
	}, s
}

func sum(xs []float64) float64 {
	var t float64
	for _, x := range xs {
		t += x
	}
	return t
}

// layerValues computes the per-layer metrics: shares and per-event
// costs from the traced rep's span self times, pipeline counters and
// runtime counters from the reps at the defaults, and the isolated
// address-index pass.
func layerValues(m *measurement) map[string]float64 {
	lt := m.tr.times()
	op := lt.dur["op"]
	var def heapmd.TraceStats
	var defRate, serRate, serNS []float64
	var objects, events uint64
	var gc, cpu, bareNS float64
	var bareEvents uint64
	for _, rs := range m.reps {
		addStats(&def, rs.stats)
		defRate = append(defRate, rs.eventsPerSec())
		objects += rs.allocObjects
		events += rs.events
		gc += rs.gcCPU
		cpu += rs.totalCPU
	}
	for _, rs := range m.serialReps {
		serRate = append(serRate, rs.eventsPerSec())
		serNS = append(serNS, rs.opNS)
		bareNS += rs.bareNS
		bareEvents += rs.bareEvents
	}
	n := float64(len(m.reps))
	points := float64(lt.count["metrics.point"])
	v := map[string]float64{
		"trace.decode_share":        div(lt.self["replay"], op),
		"trace.bytes_per_event":     div(float64(def.TotalBytes), float64(def.Events)),
		"trace.scanner_stalls":      float64(def.ScannerStalls) / n,
		"trace.resequencer_stalls":  float64(def.ResequencerStalls) / n,
		"addrindex.stab_ns":         div(m.addr.stabNS, float64(m.addr.stabs)),
		"addrindex.stabs_per_event": div(float64(m.addr.stabs), float64(m.addr.events)),
		"logger.apply_ns_per_event": div(lt.self["logger.apply"], float64(m.traced.events)),
		"logger.apply_share":        div(lt.self["logger.apply"], op),
		"logger.spec_hit_ratio":     div(float64(def.SpeculationHits), float64(def.SpeculationHits+def.SpeculationFallbacks)),
		"logger.mutator_stalls":     float64(def.MutatorStalls) / n,
		"logger.preresolve_stalls":  float64(def.PreResolveStalls) / n,
		"metrics.point_us":          div(lt.self["metrics.point"], points) / 1e3,
		"metrics.point_share":       div(lt.self["metrics.point"], op),
		"metrics.points":            points,
		"heapgraph.peak_vertices":   float64(m.tr.peakVertices),
		"heapgraph.peak_edges":      float64(m.tr.peakEdges),
		"detect.share":              div(lt.dur["detect.check"]+lt.dur["detect.sample"]+lt.dur["detect.finish"], op),
		"prog.share":                div(lt.self["prog.run"], op),
		"runtime.gc_cpu_share":      div(gc, cpu),
		"runtime.allocs_per_event":  div(float64(objects), float64(events)),
		"sched.parallel_gain_x":     div(median(defRate), median(serRate)),
		"bench.trace_overhead_x":    div(m.traced.opNS, median(serNS)),
	}
	if !m.r.in.synth {
		v["prog.bare_ns_per_event"] = div(bareNS, float64(bareEvents))
	}
	if !m.r.in.live {
		v["trace.decode_ns_per_event"] = div(lt.self["replay"], float64(m.traced.events))
	}
	if c := lt.count["detect.check"]; c > 0 {
		v["detect.check_us"] = lt.dur["detect.check"] / float64(c) / 1e3
	}
	if c := lt.count["detect.sample"]; c > 0 {
		v["detect.sample_ns"] = lt.dur["detect.sample"] / float64(c)
	}
	if m.buildMS > 0 {
		v["model.build_ms"] = m.buildMS
	}
	return v
}

func div(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// printResult prints every metric by name with its unit, then the
// result line: one JSON object with the result-line metrics of the run's
// mode.
func printResult(w io.Writer, res *result) {
	mode, defs := "end-to-end", allEndToEndMetrics
	if res.Trace {
		mode, defs = "per-layer", allLayerMetrics
	}
	d := res.Defaults
	fmt.Fprintf(w, "== %s seed %d %s (defaults: decode %d, ingest %d, connectivity %s, scc %s; %d reps of %d ops)\n",
		res.Workload, res.Seed, mode, d.Decode, d.Ingest, d.Connectivity, d.SCC, res.Reps, res.ItemsPerRep)
	for _, def := range defs {
		if m, ok := res.Metrics[def.name]; ok {
			fmt.Fprintf(w, "   %-28s %16.6g %s\n", def.name, m.Value, m.Unit)
		}
	}
	fmt.Fprintf(w, "   ops: %d attempted, %d failed (error_rate %g); per rep: missed_bugs %d, false_alarms %d\n",
		res.Attempted, res.Failed, res.ErrorRate, res.MissedBugs, res.FalseAlarms)
	for _, f := range res.Failures {
		fmt.Fprintf(w, "   FAILED %s\n", f)
	}
	if res.SpansFile != "" {
		fmt.Fprintf(w, "   spans: %s\n", res.SpansFile)
	}
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	line := struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{res.Correct, res.Attempted, res.Failed, map[string]value{}}
	lineDefs := endToEndMetrics
	if res.Trace {
		lineDefs = perLayerMetrics
	}
	for _, def := range lineDefs {
		line.Metrics[def.name] = value{res.Metrics[def.name].Value, def.unit}
	}
	b, _ := json.Marshal(line) // plain numbers and strings always marshal
	fmt.Fprintln(w, string(b))
}

func writeJSON(path string, v any, indent bool) error {
	var b []byte
	var err error
	if indent {
		b, err = json.MarshalIndent(v, "", "  ")
	} else {
		b, err = json.Marshal(v)
	}
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

// ---------------------------------------------------------------------------
// The whole suite: every workload in both modes.

// suiteResult is the result file of a whole-suite run.
type suiteResult struct {
	SchemaVersion int     `json:"schema_version"`
	Machine       machine `json:"machine"`
	Seed          int64   `json:"seed"`
	Seconds       int     `json:"seconds"`
	Correct       bool    `json:"correct"`
	// AutoMode says, per workload, whether the defaults' parallel
	// decode and ingest stages pay for themselves on the machine that
	// ran them.
	AutoMode []autoMode `json:"auto_mode"`
	Runs     []result   `json:"runs"`
}

type autoMode struct {
	Workload      string  `json:"workload"`
	DecodeWorkers int     `json:"decode_workers"`
	IngestWorkers int     `json:"ingest_workers"`
	ParallelGainX float64 `json:"parallel_gain_x"`
	Verdict       string  `json:"verdict"`
}

// runAll runs every workload in both modes, each in its own child
// process so that heap state and peak RSS are per run, and writes the
// suite result.
func runAll(seed int64, seconds int, out string, stdout io.Writer) int {
	exe, err := os.Executable()
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	if out == "" {
		out = filepath.Join(".bench_build", "results", fmt.Sprintf("suite-seed%d.json", seed))
	}
	s := suiteResult{SchemaVersion: schemaVersion, Machine: stampMachine(), Seed: seed, Seconds: seconds, Correct: true}
	for _, w := range benchWorkloads {
		for _, t := range []int{0, 1} {
			path := filepath.Join(filepath.Dir(out), fmt.Sprintf("%s-seed%d-trace%d.json", w.name, seed, t))
			os.Remove(path) // a stale file must not stand in for a failed child
			cmd := exec.Command(exe, "-workload", w.name, "-seed", strconv.FormatInt(seed, 10),
				"-seconds", strconv.Itoa(seconds), "-trace", strconv.Itoa(t), "-out", path)
			cmd.Stdout, cmd.Stderr = stdout, os.Stderr
			if err := cmd.Run(); err != nil {
				fmt.Fprintf(os.Stderr, "bench: %s -trace %d: %v\n", w.name, t, err)
				s.Correct = false
			}
			b, err := os.ReadFile(path)
			if err != nil {
				s.Correct = false
				continue
			}
			var res result
			if err := json.Unmarshal(b, &res); err != nil {
				fmt.Fprintf(os.Stderr, "bench: %s: %v\n", path, err)
				s.Correct = false
				continue
			}
			s.Runs = append(s.Runs, res)
			if t == 1 {
				gain := res.Metrics["sched.parallel_gain_x"].Value
				verdict := "neutral"
				if gain > 1.05 {
					verdict = "pays"
				} else if gain < 0.95 {
					verdict = "costs"
				}
				s.AutoMode = append(s.AutoMode, autoMode{w.name, res.Defaults.Decode, res.Defaults.Ingest, gain, verdict})
			}
		}
	}
	if err := writeJSON(out, s, true); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	fmt.Fprintf(stdout, "== suite seed %d: correct=%v, written to %s\n", seed, s.Correct, out)
	for _, a := range s.AutoMode {
		fmt.Fprintf(stdout, "   auto mode on %-18s decode %d, ingest %d: parallel_gain_x %.3f (%s)\n",
			a.Workload, a.DecodeWorkers, a.IngestWorkers, a.ParallelGainX, a.Verdict)
	}
	if !s.Correct {
		return 1
	}
	return 0
}

// ---------------------------------------------------------------------------
// Machine stamp and process memory.

type machine struct {
	GOMAXPROCS int    `json:"gomaxprocs"`
	NumCPU     int    `json:"nproc"`
	CPUModel   string `json:"cpu_model"`
	GoVersion  string `json:"go_version"`
	OS         string `json:"os"`
	Arch       string `json:"arch"`
	Commit     string `json:"commit"`
}

func stampMachine() machine {
	m := machine{
		GOMAXPROCS: runtime.GOMAXPROCS(0), NumCPU: runtime.NumCPU(), CPUModel: "unknown",
		GoVersion: runtime.Version(), OS: runtime.GOOS, Arch: runtime.GOARCH, Commit: "unknown",
	}
	if b, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(b), "\n") {
			if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
				m.CPUModel = strings.TrimSpace(v)
				break
			}
		}
	}
	// The build stamps the commit when it runs inside a git checkout.
	if bi, ok := debug.ReadBuildInfo(); ok {
		dirty := false
		for _, s := range bi.Settings {
			switch s.Key {
			case "vcs.revision":
				m.Commit = s.Value
			case "vcs.modified":
				dirty = s.Value == "true"
			}
		}
		if dirty && m.Commit != "unknown" {
			m.Commit += "-dirty"
		}
	}
	return m
}

// resetPeakRSS restarts the kernel's peak-RSS (VmHWM) accounting for
// this process, so the peak covers only what follows. Without it the
// peak covers the process's whole life.
func resetPeakRSS() bool {
	f, err := os.OpenFile("/proc/self/clear_refs", os.O_WRONLY, 0)
	if err != nil {
		return false
	}
	defer f.Close()
	_, err = f.WriteString("5")
	return err == nil
}

// peakRSSMiB reads this process's peak resident set size (VmHWM).
func peakRSSMiB() float64 {
	b, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(b), "\n") {
		if f := strings.Fields(line); len(f) >= 2 && f[0] == "VmHWM:" {
			kb, _ := strconv.ParseFloat(f[1], 64)
			return kb / 1024
		}
	}
	return 0
}
