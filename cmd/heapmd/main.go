// Command heapmd drives the HeapMD pipeline against the bundled
// benchmark workloads: train a heap-behaviour model on clean inputs,
// check further runs (optionally with injected faults) against a
// model, and plot metric trajectories — the command-line counterpart
// of the paper's Figure 2 architecture.
//
// Usage:
//
//	heapmd list
//	heapmd train -workload gzip -inputs 25 -o gzip.model
//	heapmd check -workload gzip -model gzip.model [-fault dlist-missing-prev[:prob]] [-inputs 5]
//	heapmd replay -trace run.trace [more.trace ...] [-model gzip.model] [-salvage] [-parallel N]
//	heapmd plot  -workload vpr -metric Outdeg=1 [-model vpr.model] [-fault ...]
//	heapmd soak  -duration 30s -seed 1 [-faults a,b] [-check]
//	heapmd faults
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"time"

	"heapmd/internal/detect"
	"heapmd/internal/faults"
	"heapmd/internal/logger"
	"heapmd/internal/metrics"
	"heapmd/internal/model"
	"heapmd/internal/plot"
	"heapmd/internal/prog"
	"heapmd/internal/sched"
	"heapmd/internal/soak"
	"heapmd/internal/trace"
	"heapmd/internal/workloads"
)

func main() {
	if len(os.Args) < 2 {
		usage()
		os.Exit(2)
	}
	var err error
	switch os.Args[1] {
	case "list":
		err = cmdList()
	case "faults":
		err = cmdFaults()
	case "train":
		err = cmdTrain(os.Args[2:])
	case "check":
		err = cmdCheck(os.Args[2:])
	case "replay":
		err = cmdReplay(os.Args[2:])
	case "plot":
		err = cmdPlot(os.Args[2:])
	case "soak":
		err = cmdSoak(os.Args[2:])
	case "-h", "--help", "help":
		usage()
	default:
		usage()
		os.Exit(2)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "heapmd:", err)
		os.Exit(1)
	}
}

func usage() {
	fmt.Fprintln(os.Stderr, `usage:
  heapmd list                                    list bundled workloads
  heapmd faults                                  list injectable faults
  heapmd train -workload W [-inputs N] -o FILE   build a model from clean runs
  heapmd check -workload W -model FILE [flags]   check held-out runs
  heapmd replay -trace FILE|DIR [FILE...]        ingest recorded traces (crash-safe, parallel)
  heapmd plot  -workload W -metric M [flags]     plot a metric trajectory
  heapmd soak  [-duration D] [-seed N] [flags]   chaos-soak the fault catalog, emit a JSON scoreboard`)
}

func cmdList() error {
	fmt.Printf("%-13s %-11s %-10s %s\n", "Workload", "Class", "Stable", "Models")
	for _, w := range workloads.All() {
		fmt.Printf("%-13s %-11s %-10s %s\n", w.Name(), w.Class(), w.StableMetric(), w.Description())
	}
	return nil
}

func cmdFaults() error {
	fmt.Printf("%-24s %-17s %-7s %s\n", "Fault", "Class", "Detect", "Mechanism")
	for _, e := range faults.Catalog() {
		expect := "no"
		if e.ExpectDetect {
			expect = "yes"
		}
		fmt.Printf("%-24s %-17s %-7s %s\n", e.Name, e.Class, expect, e.Mechanism)
	}
	return nil
}

func cmdSoak(args []string) error {
	fs := flag.NewFlagSet("soak", flag.ExitOnError)
	duration := fs.Duration("duration", 30*time.Second, "wall-clock soak budget beyond the minimum schedule (0 = minimum only)")
	seed := fs.Int64("seed", 1, "soak seed (perturbs held-out inputs; equal seeds reproduce the scoreboard)")
	faultList := fs.String("faults", "", "comma-separated fault names to soak (default: the whole catalog)")
	parallel := fs.Int("parallel", 0, "cells soaked concurrently (0 = all cores, 1 = serial)")
	train := fs.Int("train", 0, "training inputs per workload model (0 = soak default)")
	extended := fs.Bool("extended", false, "soak with the extended metric suite (adds WCC/SCC structure metrics)")
	check := fs.Bool("check", false, "exit nonzero unless every verdict matches the taxonomy with zero warmup false positives")
	out := fs.String("o", "", "write the JSON scoreboard to FILE (default: stdout)")
	quiet := fs.Bool("q", false, "suppress per-cell progress lines on stderr")
	if err := fs.Parse(args); err != nil {
		return err
	}
	workers, err := sched.ParseParallel(*parallel)
	if err != nil {
		return err
	}
	opts := soak.Options{
		Duration:    *duration,
		Seed:        *seed,
		Parallel:    workers,
		TrainInputs: *train,
		Extended:    *extended,
	}
	if *faultList != "" {
		opts.Faults = strings.Split(*faultList, ",")
	}
	if !*quiet {
		opts.Progress = os.Stderr
	}
	sb, err := soak.Run(opts)
	if err != nil {
		return err
	}
	dst := os.Stdout
	if *out != "" {
		f, err := os.Create(*out)
		if err != nil {
			return err
		}
		defer f.Close()
		dst = f
	}
	if err := sb.WriteJSON(dst); err != nil {
		return err
	}
	if *check && !sb.OK() {
		return fmt.Errorf("scoreboard not clean: %d missed, %d false alarms, %d warmup false positives",
			sb.Summary.Missed, sb.Summary.FalseAlarms, sb.Summary.WarmupFalsePositives)
	}
	return nil
}

func cmdTrain(args []string) error {
	fs := flag.NewFlagSet("train", flag.ExitOnError)
	name := fs.String("workload", "", "workload to train on (see 'heapmd list')")
	inputs := fs.Int("inputs", 25, "number of training inputs")
	out := fs.String("o", "", "output model file (default: stdout)")
	version := fs.Int("version", 1, "development version (commercial workloads)")
	parallel := fs.Int("parallel", 0, "training runs in flight (0 = all cores, 1 = serial; results are identical)")
	recordDir := fs.String("record-traces", "", "record each run's event stream to DIR/<input>.trace for later 'heapmd replay'")
	compress := fs.Bool("compress", false, "flate-compress recorded trace frames (smaller files, same replay)")
	extended := fs.Bool("extended", false, "train on the extended metric suite (adds WCC/SCC structure metrics)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	w, err := workloads.Get(*name)
	if err != nil {
		return err
	}
	workers, err := sched.ParseParallel(*parallel)
	if err != nil {
		return err
	}
	logOpts := suiteOptions(*extended)
	cfg := workloads.RunConfig{Version: *version, Parallel: workers, Logger: logOpts}
	if *recordDir != "" {
		// Recording stays parallel: the hook opens a private writer per
		// run (see RunConfig.Record).
		cfg.Record, err = traceRecorder(*recordDir, *compress)
		if err != nil {
			return err
		}
	}
	reports, err := workloads.Train(w, *inputs, cfg)
	if err != nil {
		return err
	}
	res, err := model.Build(reports, model.Defaults())
	if err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "trained %s on %d inputs: %d globally stable metrics\n",
		w.Name(), *inputs, res.StableCount())
	for _, mr := range res.Reports {
		fmt.Fprintf(os.Stderr, "  %-9s %-16s", mr.Metric, mr.Klass)
		if _, ok := res.Model.Stable[mr.Metric]; ok {
			rng := res.Model.Stable[mr.Metric]
			fmt.Fprintf(os.Stderr, " range=[%.2f, %.2f]", rng.Min, rng.Max)
		}
		fmt.Fprintln(os.Stderr)
	}
	dst := os.Stdout
	if *out != "" {
		f, err := os.Create(*out)
		if err != nil {
			return err
		}
		defer f.Close()
		dst = f
	}
	return res.Model.Save(dst)
}

// traceRecorder returns a RunConfig.Record hook that writes each
// run's event stream to dir/<input>.trace. The hook builds a fresh
// writer per run, so recorded training and check runs still fan out
// across workers.
func traceRecorder(dir string, compress bool) (func(in workloads.Input, p *prog.Process) (func() error, error), error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	return func(in workloads.Input, p *prog.Process) (func() error, error) {
		f, err := os.Create(filepath.Join(dir, in.Name+".trace"))
		if err != nil {
			return nil, err
		}
		tw, err := trace.NewWriterWith(f, trace.WriterOptions{Compress: compress})
		if err != nil {
			f.Close()
			return nil, err
		}
		tw.SetSymtab(p.Sym())
		p.Subscribe(tw)
		return func() error {
			err := tw.Close(p.Sym())
			if cerr := f.Close(); err == nil {
				err = cerr
			}
			return err
		}, nil
	}, nil
}

// suiteOptions resolves the -extended flag shared by train and check
// into logger options.
func suiteOptions(extended bool) logger.Options {
	var opts logger.Options
	if extended {
		opts.Suite = metrics.ExtendedSuite()
	}
	return opts
}

// parseFault parses "name[:prob[:maxTriggers]]".
func parseFault(spec string) (string, faults.Config, error) {
	parts := strings.Split(spec, ":")
	cfg := faults.Config{}
	switch len(parts) {
	case 3:
		n, err := strconv.Atoi(parts[2])
		if err != nil {
			return "", cfg, fmt.Errorf("bad max triggers %q", parts[2])
		}
		cfg.MaxTriggers = n
		fallthrough
	case 2:
		p, err := strconv.ParseFloat(parts[1], 64)
		if err != nil {
			return "", cfg, fmt.Errorf("bad probability %q", parts[1])
		}
		cfg.Prob = p
		fallthrough
	case 1:
		return parts[0], cfg, nil
	default:
		return "", cfg, fmt.Errorf("bad fault spec %q", spec)
	}
}

func cmdCheck(args []string) error {
	fs := flag.NewFlagSet("check", flag.ExitOnError)
	name := fs.String("workload", "", "workload to check")
	modelPath := fs.String("model", "", "model file from 'heapmd train'")
	faultSpec := fs.String("fault", "", "fault to inject: name[:prob[:max]] (see 'heapmd faults')")
	nTest := fs.Int("inputs", 5, "number of held-out inputs to check")
	skip := fs.Int("skip", 25, "skip the first N inputs (assumed used for training)")
	version := fs.Int("version", 1, "development version")
	parallel := fs.Int("parallel", 0, "check runs in flight (0 = all cores, 1 = serial; output is identical)")
	recordDir := fs.String("record-traces", "", "record each run's event stream to DIR/<input>.trace for later 'heapmd replay'")
	compress := fs.Bool("compress", false, "flate-compress recorded trace frames (smaller files, same replay)")
	extended := fs.Bool("extended", false, "check with the extended metric suite (adds WCC/SCC structure metrics)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	w, err := workloads.Get(*name)
	if err != nil {
		return err
	}
	workers, err := sched.ParseParallel(*parallel)
	if err != nil {
		return err
	}
	logOpts := suiteOptions(*extended)
	var record func(workloads.Input, *prog.Process) (func() error, error)
	if *recordDir != "" {
		record, err = traceRecorder(*recordDir, *compress)
		if err != nil {
			return err
		}
	}
	f, err := os.Open(*modelPath)
	if err != nil {
		return err
	}
	mdl, err := model.Load(f)
	f.Close()
	if err != nil {
		return err
	}
	var faultName string
	var faultCfg faults.Config
	if *faultSpec != "" {
		faultName, faultCfg, err = parseFault(*faultSpec)
		if err != nil {
			return err
		}
	}
	all := w.Inputs(*skip + *nTest)
	held := all[*skip:]
	// Each held-out run is independent: its own process, logger, and —
	// because a fault plan carries trigger budgets — its own plan.
	// Results come back in input order, so the printed report reads the
	// same at any -parallel setting.
	type checkOut struct {
		text     string
		findings int
	}
	outs, err := sched.Map(workers, len(held), func(i int) (checkOut, error) {
		in := held[i]
		var plan *faults.Plan
		if faultName != "" {
			plan = faults.NewPlan().Enable(faultName, faultCfg)
		}
		var b strings.Builder
		out := checkOut{}
		rep, p, err := workloads.RunLogged(w, in, workloads.RunConfig{Plan: plan, Version: *version, Record: record, Logger: logOpts})
		if err != nil {
			fmt.Fprintf(&b, "%s: run crashed: %v\n", in.Name, err)
			out.text = b.String()
			return out, nil
		}
		findings := detect.CheckReport(mdl, rep, detect.Options{})
		if len(findings) == 0 {
			fmt.Fprintf(&b, "%s: clean\n", in.Name)
		} else {
			out.findings = len(findings)
			fmt.Fprintf(&b, "%s: %d findings\n", in.Name, len(findings))
			for _, fd := range findings {
				fmt.Fprintf(&b, "  %s\n", fd.Describe(p.Sym()))
			}
		}
		if h := rep.Health; !h.Zero() {
			fmt.Fprintf(&b, "  instrumentation health: %s\n", h.String())
		}
		out.text = b.String()
		return out, nil
	})
	if err != nil {
		return err
	}
	total := 0
	for _, out := range outs {
		fmt.Print(out.text)
		total += out.findings
	}
	fmt.Printf("total findings: %d\n", total)
	return nil
}

func cmdPlot(args []string) error {
	fs := flag.NewFlagSet("plot", flag.ExitOnError)
	name := fs.String("workload", "", "workload to run")
	metricName := fs.String("metric", "Indeg=1", "metric to plot")
	modelPath := fs.String("model", "", "optional model file: draws calibrated bounds")
	faultSpec := fs.String("fault", "", "fault to inject: name[:prob[:max]]")
	inputIdx := fs.Int("input", 0, "input index to run")
	version := fs.Int("version", 1, "development version")
	if err := fs.Parse(args); err != nil {
		return err
	}
	w, err := workloads.Get(*name)
	if err != nil {
		return err
	}
	id, err := metrics.ParseID(*metricName)
	if err != nil {
		return err
	}
	var plan *faults.Plan
	if *faultSpec != "" {
		fname, cfg, err := parseFault(*faultSpec)
		if err != nil {
			return err
		}
		plan = faults.NewPlan().Enable(fname, cfg)
	}
	in := w.Inputs(*inputIdx + 1)[*inputIdx]
	rep, _, err := workloads.RunLogged(w, in, workloads.RunConfig{Plan: plan, Version: *version})
	if err != nil {
		return err
	}
	opts := plot.Options{
		Title:  fmt.Sprintf("%s on %s: %s", w.Name(), in.Name, id),
		Width:  72,
		Height: 16,
	}
	if *modelPath != "" {
		f, err := os.Open(*modelPath)
		if err != nil {
			return err
		}
		mdl, err := model.Load(f)
		f.Close()
		if err != nil {
			return err
		}
		if rng, ok := mdl.RangeOf(id); ok {
			opts.HLines = map[string]float64{"calibrated min": rng.Min, "calibrated max": rng.Max}
		}
	}
	fmt.Print(plot.Render(opts, plot.Series{Name: id.String() + " (%)", Values: rep.Series(id)}))
	return nil
}
