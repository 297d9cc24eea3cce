// Command heapmd-vm drives the binary pipeline on an assembly file:
// assemble, instrument Vulcan-style, train a heap model over several
// seeded executions, and check further executions — the standalone
// face of the paper's input.exe -> output.exe workflow.
//
// Usage:
//
//	heapmd-vm -src prog.asm                     # train + self-check
//	heapmd-vm -src prog.asm -flag 1             # check with r15=1 (buggy path)
//	heapmd-vm -src prog.asm -disasm             # print instrumented code
//
// The assembly format is documented in internal/machine. Register r15
// is conventionally the program's mode flag (its argv); -flag sets it
// for the checked executions only, so a bug hidden behind an
// input-dependent code path can be exposed.
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"

	"heapmd/internal/detect"
	"heapmd/internal/instrument"
	"heapmd/internal/logger"
	"heapmd/internal/machine"
	"heapmd/internal/model"
)

func main() {
	code, err := run(os.Args[1:], os.Stdout)
	if err != nil {
		fmt.Fprintln(os.Stderr, "heapmd-vm:", err)
	}
	os.Exit(code)
}

// run executes the command with args and writes its report to stdout.
// It returns the exit status: 0 for a clean check, 1 when any checked
// execution had findings or when the pipeline failed (err says why),
// 2 for a usage error.
func run(args []string, stdout io.Writer) (int, error) {
	fs := flag.NewFlagSet("heapmd-vm", flag.ContinueOnError)
	src := fs.String("src", "", "assembly source file")
	trainN := fs.Int("train", 8, "number of seeded training executions")
	checkN := fs.Int("check", 2, "number of seeded checking executions")
	flagReg := fs.Uint64("flag", 0, "r15 value for the checking executions")
	freq := fs.Uint64("frq", 8, "metric sampling frequency (function entries)")
	disasm := fs.Bool("disasm", false, "print the instrumented program and exit")
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0, nil
		}
		return 2, nil // the flag set has printed the error and usage
	}
	if *src == "" {
		fs.Usage()
		return 2, nil
	}
	text, err := os.ReadFile(*src)
	if err != nil {
		return 1, err
	}
	prog, err := machine.Assemble(string(text))
	if err != nil {
		return 1, err
	}
	inst, sym, err := instrument.Instrument(prog)
	if err != nil {
		return 1, err
	}
	if *disasm {
		fmt.Fprint(stdout, machine.Disassemble(inst, sym))
		return 0, nil
	}

	// runOnce takes its logger from the released list and hands it
	// back when the execution ends, so each run after the first reuses
	// the heap image instead of building one from nothing. The VM that
	// fed the logger is dropped on return, so nothing reaches the
	// logger after Release.
	runOnce := func(seed, r15 uint64) (*logger.Report, error) {
		l := logger.New(logger.Options{Frequency: *freq})
		defer l.Release()
		l.SetRun(*src, fmt.Sprintf("seed-%d", seed), 1)
		vm := machine.New(inst, sym,
			machine.WithSeed(seed),
			machine.WithSink(l),
			machine.WithReg(15, r15))
		if err := vm.Run(); err != nil {
			return nil, err
		}
		return l.Report(), nil
	}

	var reports []*logger.Report
	for seed := uint64(1); seed <= uint64(*trainN); seed++ {
		rep, err := runOnce(seed, 0)
		if err != nil {
			return 1, fmt.Errorf("training execution %d: %w", seed, err)
		}
		reports = append(reports, rep)
	}
	build, err := model.Build(reports, model.Defaults())
	if err != nil {
		return 1, err
	}
	fmt.Fprintf(stdout, "trained on %d executions: %d globally stable metrics\n",
		len(reports), build.StableCount())
	for _, id := range build.Model.StableIDs() {
		rng, _ := build.Model.RangeOf(id)
		fmt.Fprintf(stdout, "  %-9s [%.2f%%, %.2f%%]\n", id, rng.Min, rng.Max)
	}

	total := 0
	for i := 0; i < *checkN; i++ {
		seed := uint64(1000 + i)
		rep, err := runOnce(seed, *flagReg)
		if err != nil {
			fmt.Fprintf(stdout, "check seed-%d: execution crashed: %v\n", seed, err)
			continue
		}
		findings := detect.CheckReport(build.Model, rep)
		fmt.Fprintf(stdout, "check seed-%d (r15=%d): %d findings\n", seed, *flagReg, len(findings))
		for _, f := range findings {
			fmt.Fprintf(stdout, "  %s\n", f.Describe(sym))
		}
		total += len(findings)
	}
	if total > 0 {
		return 1, nil // findings -> nonzero, usable in CI
	}
	return 0, nil
}
