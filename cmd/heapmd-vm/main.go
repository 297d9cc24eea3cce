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
	"flag"
	"fmt"
	"os"

	"heapmd/internal/detect"
	"heapmd/internal/instrument"
	"heapmd/internal/logger"
	"heapmd/internal/machine"
	"heapmd/internal/model"
)

func main() {
	src := flag.String("src", "", "assembly source file")
	trainN := flag.Int("train", 8, "number of seeded training executions")
	checkN := flag.Int("check", 2, "number of seeded checking executions")
	flagReg := flag.Uint64("flag", 0, "r15 value for the checking executions")
	freq := flag.Uint64("frq", 8, "metric sampling frequency (function entries)")
	disasm := flag.Bool("disasm", false, "print the instrumented program and exit")
	flag.Parse()

	if *src == "" {
		flag.Usage()
		os.Exit(2)
	}
	text, err := os.ReadFile(*src)
	if err != nil {
		fatal(err)
	}
	prog, err := machine.Assemble(string(text))
	if err != nil {
		fatal(err)
	}
	inst, sym, err := instrument.Instrument(prog)
	if err != nil {
		fatal(err)
	}
	if *disasm {
		fmt.Print(machine.Disassemble(inst, sym))
		return
	}

	runOnce := func(seed, r15 uint64) (*logger.Report, error) {
		l := logger.New(logger.Options{Frequency: *freq})
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
			fatal(fmt.Errorf("training execution %d: %w", seed, err))
		}
		reports = append(reports, rep)
	}
	build, err := model.Build(reports, model.Defaults())
	if err != nil {
		fatal(err)
	}
	fmt.Printf("trained on %d executions: %d globally stable metrics\n",
		len(reports), build.StableCount())
	for name, rng := range build.Model.Stable {
		fmt.Printf("  %-9s [%.2f%%, %.2f%%]\n", name, rng.Min, rng.Max)
	}

	total := 0
	for i := 0; i < *checkN; i++ {
		seed := uint64(1000 + i)
		rep, err := runOnce(seed, *flagReg)
		if err != nil {
			fmt.Printf("check seed-%d: execution crashed: %v\n", seed, err)
			continue
		}
		findings := detect.CheckReport(build.Model, rep, detect.Options{})
		fmt.Printf("check seed-%d (r15=%d): %d findings\n", seed, *flagReg, len(findings))
		for _, f := range findings {
			fmt.Printf("  %s\n", f.Describe(sym))
		}
		total += len(findings)
	}
	if total > 0 {
		os.Exit(1) // findings -> nonzero, usable in CI
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "heapmd-vm:", err)
	os.Exit(1)
}
