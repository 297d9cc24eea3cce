// Binarydemo: the paper's deployment model, end to end, on machine
// code.
//
// HeapMD works on x86 binaries: Vulcan rewrites input.exe so that
// allocator calls and function entries report to the execution logger
// (paper Figure 2). This demo does the same thing to a program the
// toolchain has no source for — a registry of linked chains written
// in the bundled VM's assembly:
//
//  1. assemble the "binary",
//  2. instrument it (ENTER/LEAVE hooks injected, symbol table built),
//  3. train a model over clean executions,
//  4. run the buggy build (an input-dependent code path drops chain
//     links) and catch the range violation.
//
// Run with: go run ./examples/binarydemo
package main

import (
	"fmt"
	"os"

	"heapmd/internal/detect"
	"heapmd/internal/instrument"
	"heapmd/internal/logger"
	"heapmd/internal/machine"
	"heapmd/internal/model"
)

// The input "binary": a slot table of singly linked chains with
// steady rebuild churn. Register r15 selects a build variant: when
// non-zero, the chain builder forgets to link the previous head — the
// machine-code version of the paper's programming-typo bugs.
const source = `
fn main
  loadi r1, 96         ; table: 12 slots
  alloc r10, r1
  loadi r11, 0
fill:
  call buildchain
  call storeslot
  loadi r4, 1
  add r11, r11, r4
  loadi r5, 12
  cmplt r6, r11, r5
  jnz r6, fill
  loadi r12, 0
churn:
  loadi r5, 12
  rnd r11, r5
  call loadslot
  call freechain
  call buildchain
  call storeslot
  loadi r4, 1
  add r12, r12, r4
  loadi r5, 800
  cmplt r6, r12, r5
  jnz r6, churn
  halt

fn storeslot           ; table[r11] = r2
  loadi r7, 8
  mul r8, r11, r7
  add r8, r10, r8
  store r8, 0, r2
  ret

fn loadslot            ; r2 = table[r11]
  loadi r7, 8
  mul r8, r11, r7
  add r8, r10, r8
  load r2, r8, 0
  ret

fn buildchain          ; r2 = fresh 6-node chain
  loadi r2, 0
  loadi r9, 0
bloop:
  loadi r7, 16
  alloc r8, r7
  store r8, 0, r9
  jnz r15, skiplink    ; the bug: variant build drops the link
  store r8, 1, r2
skiplink:
  mov r2, r8
  loadi r7, 1
  add r9, r9, r7
  loadi r7, 6
  cmplt r6, r9, r7
  jnz r6, bloop
  ret

fn freechain
floop:
  jz r2, fdone
  load r8, r2, 1
  free r2
  mov r2, r8
  jmp floop
fdone:
  ret
`

func main() {
	prog, err := machine.Assemble(source)
	if err != nil {
		fmt.Fprintln(os.Stderr, "assemble:", err)
		os.Exit(1)
	}
	inst, sym, err := instrument.Instrument(prog)
	if err != nil {
		fmt.Fprintln(os.Stderr, "instrument:", err)
		os.Exit(1)
	}
	fmt.Printf("instrumented %d functions; symbol table: %d names\n", len(inst.Fns), sym.Len())

	// Each run hands its logger back when it ends, so the next run
	// reuses the heap image; the VM that fed it is dropped on return.
	runOnce := func(seed uint64, buggyFlag uint64) *logger.Report {
		l := logger.New(logger.Options{Frequency: 8})
		defer l.Release()
		l.SetRun("chains.bin", fmt.Sprintf("seed-%d", seed), 1)
		vm := machine.New(inst, sym,
			machine.WithSeed(seed),
			machine.WithSink(l),
			machine.WithReg(15, buggyFlag))
		if err := vm.Run(); err != nil {
			fmt.Fprintln(os.Stderr, "vm:", err)
			os.Exit(1)
		}
		return l.Report()
	}

	var reports []*logger.Report
	for seed := uint64(1); seed <= 8; seed++ {
		reports = append(reports, runOnce(seed, 0))
	}
	build, err := model.Build(reports, model.Defaults())
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	fmt.Printf("trained on %d clean executions: %d stable metrics\n", len(reports), build.StableCount())
	for _, id := range build.Model.StableIDs() {
		rng, _ := build.Model.RangeOf(id)
		fmt.Printf("  %-9s [%.2f%%, %.2f%%]\n", id, rng.Min, rng.Max)
	}

	clean := runOnce(91, 0)
	fmt.Printf("\nclean binary, held-out seed: %d findings\n",
		len(detect.CheckReport(build.Model, clean)))

	buggy := runOnce(92, 1)
	findings := detect.CheckReport(build.Model, buggy)
	fmt.Printf("buggy binary: %d findings\n", len(findings))
	for _, f := range findings {
		fmt.Printf("  %s\n", f.Describe(sym))
	}
	if len(findings) == 0 {
		fmt.Println("unexpected: bug not detected")
		os.Exit(1)
	}
}
