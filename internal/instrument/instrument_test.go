package instrument

import (
	"strings"
	"testing"

	"heapmd/internal/detect"
	"heapmd/internal/event"
	"heapmd/internal/logger"
	"heapmd/internal/machine"
	"heapmd/internal/model"
)

// listBinary is the "input.exe" of the end-to-end test: it builds a
// table of N singly linked chains and then churns them — rebuilding a
// random chain per iteration. With the buggy flag (r15 != 0) the
// rebuild path drops the last node of each chain instead of linking
// it, leaking one node per rebuild: a systemic typo-style bug in
// machine code.
const listBinary = `
fn main
  loadi r1, 64         ; table: 8 slots
  alloc r10, r1        ; r10 = table base
  loadi r11, 0         ; slot index
fill:
  call buildchain      ; r2 = chain head
  mov r3, r11
  ; store chain head into table[r11] via computed address:
  ; addresses are byte-based, so use store with word offset trick:
  call storeslot
  loadi r4, 1
  add r11, r11, r4
  loadi r5, 8
  cmplt r6, r11, r5
  jnz r6, fill
  ; churn: 600 iterations of rebuild-random-slot
  loadi r12, 0
churn:
  loadi r5, 8
  rnd r11, r5
  call loadslot        ; r2 = old head
  call freechain
  call buildchain      ; r2 = new head
  call storeslot
  loadi r4, 1
  add r12, r12, r4
  loadi r5, 600
  cmplt r6, r12, r5
  jnz r6, churn
  halt

; storeslot: table[r11] = r2  (r10 = table base)
fn storeslot
  loadi r7, 8
  mul r8, r11, r7
  add r8, r10, r8      ; byte address of slot
  store r8, 0, r2
  ret

; loadslot: r2 = table[r11]
fn loadslot
  loadi r7, 8
  mul r8, r11, r7
  add r8, r10, r8
  load r2, r8, 0
  ret

; buildchain: r2 = head of a fresh 5-node chain [payload, next]
fn buildchain
  loadi r2, 0          ; head = nil
  loadi r9, 0          ; count
bloop:
  loadi r7, 16
  alloc r8, r7         ; node
  store r8, 0, r9      ; payload
  jnz r15, buggy       ; buggy build skips linking the old head
  store r8, 1, r2      ; node.next = head
buggy:
  mov r2, r8
  loadi r7, 1
  add r9, r9, r7
  loadi r7, 5
  cmplt r6, r9, r7
  jnz r6, bloop
  ret

; freechain: free nodes from r2 following next pointers
fn freechain
floop:
  jz r2, fdone
  load r8, r2, 1       ; next
  free r2
  mov r2, r8
  jmp floop
fdone:
  ret
`

func assemble(t *testing.T) *machine.Program {
	t.Helper()
	p, err := machine.Assemble(listBinary)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func TestInstrumentInsertsHooks(t *testing.T) {
	prog := assemble(t)
	inst, sym, err := Instrument(prog)
	if err != nil {
		t.Fatal(err)
	}
	if len(inst.Fns) != len(prog.Fns) {
		t.Fatalf("function count changed")
	}
	for i, fn := range inst.Fns {
		if fn.Code[0].Op != machine.ENTER {
			t.Errorf("%s: first op = %s, want enter", fn.Name, fn.Code[0].Op)
		}
		if sym.Name(event.FnID(fn.Code[0].Imm)) != fn.Name {
			t.Errorf("%s: enter hook resolves to %q", fn.Name,
				sym.Name(event.FnID(fn.Code[0].Imm)))
		}
		// Every RET is preceded by a LEAVE.
		for j, in := range fn.Code {
			if in.Op == machine.RET && fn.Code[j-1].Op != machine.LEAVE {
				t.Errorf("%s: ret at %d lacks preceding leave", fn.Name, j)
			}
		}
		// Original is untouched.
		for _, in := range prog.Fns[i].Code {
			if in.Op == machine.ENTER || in.Op == machine.LEAVE {
				t.Fatal("instrumentation leaked into the input program")
			}
		}
	}
}

func TestInstrumentRejectsDoubleInstrumentation(t *testing.T) {
	prog := assemble(t)
	inst, _, err := Instrument(prog)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := Instrument(inst); err == nil {
		t.Fatal("double instrumentation not rejected")
	}
}

// TestInstrumentedSemanticsUnchanged runs the same program plain and
// instrumented and checks the heap ends in the same state: hook
// insertion must not change behaviour (the Vulcan property).
func TestInstrumentedSemanticsUnchanged(t *testing.T) {
	prog := assemble(t)
	plain := machine.New(prog, event.NewSymtab(), machine.WithSeed(3))
	if err := plain.Run(); err != nil {
		t.Fatalf("plain run: %v", err)
	}
	inst, sym, err := Instrument(prog)
	if err != nil {
		t.Fatal(err)
	}
	vm := machine.New(inst, sym, machine.WithSeed(3))
	if err := vm.Run(); err != nil {
		t.Fatalf("instrumented run: %v", err)
	}
	if plain.Heap().Live() != vm.Heap().Live() {
		t.Errorf("live objects diverge: %d vs %d", plain.Heap().Live(), vm.Heap().Live())
	}
	if plain.Heap().Stats().Allocs != vm.Heap().Stats().Allocs {
		t.Errorf("alloc counts diverge")
	}
}

// TestBinaryPipelineEndToEnd is the paper's whole Figure 2 on machine
// code: instrument the binary, train a model over clean executions,
// then catch the buggy build (r15=1 path drops chain links) via a
// range violation.
func TestBinaryPipelineEndToEnd(t *testing.T) {
	prog := assemble(t)
	inst, sym, err := Instrument(prog)
	if err != nil {
		t.Fatal(err)
	}

	runOnce := func(seed uint64, buggy bool) *logger.Report {
		l := logger.New(logger.Options{Frequency: 8})
		l.SetRun("listbinary", "seed", 1)
		// r15 is the program's mode flag: the buggy build path (skip
		// chain linking) is taken when it is non-zero — the
		// machine-code analogue of "a specific call-site that was
		// only exercised on the buggy input".
		flag := uint64(0)
		if buggy {
			flag = 1
		}
		vm := machine.New(inst, sym, machine.WithSeed(seed), machine.WithSink(l), machine.WithReg(15, flag))
		if err := vm.Run(); err != nil {
			t.Fatalf("vm run: %v", err)
		}
		return l.Report()
	}

	var reports []*logger.Report
	for seed := uint64(1); seed <= 6; seed++ {
		reports = append(reports, runOnce(seed, false))
	}
	build, err := model.Build(reports, model.Defaults())
	if err != nil {
		t.Fatal(err)
	}
	if build.StableCount() == 0 {
		t.Fatal("no stable metrics for the list binary")
	}

	clean := runOnce(77, false)
	for _, f := range detect.CheckReport(build.Model, clean, detect.Options{}) {
		t.Errorf("false positive on clean binary: %s", f.Metric)
	}

	buggy := runOnce(78, true)
	findings := detect.CheckReport(build.Model, buggy, detect.Options{})
	if len(findings) == 0 {
		t.Fatal("buggy binary not detected")
	}
	var names []string
	for _, f := range findings {
		names = append(names, f.Metric+" "+f.Direction.String())
	}
	t.Logf("detected: %s", strings.Join(names, ", "))
}
