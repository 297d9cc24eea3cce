// Package prog provides the simulated-process runtime that workloads
// are written against.
//
// In the paper, the subject is an instrumented x86 binary: Vulcan
// rewrites it so that allocator calls, heap writes and (for HeapMD's
// metric computation points) function entries report to the execution
// logger. Here, a workload is Go code driving a Process; the Process
// plays the instrumented binary's role, forwarding one merged event
// stream — heap activity from the simulated allocator plus
// Enter/Leave call events — to every subscribed sink (the execution
// logger, the trace writer, the SWAT baseline).
//
// Process methods panic with *Fault on simulator errors (double free,
// wild free of a non-base address, address-space exhaustion) instead
// of returning errors, keeping workload code linear; the Run harness
// converts such panics into returned errors.
package prog

import (
	"errors"
	"fmt"
	"math/rand"

	"heapmd/internal/event"
	"heapmd/internal/faults"
	"heapmd/internal/heap"
)

// Fault wraps a simulator error raised during workload execution.
type Fault struct {
	Op   string // operation that failed ("alloc", "free", ...)
	Addr uint64
	Err  error
}

func (f *Fault) Error() string {
	return fmt.Sprintf("prog: %s at %#x: %v", f.Op, f.Addr, f.Err)
}

func (f *Fault) Unwrap() error { return f.Err }

// Process is one simulated program execution context.
type Process struct {
	heap   *heap.Sim
	sym    *event.Symtab
	sinks  event.Multi
	stack  []event.FnID
	rng    *rand.Rand
	plan   *faults.Plan
	frees  int
	closed bool
}

// Options configures a Process.
type Options struct {
	// Seed drives the deterministic RNG workloads use; runs with
	// equal seeds and equal workload parameters are bit-identical.
	Seed int64
	// Plan is the fault-injection plan; nil means no faults.
	Plan *faults.Plan
}

// NewProcess creates a process with its own heap, symbol table and RNG.
func NewProcess(opts Options) *Process {
	return &Process{
		heap: heap.New(),
		sym:  event.NewSymtab(),
		rng:  rand.New(rand.NewSource(opts.Seed)),
		plan: opts.Plan,
	}
}

// Subscribe attaches a sink to the merged event stream. Must be
// called before the workload runs.
func (p *Process) Subscribe(sink event.Sink) {
	p.sinks = append(p.sinks, sink)
	p.heap.Subscribe(sink)
}

// Unsubscribe detaches sink from the merged event stream and from the
// heap: events after it do not reach sink. The process keeps running.
func (p *Process) Unsubscribe(sink event.Sink) {
	p.sinks = p.sinks.Without(sink)
	p.heap.Unsubscribe(sink)
}

// Sym returns the process symbol table.
func (p *Process) Sym() *event.Symtab { return p.sym }

// Heap exposes the underlying simulated heap for inspection.
func (p *Process) Heap() *heap.Sim { return p.heap }

// Rand returns the process's deterministic RNG.
func (p *Process) Rand() *rand.Rand { return p.rng }

// Plan returns the fault plan (never nil; a disabled plan is returned
// when none was configured).
func (p *Process) Plan() *faults.Plan {
	if p.plan == nil {
		p.plan = faults.NewPlan()
	}
	return p.plan
}

// Hit consults the fault plan with the process RNG.
func (p *Process) Hit(fault string) bool {
	return p.plan.Hit(fault, p.rng)
}

// Enter records entry into the named function — a metric computation
// point candidate — and returns the matching leave function:
//
//	defer p.Enter("rebuildIndex")()
func (p *Process) Enter(fn string) func() {
	id := p.sym.Intern(fn)
	p.stack = append(p.stack, id)
	p.heap.SetSite(id)
	p.emit(event.Event{Type: event.Enter, Fn: id})
	return p.leave
}

func (p *Process) leave() {
	if len(p.stack) == 0 {
		return
	}
	top := p.stack[len(p.stack)-1]
	p.stack = p.stack[:len(p.stack)-1]
	p.emit(event.Event{Type: event.Leave, Fn: top})
	if len(p.stack) > 0 {
		p.heap.SetSite(p.stack[len(p.stack)-1])
	} else {
		p.heap.SetSite(event.NoFn)
	}
}

func (p *Process) emit(e event.Event) {
	if len(p.sinks) > 0 {
		p.sinks.Emit(e)
	}
}

// Alloc allocates size bytes and returns the base address.
func (p *Process) Alloc(size uint64) uint64 {
	a, err := p.heap.Alloc(size)
	if err != nil {
		panic(&Fault{Op: "alloc", Err: err})
	}
	return a
}

// AllocWords allocates n words.
func (p *Process) AllocWords(n int) uint64 {
	return p.Alloc(uint64(n) * heap.WordSize)
}

// Free releases the object at addr.
func (p *Process) Free(addr uint64) {
	if err := p.heap.Free(addr); err != nil {
		panic(&Fault{Op: "free", Addr: addr, Err: err})
	}
	p.frees++
}

// Store writes value at addr (word-aligned).
func (p *Process) Store(addr, value uint64) {
	if err := p.heap.Store(addr, value); err != nil {
		panic(&Fault{Op: "store", Addr: addr, Err: err})
	}
}

// StoreField writes value into word field of the object at base.
func (p *Process) StoreField(base uint64, field int, value uint64) {
	p.Store(base+uint64(field)*heap.WordSize, value)
}

// Load reads the word at addr.
func (p *Process) Load(addr uint64) uint64 {
	v, err := p.heap.Load(addr)
	if err != nil {
		panic(&Fault{Op: "load", Addr: addr, Err: err})
	}
	return v
}

// LoadField reads word field of the object at base.
func (p *Process) LoadField(base uint64, field int) uint64 {
	return p.Load(base + uint64(field)*heap.WordSize)
}

// ErrPanicked wraps non-Fault panics escaping a workload.
var ErrPanicked = errors.New("prog: workload panicked")

// Run executes fn, converting *Fault panics (and any other panic)
// into a returned error. This is the boundary between workload code
// (which panics on simulator misuse, as a real program would crash)
// and the harness.
func Run(fn func()) (err error) {
	defer func() {
		if r := recover(); r != nil {
			if f, ok := r.(*Fault); ok {
				err = f
				return
			}
			err = fmt.Errorf("%w: %v", ErrPanicked, r)
		}
	}()
	fn()
	return nil
}
