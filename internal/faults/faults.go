// Package faults defines the fault-injection plans that reproduce the
// paper's bug taxonomy (Figures 8 and 9, Section 4).
//
// The paper's evaluation finds bugs that were already present in
// commercial applications; a reproduction must instead inject them.
// Each fault name below corresponds to a bug mechanism described in
// the paper, and the data-structure library (package ds) and workloads
// consult the active Plan at the exact code sites where the original
// bugs lived: an insertion that forgets back-pointers, a free of a
// shared object, a copy loop with a wrong index, and so on.
//
// Faults are probabilistic and budgeted: a fault can be configured to
// fire on a fraction of its opportunities and/or at most N times,
// which is how the paper's "systemic" bugs (repeated often enough to
// move global heap metrics) are distinguished from "well disguised"
// ones (too rare to matter).
//
// A Plan is safe for concurrent use: the soak harness and parallel
// run schedulers may share one plan across goroutines, so Hit and the
// accessors serialize on an internal mutex.
package faults

import (
	"fmt"
	"math/rand"
	"sync"
)

// Canonical fault names. Each maps to a paper bug class.
const (
	// DListNoPrev skips updating prev pointers on doubly-linked-list
	// insertion — the Figure 1 bug (data-structure invariant).
	DListNoPrev = "dlist-missing-prev"
	// TypoLeak drops a list head during a table copy due to a wrong
	// index — the Figure 11 bug (programming typo causing a leak).
	TypoLeak = "typo-wrong-index-leak"
	// SharedFree frees the head of a circular list that the tail
	// still references — the Figure 12 bug (shared-state error,
	// dangling pointer).
	SharedFree = "shared-free-dangling"
	// TreeNoParent omits child->parent pointers on tree insertion
	// from one call site — the Figure 10 / PC Game(action) bug
	// (data-structure invariant).
	TreeNoParent = "tree-missing-parent"
	// OctDAG makes an oct-tree construction share subtrees,
	// producing an oct-DAG — the paper's only *poorly disguised*
	// bug (Section 4.3).
	OctDAG = "octtree-dag"
	// BadHash selects a degenerate hash function, collapsing a hash
	// table into a few long chains — the "performance bug"
	// (indirect, Figure 9).
	BadHash = "hash-bad-function"
	// SingleChild makes a tree builder produce one child where two
	// are normal — indirect logic error (Figure 9).
	SingleChild = "tree-single-child"
	// AtypicalGraph produces malformed adjacency-list graphs — the
	// localization bug (indirect, Figure 9).
	AtypicalGraph = "graph-atypical-adjacency"
	// SmallLeak leaks only a handful of objects — a *well disguised*
	// bug HeapMD must NOT detect (Section 4.2).
	SmallLeak = "leak-few-objects"
	// ReachableLeak leaks objects that stay reachable — an
	// *invisible* bug HeapMD must NOT detect; only staleness-based
	// tools like SWAT can (Section 4.2).
	ReachableLeak = "leak-reachable"

	// The extended catalog: failure modes beyond the paper's original
	// mechanisms, exercised by the soak harness (internal/soak).

	// FragStorm is an alloc/free size-churn burst that strands
	// transient fragments — isolated vertices that inflate the
	// Roots/Leaves/In=Out populations while the storm lasts
	// (systemic; wired into the churn pools).
	FragStorm = "frag-storm"
	// LeakPlateau is a leak that stops before the detection window
	// closes: a replace path forgets to release outgoing objects
	// until a trigger budget is exhausted, then plateaus (systemic;
	// wired into ptrTable.replace).
	LeakPlateau = "leak-then-plateau"
	// ABARewire is an ABA-style dangling rewire: a list node is
	// handed back to the allocator before its unlink completes, and
	// the rewire finishes through the stale pointer — use-after-free
	// stores that can land inside whatever object recycles the
	// address (systemic corruption; wired into ds.DList.Remove).
	ABARewire = "aba-dangling-rewire"
	// AllocCascade is an allocator-pressure cascade: burst
	// allocations whose release is deferred several operations, so
	// bursts overlap — standing allocator pressure whose event
	// spikes also stress the monitoring pipeline (systemic; wired
	// into the workloads' burst pools).
	AllocCascade = "alloc-pressure-cascade"
	// SlowDrift is a bounded creep that stays under the paper's ±1%
	// stability threshold: a tiny trickle of leaked objects, capped
	// far inside every calibrated band — a must-NOT-detect case
	// (well disguised; wired next to the negative-control leak
	// sites).
	SlowDrift = "drift-sub-threshold"
)

// Class places a fault in the paper's Section 4.2/4.3 taxonomy, which
// is what fixes the detector's expected verdict: systemic, indirect
// and poorly-disguised bugs must be detected; well-disguised and
// invisible ones must not.
type Class int

const (
	// Systemic bugs repeat often enough to move global heap metrics.
	Systemic Class = iota
	// Indirect bugs damage the heap as a side effect of a logic
	// error (degenerate hash, malformed graph); still detected.
	Indirect
	// PoorlyDisguised bugs pin a stable metric at a calibrated
	// extreme for the whole run (the oct-DAG).
	PoorlyDisguised
	// Disguised bugs are too small or too slow to move any metric
	// out of band; HeapMD must stay quiet.
	Disguised
	// Invisible bugs never change the heap graph's shape at all
	// (reachable leaks); only staleness-based tools see them.
	Invisible
)

func (c Class) String() string {
	switch c {
	case Systemic:
		return "systemic"
	case Indirect:
		return "indirect"
	case PoorlyDisguised:
		return "poorly-disguised"
	case Disguised:
		return "disguised"
	case Invisible:
		return "invisible"
	default:
		return fmt.Sprintf("faults.Class(%d)", int(c))
	}
}

// CatalogEntry describes one fault: its mechanism, its place in the
// taxonomy and the verdict HeapMD is expected to reach.
type CatalogEntry struct {
	Name      string
	Class     Class
	Mechanism string
	// ExpectDetect is the taxonomy's verdict: true for systemic,
	// indirect and poorly-disguised faults, false for disguised and
	// invisible ones.
	ExpectDetect bool
}

// Catalog enumerates every fault in a fixed order: the paper's
// original mechanisms first, then the extended soak catalog.
func Catalog() []CatalogEntry {
	return []CatalogEntry{
		{DListNoPrev, Systemic, "skip prev pointers on doubly-linked-list insert (Figure 1)", true},
		{TypoLeak, Systemic, "wrong-index table copy leaks property lists (Figure 11)", true},
		{SharedFree, Systemic, "free shared circular-list head, dangling tail (Figure 12)", true},
		{TreeNoParent, Systemic, "omit child->parent pointers on tree insert (Figure 10)", true},
		{OctDAG, PoorlyDisguised, "share oct-tree subtrees, producing an oct-DAG", true},
		{BadHash, Indirect, "degenerate hash function, long collision chains", true},
		{SingleChild, Indirect, "binary-tree builder emits one child, not two", true},
		{AtypicalGraph, Indirect, "adjacency-list generator collapses to a star", true},
		{SmallLeak, Disguised, "leak a handful of objects (should NOT fire)", false},
		{ReachableLeak, Invisible, "grow a never-accessed reachable cache (should NOT fire)", false},
		{FragStorm, Systemic, "alloc/free size churn strands transient fragments", true},
		{LeakPlateau, Systemic, "leak that plateaus before the detection window closes", true},
		{ABARewire, Systemic, "node freed mid-unlink; rewire writes through the stale pointer", true},
		{AllocCascade, Systemic, "burst allocations with deferred release starve the pipeline", true},
		{SlowDrift, Disguised, "creep capped under the stability threshold (should NOT fire)", false},
	}
}

// Lookup returns the catalog entry for name.
func Lookup(name string) (CatalogEntry, bool) {
	for _, e := range Catalog() {
		if e.Name == name {
			return e, true
		}
	}
	return CatalogEntry{}, false
}

// Config controls one fault.
type Config struct {
	// Enabled gates the fault entirely.
	Enabled bool
	// Prob is the probability the fault fires at each opportunity;
	// 0 means 1.0 (always). Use Always or ProbOf to avoid tripping
	// over the zero value.
	Prob float64
	// MaxTriggers caps the number of firings; 0 means unlimited.
	MaxTriggers int
}

// Always returns a Config that fires at every opportunity — the
// explicit spelling of the zero value's "Prob 0 means 1.0" rule.
func Always() Config { return Config{} }

// ProbOf returns a Config that fires with the given probability.
// prob must be in (0, 1]; ProbOf panics otherwise, because
// Config.Prob's zero value means "always" and a silently-zero
// probability would invert the intended rarity (the footgun this
// constructor exists to remove).
func ProbOf(prob float64) Config {
	if prob <= 0 || prob > 1 {
		panic(fmt.Sprintf("faults.ProbOf: probability %v outside (0, 1]", prob))
	}
	return Config{Prob: prob}
}

// Plan is a set of configured faults plus firing counters. The zero
// value is a usable all-disabled plan. All methods are safe for
// concurrent use.
type Plan struct {
	mu       sync.Mutex
	configs  map[string]Config
	triggers map[string]int
}

// NewPlan returns an empty (all-disabled) plan.
func NewPlan() *Plan {
	return &Plan{
		configs:  make(map[string]Config),
		triggers: make(map[string]int),
	}
}

// Enable activates a fault with the given config.
func (p *Plan) Enable(name string, cfg Config) *Plan {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.configs == nil {
		p.configs = make(map[string]Config)
		p.triggers = make(map[string]int)
	}
	cfg.Enabled = true
	p.configs[name] = cfg
	return p
}

// EnableAlways activates a fault that fires at every opportunity.
func (p *Plan) EnableAlways(name string) *Plan {
	return p.Enable(name, Always())
}

// Enabled reports whether the fault is active (regardless of
// probability or budget).
func (p *Plan) Enabled(name string) bool {
	if p == nil {
		return false
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.configs == nil {
		return false
	}
	return p.configs[name].Enabled
}

// Hit decides whether the fault fires at this opportunity, consuming
// budget and randomness as configured. A nil plan never fires. The
// decision — probability draw, budget check and counter increment —
// is atomic under the plan's lock, so a shared plan's MaxTriggers
// budget is exact even when hit from many goroutines (each with its
// own *rand.Rand).
func (p *Plan) Hit(name string, rng *rand.Rand) bool {
	if p == nil {
		return false
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.configs == nil {
		return false
	}
	cfg, ok := p.configs[name]
	if !ok || !cfg.Enabled {
		return false
	}
	if cfg.MaxTriggers > 0 && p.triggers[name] >= cfg.MaxTriggers {
		return false
	}
	if cfg.Prob > 0 && cfg.Prob < 1 {
		if rng == nil || rng.Float64() >= cfg.Prob {
			return false
		}
	}
	p.triggers[name]++
	return true
}

// Triggers returns how many times the fault has fired.
func (p *Plan) Triggers(name string) int {
	if p == nil {
		return 0
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.triggers == nil {
		return 0
	}
	return p.triggers[name]
}
