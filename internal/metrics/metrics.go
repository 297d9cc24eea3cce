// Package metrics defines the heap-graph metric suite HeapMD computes
// at metric computation points (paper Section 2.1).
//
// The paper's model constructor computes seven degree-based metrics,
// each the percentage of heap-graph vertices with a given degree
// property. The architecture "allows other metrics to be easily added
// in the future"; this package mirrors that by defining an ID space
// with the seven degree metrics as the default suite and the
// structure metrics the paper names as candidates (connected and
// strongly connected component counts) as an optional extension.
package metrics

import (
	"fmt"

	"heapmd/internal/heapgraph"
)

// ID identifies one heap-graph metric.
type ID int

// The paper's seven degree-based metrics (Section 2.1), in the order
// the paper lists them, followed by extension metrics.
const (
	// Roots is the percentage of vertices with indegree = 0: data
	// structures referenced only from the stack and globals — or
	// leaked.
	Roots ID = iota
	// InDeg1 is the percentage of vertices with indegree = 1.
	InDeg1
	// InDeg2 is the percentage of vertices with indegree = 2.
	InDeg2
	// Leaves is the percentage of vertices with outdegree = 0.
	Leaves
	// OutDeg1 is the percentage of vertices with outdegree = 1.
	OutDeg1
	// OutDeg2 is the percentage of vertices with outdegree = 2.
	OutDeg2
	// InEqOut is the percentage of vertices with indegree equal to
	// outdegree.
	InEqOut

	// Components is the number of weakly connected components per
	// 100 vertices. Normalizing by graph size keeps the metric
	// comparable across heap sizes, like the percentage metrics.
	// Extension metric, read from the graph's incremental union-find
	// tracker: O(churn since the last sample), not O(heap).
	Components
	// SCCs is the number of strongly connected components per 100
	// vertices. Extension metric, read from the incremental SCC
	// tracker like Components.
	SCCs

	numIDs
)

// NumIDs is the total number of defined metric IDs.
const NumIDs = int(numIDs)

var names = [...]string{
	Roots:      "Roots",
	InDeg1:     "Indeg=1",
	InDeg2:     "Indeg=2",
	Leaves:     "Leaves",
	OutDeg1:    "Outdeg=1",
	OutDeg2:    "Outdeg=2",
	InEqOut:    "In=Out",
	Components: "WCC/100v",
	SCCs:       "SCC/100v",
}

// String returns the metric's display name, matching the labels used
// in the paper's Figure 7 ("Outdeg=2", "Leaves", "Root", ...).
func (id ID) String() string {
	if id < 0 || id >= numIDs {
		return fmt.Sprintf("metrics.ID(%d)", int(id))
	}
	return names[id]
}

// ParseID resolves a display name back to an ID.
func ParseID(name string) (ID, error) {
	for id, n := range names {
		if n == name {
			return ID(id), nil
		}
	}
	return 0, fmt.Errorf("metrics: unknown metric %q", name)
}

// Suite is an ordered set of metrics to compute at each metric
// computation point.
type Suite struct {
	ids []ID
}

// NewSuite builds a suite from the given metric IDs. Duplicates are
// removed, order is preserved.
func NewSuite(ids ...ID) Suite {
	seen := make(map[ID]bool, len(ids))
	out := make([]ID, 0, len(ids))
	for _, id := range ids {
		if id < 0 || id >= numIDs || seen[id] {
			continue
		}
		seen[id] = true
		out = append(out, id)
	}
	return Suite{ids: out}
}

// The two standard suites are built once and shared: a suite's IDs are
// read-only, so every logger reset that takes a default costs nothing.
var (
	defaultSuite  = NewSuite(Roots, InDeg1, InDeg2, Leaves, OutDeg1, OutDeg2, InEqOut)
	extendedSuite = NewSuite(Roots, InDeg1, InDeg2, Leaves, OutDeg1, OutDeg2, InEqOut, Components, SCCs)
)

// DefaultSuite returns the paper's seven degree-based metrics.
func DefaultSuite() Suite { return defaultSuite }

// ExtendedSuite returns the default suite plus the structure
// extension metrics.
func ExtendedSuite() Suite { return extendedSuite }

// IDs returns the suite's metric IDs in evaluation order. The caller
// must not modify the returned slice.
func (s Suite) IDs() []ID { return s.ids }

// Len returns the number of metrics in the suite.
func (s Suite) Len() int { return len(s.ids) }

// Index returns the position of id within the suite, or -1.
func (s Suite) Index(id ID) int {
	for i, x := range s.ids {
		if x == id {
			return i
		}
	}
	return -1
}

// Snapshot is one evaluation of a Suite: Values[i] corresponds to
// Suite.IDs()[i]. Tick records the metric-computation-point ordinal at
// which it was taken, and Vertices/Edges the graph size, so reports can
// reconstruct the execution-progress axis of the paper's figures.
type Snapshot struct {
	Tick     uint64    `json:"tick"`
	Vertices int       `json:"vertices"`
	Edges    int       `json:"edges"`
	Values   []float64 `json:"values"`
}

// Compute evaluates the suite against g into values, which must hold
// exactly Len() elements, and returns the snapshot whose Values is
// values. Every element is written. An empty graph yields zeros for
// every metric: with no vertices there is no population to take
// percentages of, and treating the metrics as zero keeps startup
// samples well-defined (they are trimmed away by the summarizer
// anyway).
func (s Suite) Compute(g *heapgraph.Graph, tick uint64, values []float64) Snapshot {
	values = values[:len(s.ids)]
	n := g.NumVertices()
	snap := Snapshot{Tick: tick, Vertices: n, Edges: g.NumEdges(), Values: values}
	if n == 0 {
		clear(values)
		return snap
	}
	pct := func(count int) float64 { return float64(count) / float64(n) * 100 }
	for i, id := range s.ids {
		switch id {
		case Roots:
			values[i] = pct(g.CountInDegree(0))
		case InDeg1:
			values[i] = pct(g.CountInDegree(1))
		case InDeg2:
			values[i] = pct(g.CountInDegree(2))
		case Leaves:
			values[i] = pct(g.CountOutDegree(0))
		case OutDeg1:
			values[i] = pct(g.CountOutDegree(1))
		case OutDeg2:
			values[i] = pct(g.CountOutDegree(2))
		case InEqOut:
			values[i] = pct(g.CountInEqOut())
		case Components:
			values[i] = float64(g.ConnectedComponentCount()) / float64(n) * 100
		case SCCs:
			values[i] = float64(g.StronglyConnectedComponentCount()) / float64(n) * 100
		}
	}
	return snap
}

// AppendSeries appends column idx of snaps — one metric's time series —
// to dst and returns it. Snapshots narrower than idx+1 values (rows
// taken with a narrower suite, such as a v1 trace's report read with
// extended metric names) are skipped rather than indexed out of range.
func AppendSeries(dst []float64, snaps []Snapshot, idx int) []float64 {
	for _, sn := range snaps {
		if idx < len(sn.Values) {
			dst = append(dst, sn.Values[idx])
		}
	}
	return dst
}
