package heapgraph

// This file implements the whole-graph reference analyses for
// HeapMD's extension metrics (paper Section 2.1 lists "the size and
// number of connected and strongly connected components" as candidate
// metrics beyond the degree suite). Metric points never walk the
// graph: they read the incremental trackers (incremental.go,
// incremental_scc.go). The walks here are the trackers' test oracles —
// CheckComponents diffs the two, and the differential tests and
// fuzzers call it after mutation sequences.

import "fmt"

// WeaklyConnectedComponents returns the number of weakly connected
// components (edge direction ignored). Isolated vertices are singleton
// components.
func (g *Graph) WeaklyConnectedComponents() int {
	seen := make([]bool, len(g.gen))
	count := 0
	stack := make([]int32, 0, 64)
	for root := range g.gen {
		if !g.live(root) || seen[root] {
			continue
		}
		count++
		stack = append(stack[:0], int32(root))
		seen[root] = true
		for len(stack) > 0 {
			s := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			visit := func(w, _ int32) bool {
				if !seen[w] {
					seen[w] = true
					stack = append(stack, w)
				}
				return true
			}
			g.outAdj.At(s).each(visit)
			g.inAdj.At(s).each(visit)
		}
	}
	return count
}

// StronglyConnectedComponents returns the number of strongly connected
// components, found by an iterative Tarjan algorithm. The iterative
// formulation matters: heap graphs routinely contain list structures
// hundreds of thousands of vertices long, which would overflow the
// goroutine stack under naive recursion.
func (g *Graph) StronglyConnectedComponents() int {
	n := len(g.gen)
	if g.NumVertices() == 0 {
		return 0
	}
	index := make([]int32, n) // discovery index, 0 = unvisited
	lowlink := make([]int32, n)
	onStack := make([]bool, n)
	sccStack := make([]int32, 0, 64)
	next := int32(1)
	count := 0

	// frame emulates Tarjan's recursion: succs holds the successor
	// slots still to be explored.
	type frame struct {
		v     int32
		succs []int32
		pos   int
	}

	succsOf := func(s int32) []int32 {
		a := g.outAdj.At(s)
		d := a.distinct()
		if d == 0 {
			return nil
		}
		out := make([]int32, 0, d)
		a.each(func(w, _ int32) bool {
			out = append(out, w)
			return true
		})
		return out
	}

	for root := 0; root < n; root++ {
		if !g.live(root) || index[root] != 0 {
			continue
		}
		stack := []frame{{v: int32(root), succs: succsOf(int32(root))}}
		index[root] = next
		lowlink[root] = next
		next++
		sccStack = append(sccStack, int32(root))
		onStack[root] = true

		for len(stack) > 0 {
			f := &stack[len(stack)-1]
			if f.pos < len(f.succs) {
				w := f.succs[f.pos]
				f.pos++
				if index[w] == 0 {
					index[w] = next
					lowlink[w] = next
					next++
					sccStack = append(sccStack, w)
					onStack[w] = true
					stack = append(stack, frame{v: w, succs: succsOf(w)})
				} else if onStack[w] && index[w] < lowlink[f.v] {
					lowlink[f.v] = index[w]
				}
				continue
			}
			// All successors explored: pop the frame.
			v := f.v
			stack = stack[:len(stack)-1]
			if len(stack) > 0 {
				parent := stack[len(stack)-1].v
				if lowlink[v] < lowlink[parent] {
					lowlink[parent] = lowlink[v]
				}
			}
			if lowlink[v] == index[v] {
				// v is an SCC root: pop its component.
				for {
					w := sccStack[len(sccStack)-1]
					sccStack = sccStack[:len(sccStack)-1]
					onStack[w] = false
					if w == v {
						break
					}
				}
				count++
			}
		}
	}
	return count
}

// CheckComponents compares each component tracker the graph carries
// with its reference walk — the weak count with
// WeaklyConnectedComponents, the strong count with
// StronglyConnectedComponents — and returns a description of the
// first disagreement, or "" when they agree (or no tracker is on).
// Like a metric point, the query first rebuilds a stale tracker.
// Tests call it at every metric point as the differential oracle.
func (g *Graph) CheckComponents() string {
	if g.wcc != nil {
		if inc, ref := g.ConnectedComponentCount(), g.WeaklyConnectedComponents(); inc != ref {
			return fmt.Sprintf("weak components: incremental=%d reference=%d (V=%d E=%d)",
				inc, ref, g.NumVertices(), g.NumEdges())
		}
	}
	if g.scc != nil {
		if inc, ref := g.StronglyConnectedComponentCount(), g.StronglyConnectedComponents(); inc != ref {
			return fmt.Sprintf("strong components: incremental=%d reference=%d (V=%d E=%d)",
				inc, ref, g.NumVertices(), g.NumEdges())
		}
	}
	return ""
}
