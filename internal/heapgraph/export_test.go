package heapgraph

// WCCState reports how many full rebuilds the weak-connectivity
// tracker has run and whether it is stale now (0 and false with no
// tracker), for tests outside the package.
func (g *Graph) WCCState() (rebuilds int, stale bool) {
	if g.wcc == nil {
		return 0, false
	}
	return g.wcc.rebuilds, g.wcc.stale
}
