package heapgraph

// WCCState reports how many full rebuilds the weak-connectivity
// tracker has run and whether it is dirty now (0 and false with no
// tracker), for tests outside the package.
func (g *Graph) WCCState() (rebuilds int, dirty bool) {
	if g.wcc == nil {
		return 0, false
	}
	return g.wcc.rebuilds, g.wcc.dirty > 0
}
