package ds

import (
	"heapmd/internal/faults"
	"heapmd/internal/prog"
)

// BST node layout: [key, left, right, parent].
const (
	bstKey    = 0
	bstLeft   = 1
	bstRight  = 2
	bstParent = 3
)

// BST is a binary search tree whose nodes carry parent back-pointers;
// header layout [root, size].
//
// In a healthy BST with parent pointers, an interior node has
// indegree 3 (its parent's child pointer plus back-pointers from both
// children) and every non-root node at least indegree 1 from its
// parent plus contributes a parent edge upward. The Figure 10 / PC
// Game(action) bug — "newly-inserted tree nodes were missing parent
// pointers from their children" — is reproduced at the insertion site
// under faults.TreeNoParent: the fresh node's children (none at
// insert time) never gain parent pointers later because the node is
// inserted as a leaf and the *link from the new node back to its
// parent* is skipped, leaving the parent with indegree reduced by one
// and inflating the population of indegree-1 vertices.
type BST struct {
	p    *prog.Process
	hdr  uint64
	name string
}

// NewBST allocates the header.
func NewBST(p *prog.Process, name string) *BST {
	defer p.Enter(name + ".new")()
	return &BST{p: p, hdr: p.AllocWords(2), name: name}
}

// Root returns the root node address, or 0.
func (t *BST) Root() uint64 { return t.p.LoadField(t.hdr, 0) }

// Size returns the stored node count.
func (t *BST) Size() int { return int(t.p.LoadField(t.hdr, 1)) }

func (t *BST) setRoot(n uint64) { t.p.StoreField(t.hdr, 0, n) }
func (t *BST) setSize(n int)    { t.p.StoreField(t.hdr, 1, uint64(n)) }

// Insert adds key (duplicates go right) and returns the new node.
// Under faults.TreeNoParent the child->parent back-pointer is skipped.
func (t *BST) Insert(key uint64) uint64 {
	defer t.p.Enter(t.name + ".insert")()
	return t.insertNoEnter(key)
}

// InsertMany inserts all keys within one function entry — bulk scene
// or index loading, so startup costs one metric computation point.
// The fault site is identical to Insert's.
func (t *BST) InsertMany(keys []uint64) {
	defer t.p.Enter(t.name + ".insertMany")()
	for _, k := range keys {
		t.insertNoEnter(k)
	}
}

func (t *BST) insertNoEnter(key uint64) uint64 {
	n := t.p.AllocWords(4)
	t.p.StoreField(n, bstKey, key)
	cur := t.Root()
	if cur == 0 {
		t.setRoot(n)
		t.setSize(t.Size() + 1)
		return n
	}
	for {
		k := t.p.LoadField(cur, bstKey)
		var childField int
		if key < k {
			childField = bstLeft
		} else {
			childField = bstRight
		}
		child := t.p.LoadField(cur, childField)
		if child == 0 {
			t.p.StoreField(cur, childField, n)
			if !t.p.Hit(faults.TreeNoParent) {
				t.p.StoreField(n, bstParent, cur)
			}
			t.setSize(t.Size() + 1)
			return n
		}
		cur = child
	}
}

// Find returns the node holding key, or 0. It issues Load traffic,
// giving access-tracking tools (SWAT) something to observe.
func (t *BST) Find(key uint64) uint64 {
	defer t.p.Enter(t.name + ".find")()
	cur := t.Root()
	for cur != 0 {
		k := t.p.LoadField(cur, bstKey)
		switch {
		case key == k:
			return cur
		case key < k:
			cur = t.p.LoadField(cur, bstLeft)
		default:
			cur = t.p.LoadField(cur, bstRight)
		}
	}
	return 0
}

// Min returns the minimum node under n (n itself if it has no left
// child), or 0 for an empty subtree.
func (t *BST) Min(n uint64) uint64 {
	for n != 0 {
		l := t.p.LoadField(n, bstLeft)
		if l == 0 {
			return n
		}
		n = l
	}
	return 0
}

// Delete removes the node holding key, reporting whether a node was
// removed. Navigation never trusts the stored parent back-pointers —
// they are an auxiliary invariant, not a navigation aid — so a tree
// damaged by the TreeNoParent fault still deletes correctly, matching
// the paper's observation that data-structure-invariant bugs
// "typically never result in crashes".
func (t *BST) Delete(key uint64) bool {
	defer t.p.Enter(t.name + ".delete")()
	var parent uint64
	n := t.Root()
	for n != 0 {
		k := t.p.LoadField(n, bstKey)
		if key == k {
			break
		}
		parent = n
		if key < k {
			n = t.p.LoadField(n, bstLeft)
		} else {
			n = t.p.LoadField(n, bstRight)
		}
	}
	if n == 0 {
		return false
	}
	t.deleteNode(n, parent)
	t.setSize(t.Size() - 1)
	return true
}

func (t *BST) findNoEnter(key uint64) uint64 {
	cur := t.Root()
	for cur != 0 {
		k := t.p.LoadField(cur, bstKey)
		switch {
		case key == k:
			return cur
		case key < k:
			cur = t.p.LoadField(cur, bstLeft)
		default:
			cur = t.p.LoadField(cur, bstRight)
		}
	}
	return 0
}

// replaceChild repoints parent's link from old to new (parent == 0
// means old was the root) and refreshes new's parent back-pointer.
func (t *BST) replaceChild(parent, old, new uint64) {
	switch {
	case parent == 0:
		t.setRoot(new)
	case t.p.LoadField(parent, bstLeft) == old:
		t.p.StoreField(parent, bstLeft, new)
	default:
		t.p.StoreField(parent, bstRight, new)
	}
	if new != 0 {
		t.p.StoreField(new, bstParent, parent)
	}
}

func (t *BST) deleteNode(n, parent uint64) {
	left := t.p.LoadField(n, bstLeft)
	right := t.p.LoadField(n, bstRight)
	switch {
	case left == 0:
		t.replaceChild(parent, n, right)
		t.p.Free(n)
	case right == 0:
		t.replaceChild(parent, n, left)
		t.p.Free(n)
	default:
		// Two children: splice in the successor (min of the right
		// subtree), tracking its parent by descent.
		sp, s := n, right
		for {
			l := t.p.LoadField(s, bstLeft)
			if l == 0 {
				break
			}
			sp, s = s, l
		}
		if sp != n {
			t.replaceChild(sp, s, t.p.LoadField(s, bstRight))
			t.p.StoreField(s, bstRight, right)
			t.p.StoreField(right, bstParent, s)
		}
		t.replaceChild(parent, n, s)
		t.p.StoreField(s, bstLeft, left)
		t.p.StoreField(left, bstParent, s)
		t.p.Free(n)
	}
}

// CheckParentInvariant counts nodes whose parent pointer disagrees
// with the downward linkage — the invariant the TreeNoParent fault
// breaks.
func (t *BST) CheckParentInvariant() (violations int) {
	defer t.p.Enter(t.name + ".checkParent")()
	var walk func(n, parent uint64)
	walk = func(n, parent uint64) {
		if n == 0 {
			return
		}
		if t.p.LoadField(n, bstParent) != parent {
			violations++
		}
		walk(t.p.LoadField(n, bstLeft), n)
		walk(t.p.LoadField(n, bstRight), n)
	}
	walk(t.Root(), 0)
	return violations
}

// FreeAll frees the whole tree and header.
func (t *BST) FreeAll() {
	defer t.p.Enter(t.name + ".freeAll")()
	var walk func(n uint64)
	walk = func(n uint64) {
		if n == 0 {
			return
		}
		walk(t.p.LoadField(n, bstLeft))
		walk(t.p.LoadField(n, bstRight))
		t.p.Free(n)
	}
	walk(t.Root())
	t.p.Free(t.hdr)
	t.hdr = 0
}

// FullBinaryTree builds a complete binary tree of the given depth and
// returns its root; node layout [payload, left, right]. Every
// interior node normally has two children; under faults.SingleChild
// interior nodes get only a left child — the indirect logic bug from
// Figure 9 ("many tree vertexes having a single child rather than
// two").
func FullBinaryTree(p *prog.Process, name string, depth int) uint64 {
	defer p.Enter(name + ".build")()
	return buildFull(p, depth)
}

func buildFull(p *prog.Process, depth int) uint64 {
	n := p.AllocWords(3)
	p.StoreField(n, 0, uint64(depth))
	if depth <= 0 {
		return n
	}
	p.StoreField(n, 1, buildFull(p, depth-1))
	if !p.Hit(faults.SingleChild) {
		p.StoreField(n, 2, buildFull(p, depth-1))
	}
	return n
}

// FreeBinaryTree releases a tree built by FullBinaryTree.
func FreeBinaryTree(p *prog.Process, name string, root uint64) {
	defer p.Enter(name + ".free")()
	var walk func(n uint64)
	walk = func(n uint64) {
		if n == 0 {
			return
		}
		walk(p.LoadField(n, 1))
		walk(p.LoadField(n, 2))
		p.Free(n)
	}
	walk(root)
}

// OctTree nodes have eight child slots plus a payload word: layout
// [child0..child7, payload]. A healthy oct-tree gives every non-root
// node indegree exactly 1. Under faults.OctDAG the builder reuses the
// first child subtree for ALL eight slots, producing an oct-DAG whose
// shared subtree roots have indegree 8 — this collapses the
// percentage of indegree-1 vertices to an extreme value from startup
// onward, the paper's only "poorly disguised" bug (Section 4.3).
type OctTree struct {
	p    *prog.Process
	root uint64
	name string
}

// BuildOctTree constructs an oct-tree of the given depth.
func BuildOctTree(p *prog.Process, name string, depth int) *OctTree {
	defer p.Enter(name + ".build")()
	t := &OctTree{p: p, name: name}
	t.root = t.build(depth)
	return t
}

func (t *OctTree) build(depth int) uint64 {
	n := t.p.AllocWords(9)
	t.p.StoreField(n, 8, uint64(depth))
	if depth <= 0 {
		return n
	}
	if t.p.Hit(faults.OctDAG) {
		shared := t.build(depth - 1)
		for c := 0; c < 8; c++ {
			t.p.StoreField(n, c, shared)
		}
		return n
	}
	for c := 0; c < 8; c++ {
		t.p.StoreField(n, c, t.build(depth-1))
	}
	return n
}

// Root returns the root node address.
func (t *OctTree) Root() uint64 { return t.root }

// CountNodes walks the structure counting distinct nodes (shared
// subtrees counted once).
func (t *OctTree) CountNodes() int {
	defer t.p.Enter(t.name + ".count")()
	seen := make(map[uint64]bool)
	var walk func(n uint64)
	walk = func(n uint64) {
		if n == 0 || seen[n] {
			return
		}
		seen[n] = true
		for c := 0; c < 8; c++ {
			walk(t.p.LoadField(n, c))
		}
	}
	walk(t.root)
	return len(seen)
}

// FreeAll releases every distinct node, in DFS collection order so
// that a seeded run's event stream is reproducible.
func (t *OctTree) FreeAll() {
	defer t.p.Enter(t.name + ".free")()
	seen := make(map[uint64]bool)
	var order []uint64
	var collect func(n uint64)
	collect = func(n uint64) {
		if n == 0 || seen[n] {
			return
		}
		seen[n] = true
		order = append(order, n)
		for c := 0; c < 8; c++ {
			collect(t.p.LoadField(n, c))
		}
	}
	collect(t.root)
	for _, n := range order {
		t.p.Free(n)
	}
	t.root = 0
}
