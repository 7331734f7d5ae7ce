// Package clocktree models the paper's CLK trees (assumption A4): rooted
// binary trees laid out in the plane that distribute clock events to the
// cells of a COMM graph. It provides the clock layouts the paper studies —
// H-trees (Fig. 3), the spine clock for one-dimensional arrays (Fig. 4),
// folded (Fig. 5) and comb (Fig. 6) variants, serpentine and random trees
// for the Section V-B lower-bound experiments — plus buffer insertion
// (A7) and the distance queries (root distance d, tree-path distance s)
// that the two skew models of Section III are defined on.
package clocktree

import (
	"fmt"
	"math"

	"repro/internal/comm"
	"repro/internal/geom"
)

// NodeID identifies a node of a clock tree; IDs are dense in [0, NumNodes).
type NodeID int

// Node is one vertex of the clock distribution tree. A node may be the
// clocking point of a cell (Cell ≥ 0), an internal branch point, or an
// inserted buffer.
type Node struct {
	ID     NodeID
	Pos    geom.Point
	Cell   comm.CellID // comm.Host (-1) if the node clocks no cell
	Buffer bool        // true for nodes inserted by Buffered (A7)
}

// Tree is a rooted binary clock tree with a planar wire layout, stored as
// flat arrays indexed by NodeID. Nodes are numbered in DFS preorder with
// children visited in ascending ID order: the root is node 0, node v's
// first child is v+1, and each later child follows the previous child's
// whole subtree. So every parent precedes its children, one ascending
// pass computes root distances and depths, and the parent and edge
// arrays are themselves the schedule a clock event propagates down.
// Wires are rectilinear L routes and are regenerated from the node
// positions on demand rather than stored. Build one with a Builder; a
// finalized Tree is immutable apart from Equalize and is safe for
// concurrent reads.
type Tree struct {
	Name string

	pos    []geom.Point
	cell   []int32 // comm.Host for nodes that clock no cell
	buffer []bool

	parent   []int32   // -1 at the root
	depth    []int32   // edges from the root
	edgeLen  []float64 // wire length from parent(v) to v, 0 at the root
	extra    []float64 // tuning slack added to edge v by Equalize; nil if none
	rootDist []float64

	// Child lists in CSR form: v's children, in ascending ID order, are
	// kids[kidStart[v]:kidStart[v+1]].
	kidStart []int32
	kids     []NodeID

	cellNode []int32 // node clocking each cell, indexed by CellID; -1 if none
}

// NumNodes returns the number of tree nodes.
func (t *Tree) NumNodes() int { return len(t.pos) }

// Root returns the root node ID.
func (t *Tree) Root() NodeID { return 0 }

// Node returns the node with the given ID.
func (t *Tree) Node(id NodeID) Node {
	return Node{ID: id, Pos: t.pos[id], Cell: comm.CellID(t.cell[id]), Buffer: t.buffer[id]}
}

// Parent returns the parent of v, or -1 for the root.
func (t *Tree) Parent(v NodeID) NodeID { return NodeID(t.parent[v]) }

// Children returns v's children in ascending ID order; the slice must not
// be modified.
func (t *Tree) Children(v NodeID) []NodeID {
	return t.kids[t.kidStart[v]:t.kidStart[v+1]]
}

// Wire returns the rectilinear wire route from v's parent to v (nil at
// the root), regenerated from the two node positions.
func (t *Tree) Wire(v NodeID) geom.Path {
	p := t.parent[v]
	if p < 0 {
		return nil
	}
	return geom.Rectilinear(t.pos[p], t.pos[v])
}

// Parents returns every node's parent, indexed by NodeID (-1 at the
// root): in preorder, the schedule a clock event propagates down. The
// slice must not be modified.
func (t *Tree) Parents() []int32 { return t.parent }

// IsBuffer reports whether v is a buffer node inserted by Buffered (A7).
func (t *Tree) IsBuffer(v NodeID) bool { return t.buffer[v] }

// EdgeLen returns the electrical length of the wire from v's parent to v,
// including any tuning slack added by Equalize.
func (t *Tree) EdgeLen(v NodeID) float64 {
	if t.extra == nil {
		return t.edgeLen[v]
	}
	return t.edgeLen[v] + t.extra[v]
}

// CellNode returns the tree node that clocks the given cell.
func (t *Tree) CellNode(c comm.CellID) (NodeID, bool) {
	if c < 0 || int(c) >= len(t.cellNode) || t.cellNode[c] < 0 {
		return -1, false
	}
	return NodeID(t.cellNode[c]), true
}

// RootDist returns the electrical length of the path from the root to v —
// the h value of Section III.
func (t *Tree) RootDist(v NodeID) float64 { return t.rootDist[v] }

// CellRootDist returns the root distance of the node clocking cell c.
func (t *Tree) CellRootDist(c comm.CellID) float64 {
	return t.rootDist[t.mustCellNode(c)]
}

// MaxRootDist returns the longest root-to-node electrical length P; per
// A6 the equipotential distribution time τ is at least α·P.
func (t *Tree) MaxRootDist() float64 {
	var m float64
	for _, d := range t.rootDist {
		if d > m {
			m = d
		}
	}
	return m
}

// LCA returns the lowest common ancestor of a and b by walking parent
// links: lift the deeper node to the shallower's depth, then walk both up
// in lockstep. O(depth) per query; callers with a known pair list use
// PathLens instead.
func (t *Tree) LCA(a, b NodeID) NodeID {
	for t.depth[a] > t.depth[b] {
		a = NodeID(t.parent[a])
	}
	for t.depth[b] > t.depth[a] {
		b = NodeID(t.parent[b])
	}
	for a != b {
		a = NodeID(t.parent[a])
		b = NodeID(t.parent[b])
	}
	return a
}

// PathLen returns the electrical length s of the tree path connecting a
// and b: rootDist(a) + rootDist(b) − 2·rootDist(lca). This is the distance
// the summation model (A10/A11) is defined on.
func (t *Tree) PathLen(a, b NodeID) float64 {
	l := t.LCA(a, b)
	return t.rootDist[a] + t.rootDist[b] - 2*t.rootDist[l]
}

// PairNodes resolves every pair of ix, in the index's canonical order, to
// the tree nodes clocking its two cells. The tree must clock every cell
// the pairs name (see Covers).
func (t *Tree) PairNodes(ix *comm.PairIndex) (a, b []int32) {
	a = make([]int32, ix.NumPairs())
	b = make([]int32, len(a))
	c := ix.Cursor(0)
	for i := range a {
		ca, cb, _ := c.Next()
		a[i], b[i] = t.cellNode[ca], t.cellNode[cb]
	}
	return a, b
}

// PathLens sets s[i] = PathLen(a[i], b[i]) for every i, resolving all the
// LCAs in one offline pass (Tarjan's algorithm) in O(nodes + pairs) time:
// a depth-first walk enters each node, answers every query whose other
// endpoint was entered earlier with the union-find root of that endpoint
// — its deepest ancestor still on the walk's path — and on leaving a node
// links it to its parent. The arithmetic is PathLen's, so the results are
// bit-identical to per-pair queries.
func (t *Tree) PathLens(a, b []int32, s []float64) {
	n := len(t.parent)
	// Queries in CSR form: the pair indices touching v are
	// q[qStart[v]:qStart[v+1]].
	qStart := make([]int32, n+1)
	for i := range a {
		qStart[a[i]]++
		qStart[b[i]]++
	}
	var sum int32
	for v := 0; v < n; v++ {
		sum += qStart[v]
		qStart[v] = sum
	}
	qStart[n] = sum
	q := make([]int32, sum)
	for i := len(a) - 1; i >= 0; i-- {
		qStart[a[i]]--
		q[qStart[a[i]]] = int32(i)
		qStart[b[i]]--
		q[qStart[b[i]]] = int32(i)
	}

	// uf[v] is -1 before v is entered, v while v is on the walk's path,
	// and v's parent once v's subtree is done.
	uf := make([]int32, n)
	for v := range uf {
		uf[v] = -1
	}
	find := func(x int32) int32 {
		r := x
		for uf[r] != r {
			r = uf[r]
		}
		for uf[x] != r {
			x, uf[x] = uf[x], r
		}
		return r
	}
	// A negative stack entry ^v marks the exit from v's subtree.
	stack := []int32{0}
	for len(stack) > 0 {
		v := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		if v < 0 {
			uf[^v] = t.parent[^v]
			continue
		}
		uf[v] = v
		for _, i := range q[qStart[v]:qStart[v+1]] {
			u := a[i]
			if u == v {
				u = b[i]
			}
			if uf[u] >= 0 {
				s[i] = t.rootDist[a[i]] + t.rootDist[b[i]] - 2*t.rootDist[find(u)]
			}
		}
		if v != 0 {
			stack = append(stack, ^v)
		}
		for _, c := range t.kids[t.kidStart[v]:t.kidStart[v+1]] {
			stack = append(stack, int32(c))
		}
	}
}

// DiffDist returns the positive difference d between the root distances of
// a and b — the distance the difference model (A9) is defined on.
func (t *Tree) DiffDist(a, b NodeID) float64 {
	return math.Abs(t.rootDist[a] - t.rootDist[b])
}

// CellPathLen returns PathLen between the nodes clocking cells a and b.
func (t *Tree) CellPathLen(a, b comm.CellID) float64 {
	return t.PathLen(t.mustCellNode(a), t.mustCellNode(b))
}

func (t *Tree) mustCellNode(c comm.CellID) NodeID {
	id, ok := t.CellNode(c)
	if !ok {
		panic(fmt.Sprintf("clocktree: cell %d is not clocked by tree %q", c, t.Name))
	}
	return id
}

// TotalWireLength returns the total electrical length of all tree wires,
// used for layout-area accounting (Lemma 1: the clock tree must fit in a
// constant factor of the layout area; with unit-width wires, wire length
// is wire area by A3).
func (t *Tree) TotalWireLength() float64 {
	var sum float64
	for v := range t.pos {
		sum += t.EdgeLen(NodeID(v))
	}
	return sum
}

// Bounds returns the bounding rectangle of the tree. Every wire is an L
// route whose corner lies in its endpoints' bounding box, so the node
// positions bound the wires too.
func (t *Tree) Bounds() geom.Rect {
	return geom.BoundingRect(t.pos...)
}

// FootprintBytes returns the bytes the tree's arrays retain, computed from
// their capacities.
func (t *Tree) FootprintBytes() int64 {
	return int64(len(t.Name)) +
		16*int64(cap(t.pos)) + int64(cap(t.buffer)) +
		4*int64(cap(t.cell)+cap(t.parent)+cap(t.depth)+cap(t.kidStart)+cap(t.cellNode)) +
		8*int64(cap(t.edgeLen)+cap(t.extra)+cap(t.rootDist)+cap(t.kids))
}

// Separator is Lemma 5 on the tree with its cell-clocking nodes marked:
// it returns the child endpoint of a tree edge whose removal leaves at
// most about 2/3 of the marks on either side (the proof's cell sets A
// and B of Section V-B). It descends from the root into the first child
// holding more than 2/3 of the marks while there is one, then cuts the
// edge to that node's first heaviest child. Parents precede children, so
// one reverse sweep counts every subtree's marks.
func (t *Tree) Separator() (NodeID, error) {
	count := make([]int32, len(t.parent))
	for v := len(count) - 1; v >= 0; v-- {
		if t.cell[v] != int32(comm.Host) {
			count[v]++
		}
		if v > 0 {
			count[t.parent[v]] += count[v]
		}
	}
	total := int(count[0])
	if total < 2 {
		return 0, fmt.Errorf("clocktree %q: separator needs at least 2 cells, have %d", t.Name, total)
	}
	v := t.Root()
	for descend := true; descend; {
		descend = false
		for _, c := range t.Children(v) {
			if 3*int(count[c]) > 2*total {
				v, descend = c, true
				break
			}
		}
	}
	// v's subtree holds more than 2/3·total ≥ 4/3 marks, so v is no leaf.
	heaviest := NodeID(-1)
	for _, c := range t.Children(v) {
		if heaviest < 0 || count[c] > count[heaviest] {
			heaviest = c
		}
	}
	return heaviest, nil
}

// Covers reports whether every cell of g is clocked by some node of t
// (A4: a cell can be clocked only if it is also a node of CLK).
func (t *Tree) Covers(g *comm.Graph) bool {
	for id := comm.CellID(0); int(id) < g.NumCells(); id++ {
		if _, ok := t.CellNode(id); !ok {
			return false
		}
	}
	return true
}

// Equalize adds tuning slack to leaf edges so that every cell node has the
// same root distance (the maximum). This models the practice, discussed in
// Section VII, of tuning discrete clock-tree wiring so delay from the root
// is the same for all cells — the regime where the difference model makes
// H-tree clocking exact. It returns the amount of slack added in total,
// summed in cell ID order. Slack on an internal edge would lengthen every
// path below it, so a tree in which some cell node has children (a spine,
// say) cannot be equalized and yields an error.
func (t *Tree) Equalize() (float64, error) {
	target := 0.0
	for c, id := range t.cellNode {
		if id < 0 {
			continue
		}
		if t.kidStart[id+1] > t.kidStart[id] {
			return 0, fmt.Errorf("clocktree %q: cannot equalize: cell %d is not a leaf", t.Name, c)
		}
		if d := t.rootDist[id]; d > target {
			target = d
		}
	}
	var added float64
	for _, id := range t.cellNode {
		if id < 0 {
			continue
		}
		if slack := target - t.rootDist[id]; slack > 0 {
			if t.extra == nil {
				t.extra = make([]float64, len(t.pos))
			}
			t.extra[id] += slack
			added += slack
		}
	}
	t.recomputeDistances()
	return added, nil
}

// recomputeDistances refreshes rootDist in one ascending pass: parents
// precede children.
func (t *Tree) recomputeDistances() {
	for v := 1; v < len(t.pos); v++ {
		t.rootDist[v] = t.rootDist[t.parent[v]] + t.EdgeLen(NodeID(v))
	}
}

// index computes root distances, depths and the CSR child lists of a tree
// whose node arrays are complete.
func (t *Tree) index() {
	n := len(t.pos)
	t.rootDist = make([]float64, n)
	t.depth = make([]int32, n)
	t.recomputeDistances()
	for v := 1; v < n; v++ {
		t.depth[v] = t.depth[t.parent[v]] + 1
	}
	t.indexChildren()
}

// indexChildren builds the CSR child lists from the parent array.
func (t *Tree) indexChildren() {
	n := len(t.pos)
	t.kidStart = make([]int32, n+1)
	t.kids = make([]NodeID, n-1)
	// Count children per parent, turn the counts into block ends, then
	// fill each block from its end in descending child order so that
	// kidStart ends at the block starts and each block ascends.
	for v := 1; v < n; v++ {
		t.kidStart[t.parent[v]]++
	}
	var sum int32
	for v := 0; v < n; v++ {
		sum += t.kidStart[v]
		t.kidStart[v] = sum
	}
	t.kidStart[n] = sum
	for v := n - 1; v >= 1; v-- {
		p := t.parent[v]
		t.kidStart[p]--
		t.kids[t.kidStart[p]] = NodeID(v)
	}
}

// Validate checks the structural invariants required by A4 — a single
// root at node 0, every other node's parent preceding it (which makes the
// tree acyclic and every node reachable from the root), binary branching,
// and a consistent cell index — and the numbering every Tree keeps: DFS
// preorder with children in ascending ID order. In preorder, node v's
// parent lies on the root path of node v−1 (v−1 itself, or the ancestor
// whose next subtree v starts). The walk up from v−1 passes only nodes
// whose subtrees are complete, and it passes each node at most once, so
// the check is O(nodes).
func (t *Tree) Validate() error {
	n := len(t.pos)
	if n == 0 {
		return fmt.Errorf("clocktree %q: empty tree", t.Name)
	}
	if t.parent[0] != -1 {
		return fmt.Errorf("clocktree %q: root has a parent", t.Name)
	}
	for v := 1; v < n; v++ {
		p := t.parent[v]
		if p < 0 || int(p) >= v {
			return fmt.Errorf("clocktree %q: node %d has parent %d; parents must precede children", t.Name, v, p)
		}
		u := int32(v - 1)
		for u != p && u >= 0 {
			u = t.parent[u]
		}
		if u < 0 {
			return fmt.Errorf("clocktree %q: node %d breaks DFS preorder: its parent %d is not on node %d's root path", t.Name, v, p, v-1)
		}
	}
	for v := 0; v < n; v++ {
		if k := t.kidStart[v+1] - t.kidStart[v]; k > 2 {
			return fmt.Errorf("clocktree %q: node %d has %d children (A4 requires binary)", t.Name, v, k)
		}
	}
	for v, c := range t.cell {
		if c != int32(comm.Host) && (int(c) >= len(t.cellNode) || t.cellNode[c] != int32(v)) {
			return fmt.Errorf("clocktree %q: cell index broken for cell %d", t.Name, c)
		}
	}
	return nil
}

// Builder assembles a Tree incrementally. Create with NewBuilder, add the
// root with Root, attach nodes with Child, then call Finalize.
type Builder struct {
	t *Tree
}

// NewBuilder returns a Builder for a tree with the given name.
func NewBuilder(name string) *Builder { return newBuilder(name, 0, 0) }

// newBuilder returns a Builder for a tree of known size; see newTree.
func newBuilder(name string, nodes, cells int) *Builder {
	return &Builder{t: newTree(name, nodes, cells)}
}

// newTree returns an empty tree whose arrays are sized for the given node
// and cell counts, so trees of known size retain no append slack.
func newTree(name string, nodes, cells int) *Tree {
	t := &Tree{
		Name:     name,
		pos:      make([]geom.Point, 0, nodes),
		cell:     make([]int32, 0, nodes),
		buffer:   make([]bool, 0, nodes),
		parent:   make([]int32, 0, nodes),
		edgeLen:  make([]float64, 0, nodes),
		cellNode: make([]int32, cells),
	}
	for i := range t.cellNode {
		t.cellNode[i] = -1
	}
	return t
}

// Root creates the root node. It may be called only once.
func (b *Builder) Root(pos geom.Point, cell comm.CellID) NodeID {
	if len(b.t.pos) > 0 {
		panic("clocktree: Root called twice")
	}
	return b.t.add(pos, cell, false, -1, 0)
}

// Child creates a node at pos attached to parent by a rectilinear wire.
// cell may be comm.Host for internal nodes.
func (b *Builder) Child(parent NodeID, pos geom.Point, cell comm.CellID) NodeID {
	if len(b.t.pos) == 0 {
		panic("clocktree: Child before Root")
	}
	// The length of geom.Rectilinear(parentPos, pos), without building it.
	return b.t.add(pos, cell, false, int32(parent), b.t.pos[parent].ManhattanDist(pos))
}

// add appends one node; its parent must already exist.
func (t *Tree) add(pos geom.Point, cell comm.CellID, buffer bool, parent int32, edgeLen float64) NodeID {
	id := NodeID(len(t.pos))
	t.pos = append(t.pos, pos)
	t.cell = append(t.cell, int32(cell))
	t.buffer = append(t.buffer, buffer)
	t.parent = append(t.parent, parent)
	t.edgeLen = append(t.edgeLen, edgeLen)
	if cell != comm.Host {
		if cell < 0 {
			panic(fmt.Sprintf("clocktree: invalid cell ID %d", cell))
		}
		for int(cell) >= len(t.cellNode) {
			t.cellNode = append(t.cellNode, -1)
		}
		if t.cellNode[cell] >= 0 {
			panic(fmt.Sprintf("clocktree: cell %d clocked twice", cell))
		}
		t.cellNode[cell] = int32(id)
	}
	return id
}

// Finalize computes distances and child lists and returns the completed
// tree. The Builder must not be used afterwards.
func (b *Builder) Finalize() (*Tree, error) {
	t := b.t
	b.t = nil
	if t == nil || len(t.pos) == 0 {
		return nil, fmt.Errorf("clocktree: Finalize on empty builder")
	}
	t.index()
	if err := t.Validate(); err != nil {
		return nil, err
	}
	return t, nil
}
