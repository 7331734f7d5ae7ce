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
// pass computes root distances and jump pointers, the parent and edge
// arrays are themselves the schedule a clock event propagates down, and
// v's subtree is the ID range [v, end[v]). Wires are rectilinear L
// routes and are regenerated from the node positions on demand rather
// than stored. Build one with a Builder; a finalized Tree is immutable
// apart from Equalize and is safe for concurrent reads.
type Tree struct {
	Name string

	pos    []geom.Point
	cell   []int32 // comm.Host for nodes that clock no cell
	buffer []bool

	parent   []int32   // -1 at the root
	edgeLen  []float64 // wire length from parent(v) to v, 0 at the root
	extra    []float64 // tuning slack added to edge v by Equalize; nil if none
	rootDist []float64

	// end[v] is one past the last node of v's subtree. jump[v] is v's
	// skew-binary jump pointer (Myers 1983): an ancestor of v (the root
	// for the root) chosen so that following jumps and parent links
	// reaches any ancestor in O(log depth) steps.
	end, jump []int32

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

// AppendChildren appends v's children, in ascending ID order, to dst
// and returns the extended slice. The first child is v+1 and each later
// one starts where its predecessor's subtree ends, so the walk reads
// only the subtree ends and allocates nothing once dst has room for two.
func (t *Tree) AppendChildren(dst []NodeID, v NodeID) []NodeID {
	for c := int32(v) + 1; c < t.end[v]; c = t.end[c] {
		dst = append(dst, NodeID(c))
	}
	return dst
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

// LCA returns the lowest common ancestor of a and b. In preorder every
// ancestor of a node precedes it, and an ancestor u of the later node y
// is also an ancestor of the earlier node x exactly when u ≤ x, which
// holds for the LCA and the nodes above it. So the LCA is y's first ancestor
// (y included) whose ID is at most x, and the search climbs from y by
// jump pointers while they stay above x and by parent links otherwise:
// O(log depth) steps, no scratch.
func (t *Tree) LCA(a, b NodeID) NodeID {
	l, _ := t.lca(a, b)
	return l
}

// lca is LCA, also returning the number of jump and parent steps the
// search took.
func (t *Tree) lca(a, b NodeID) (NodeID, int) {
	x, y := int32(a), int32(b)
	if x > y {
		x, y = y, x
	}
	steps := 0
	for ; y > x; steps++ {
		if j := t.jump[y]; j > x {
			y = j
		} else {
			y = t.parent[y]
		}
	}
	return NodeID(y), steps
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

// PathLens sets s[i] = PathLen(a[i], b[i]) for every i: one LCA search
// per pair, O(pairs · log depth) time and no scratch.
func (t *Tree) PathLens(a, b []int32, s []float64) {
	for i := range a {
		s[i] = t.PathLen(NodeID(a[i]), NodeID(b[i]))
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
		4*int64(cap(t.cell)+cap(t.parent)+cap(t.end)+cap(t.jump)+cap(t.cellNode)) +
		8*int64(cap(t.edgeLen)+cap(t.extra)+cap(t.rootDist))
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
	var kids [2]NodeID
	for descend := true; descend; {
		descend = false
		for _, c := range t.AppendChildren(kids[:0], v) {
			if 3*int(count[c]) > 2*total {
				v, descend = c, true
				break
			}
		}
	}
	// v's subtree holds more than 2/3·total ≥ 4/3 marks, so v is no leaf.
	heaviest := NodeID(-1)
	for _, c := range t.AppendChildren(kids[:0], v) {
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
		if t.end[id] != id+1 {
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

// index computes the root distances, jump pointers and subtree ends of
// a tree whose node arrays are complete.
func (t *Tree) index() {
	n := len(t.pos)
	t.rootDist = make([]float64, n)
	t.recomputeDistances()
	t.jump = make([]int32, n)
	depth := make([]int32, n)
	for v := int32(1); int(v) < n; v++ {
		t.link(depth, v, t.parent[v])
	}
	t.indexEnds()
}

// link sets node v's depth and jump pointer from those of its parent p,
// which must be set already. Myers' rule: v jumps over its parent's
// jump's jump when the parent's two jumps span equal depths, and to its
// parent otherwise, which makes every jump span 2^k − 1 levels.
func (t *Tree) link(depth []int32, v, p int32) {
	depth[v] = depth[p] + 1
	j := t.jump[p]
	if depth[p]-depth[j] == depth[j]-depth[t.jump[j]] {
		t.jump[v] = t.jump[j]
	} else {
		t.jump[v] = p
	}
}

// indexEnds fills the subtree ends in one reverse sweep over the parent
// array: children follow their parent, so each node's end is final
// before its parent reads it, and the first child the sweep meets is
// the last one, whose subtree ends the parent's.
func (t *Tree) indexEnds() {
	t.end = make([]int32, len(t.parent))
	for v := len(t.end) - 1; v >= 0; v-- {
		if t.end[v] == 0 {
			t.end[v] = int32(v + 1)
		}
		if p := t.parent[v]; p >= 0 && t.end[p] == 0 {
			t.end[p] = t.end[v]
		}
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
// the check is O(nodes). The last node it passes before the parent is
// v's previous sibling, so v is a third child exactly when that sibling
// is not the parent's first child.
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
		u, sibling := int32(v-1), int32(-1)
		for u != p && u >= 0 {
			sibling, u = u, t.parent[u]
		}
		if u < 0 {
			return fmt.Errorf("clocktree %q: node %d breaks DFS preorder: its parent %d is not on node %d's root path", t.Name, v, p, v-1)
		}
		if sibling >= 0 && sibling != p+1 {
			return fmt.Errorf("clocktree %q: node %d has more than 2 children (A4 requires binary)", t.Name, p)
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

// Finalize computes distances and indexes and returns the completed
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
