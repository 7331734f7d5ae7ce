package clocktree

import (
	"fmt"
	"math"
	"slices"
	"sort"

	"repro/internal/comm"
	"repro/internal/geom"
	"repro/internal/stats"
)

// Spine builds the one-dimensional clocking scheme of Theorem 3 (Fig. 4):
// a clock wire running along the array, visiting the cells in ID order.
// The tree is a degenerate binary tree (a chain), so the tree path between
// adjacent cells is just the wire between them — bounded regardless of
// array size, which is exactly why the scheme survives the summation
// model. The same construction clocks folded (Fig. 5) and comb (Fig. 6)
// layouts, since those only reposition the cells while keeping successive
// cells adjacent.
func Spine(g *comm.Graph) (*Tree, error) {
	if g.NumCells() == 0 {
		return nil, fmt.Errorf("clocktree: Spine on empty graph")
	}
	b := newBuilder("spine/"+g.Name, g.NumCells(), g.NumCells())
	first := g.Cell(0)
	prev := b.Root(first.Pos, first.ID)
	for id := comm.CellID(1); int(id) < g.NumCells(); id++ {
		prev = b.Child(prev, g.Cell(id).Pos, id)
	}
	return b.Finalize()
}

// Ladder builds the constant-skew clock for ring arrays: ring layouts in
// this repository place the cells in two facing rows (a flattened loop),
// and the ladder runs a spine between the rows with a short rung to each
// cell. Every ring pair — including the wrap-around pair, which a simple
// chain spine would leave a full chain apart — then sits within a
// constant tree distance, matching the ring's O(1) bisection width (the
// Section V-B bound poses no obstruction to rings).
func Ladder(g *comm.Graph) (*Tree, error) {
	if g.NumCells() == 0 {
		return nil, fmt.Errorf("clocktree: Ladder on empty graph")
	}
	// Group cells into the two rows by y coordinate.
	ys := map[float64][]comm.Cell{}
	for id := comm.CellID(0); int(id) < g.NumCells(); id++ {
		c := g.Cell(id)
		ys[c.Pos.Y] = append(ys[c.Pos.Y], c)
	}
	if len(ys) > 2 {
		return nil, fmt.Errorf("clocktree: Ladder needs a ≤2-row layout, %q has %d rows", g.Name, len(ys))
	}
	var rows []float64
	for y := range ys {
		rows = append(rows, y)
	}
	sort.Float64s(rows)
	midY := rows[0]
	if len(rows) == 2 {
		midY = (rows[0] + rows[1]) / 2
	} else {
		midY += 0.5
	}
	// One rung position per distinct x, in x order.
	byX := map[float64][]comm.Cell{}
	var xs []float64
	for id := comm.CellID(0); int(id) < g.NumCells(); id++ {
		c := g.Cell(id)
		if _, seen := byX[c.Pos.X]; !seen {
			xs = append(xs, c.Pos.X)
		}
		byX[c.Pos.X] = append(byX[c.Pos.X], c)
	}
	sort.Float64s(xs)
	b := NewBuilder("ladder/" + g.Name)
	prev := b.Root(geom.Pt(xs[0], midY), comm.Host)
	for i, x := range xs {
		node := prev
		if i > 0 {
			node = b.Child(prev, geom.Pt(x, midY), comm.Host)
		}
		cells := byX[x]
		if len(cells) > 2 {
			return nil, fmt.Errorf("clocktree: Ladder rung at x=%g has %d cells", x, len(cells))
		}
		// Keep branching binary (A4): the second cell of a rung hangs off
		// the first.
		rung := node
		for _, c := range cells {
			rung = b.Child(rung, c.Pos, c.ID)
		}
		prev = node
	}
	return b.Finalize()
}

// Serpentine builds a chain clock over a 2D grid layout in boustrophedon
// row order. It is the natural attempt to extend Theorem 3's spine to two
// dimensions — and the Section V-B lower bound says it must fail: cells
// adjacent in the same column but consecutive-row-apart are Θ(row length)
// apart along the chain.
func Serpentine(g *comm.Graph) (*Tree, error) {
	if g.Rows() < 1 || g.Cols() < 1 {
		return nil, fmt.Errorf("clocktree: Serpentine needs a grid-shaped graph, got %q", g.Name)
	}
	b := newBuilder("serpentine/"+g.Name, g.NumCells(), g.NumCells())
	var prev NodeID
	first := true
	for r := 0; r < g.Rows(); r++ {
		for k := 0; k < g.Cols(); k++ {
			c := k
			if r%2 == 1 {
				c = g.Cols() - 1 - k
			}
			cell, ok := g.CellAt(r, c)
			if !ok {
				return nil, fmt.Errorf("clocktree: grid hole at (%d,%d) in %q", r, c, g.Name)
			}
			if first {
				prev = b.Root(cell.Pos, cell.ID)
				first = false
			} else {
				prev = b.Child(prev, cell.Pos, cell.ID)
			}
		}
	}
	return b.Finalize()
}

// HTree builds a recursive H-tree over the cells of g (Fig. 3): the cell
// set is split at the bounding-box center along its longer axis, an
// internal node is placed at each region's center, and wires run
// rectilinearly between region centers. On 2^k × 2^k meshes this is the
// classical H-tree; on other bounded-aspect-ratio layouts it is the
// kd-tree generalization Lemma 1 needs. Call Equalize on the result to
// tune all cell root distances exactly equal (the difference-model
// regime of Theorem 2).
func HTree(g *comm.Graph) (*Tree, error) {
	if g.NumCells() == 0 {
		return nil, fmt.Errorf("clocktree: HTree on empty graph")
	}
	return newCellSplit(g).build("htree/"+g.Name, func(s *cellSplit, lo, hi int) (int, bool) {
		return (hi - lo) / 2, s.wider(lo, hi)
	})
}

// RandomBinary builds a random recursive binary clock tree over the cells
// of g: at each level the cell set is split at a random axis and a random
// position near the median. The Section V-B experiments minimize measured
// skew over many such trees to show that *no* tree escapes the Ω(n) lower
// bound.
func RandomBinary(g *comm.Graph, rng *stats.RNG) (*Tree, error) {
	if g.NumCells() == 0 {
		return nil, fmt.Errorf("clocktree: RandomBinary on empty graph")
	}
	name := fmt.Sprintf("random%d/%s", rng.Seed(), g.Name)
	return newCellSplit(g).build(name, func(_ *cellSplit, lo, hi int) (int, bool) {
		alongX := rng.Bernoulli(0.5)
		// Split somewhere in the middle half so both sides stay non-empty
		// and the tree depth stays O(log n) with high probability.
		n := hi - lo
		l := max(n/4, 1)
		h := max(n-l, l+1)
		return l + rng.Intn(h-l), alongX
	})
}

// cellSplit is a graph's cell set presorted on both axes, for recursive
// bisection without re-sorting. byX holds the cell IDs in (X, Y) order
// and byY in (Y, X) order; cell positions are distinct, so both orders
// are strict. Every region of the recursion is one range [lo, hi) that
// holds the same cells in both arrays, so its bounding box is read off
// the ranges' ends, and cutting it keeps both halves sorted.
type cellSplit struct {
	pos      []geom.Point // by cell ID
	byX, byY []int32
	low      []bool  // scratch: marks a region's low half during a cut
	high     []int32 // scratch: the high half during a stable partition
}

func newCellSplit(g *comm.Graph) *cellSplit {
	n := g.NumCells()
	ids := make([]int32, 3*n)
	s := &cellSplit{
		pos: make([]geom.Point, n),
		byX: ids[:n:n], byY: ids[n : 2*n : 2*n], high: ids[2*n:],
		low: make([]bool, n),
	}
	for i := range s.pos {
		s.pos[i] = g.Cell(comm.CellID(i)).Pos
		s.byY[i] = int32(i)
	}
	// Lattice builders emit cells row-major, so the ID order already is
	// (Y, X) order and, for a rows×cols grid, its transpose is (X, Y)
	// order. Each candidate is checked in O(n); other layouts are sorted.
	if rows, cols := g.Rows(), g.Cols(); rows > 0 && n%rows == 0 && cols == n/rows {
		for c, k := 0, 0; c < cols; c++ {
			for r := 0; r < rows; r++ {
				s.byX[k] = int32(r*cols + c)
				k++
			}
		}
	} else {
		copy(s.byX, s.byY)
	}
	s.presort(s.byX, func(p geom.Point) (float64, float64) { return p.X, p.Y })
	s.presort(s.byY, func(p geom.Point) (float64, float64) { return p.Y, p.X })
	return s
}

// presort sorts ids by the lexicographic (major, minor) coordinate order
// of their cells, unless they already are.
func (s *cellSplit) presort(ids []int32, key func(geom.Point) (major, minor float64)) {
	cmp := func(a, b int32) int {
		a1, a2 := key(s.pos[a])
		b1, b2 := key(s.pos[b])
		switch {
		case a1 < b1 || a1 == b1 && a2 < b2:
			return -1
		case a1 == b1 && a2 == b2:
			return 0
		}
		return 1
	}
	if !slices.IsSortedFunc(ids, cmp) {
		slices.SortFunc(ids, cmp)
	}
}

// build attaches the recursive bisection of every cell below a root at
// the cells' bounding-box center, in depth-first order: each region's
// low half, with its whole subtree, precedes its high half. cut picks a
// region's low-half size and axis; it is called once per region of two
// or more cells, parents before children.
func (s *cellSplit) build(name string, cut func(s *cellSplit, lo, hi int) (m int, alongX bool)) (*Tree, error) {
	n := len(s.pos)
	b := newBuilder(name, 2*n-1, n)
	if n == 1 {
		b.Root(s.pos[0], 0)
		return b.Finalize()
	}
	var bisect func(parent NodeID, lo, hi int)
	bisect = func(parent NodeID, lo, hi int) {
		m, alongX := cut(s, lo, hi)
		s.split(lo, hi, lo+m, alongX)
		for _, r := range [2][2]int{{lo, lo + m}, {lo + m, hi}} {
			if r[1]-r[0] == 1 {
				id := s.byX[r[0]]
				b.Child(parent, s.pos[id], comm.CellID(id))
				continue
			}
			bisect(b.Child(parent, s.center(r[0], r[1]), comm.Host), r[0], r[1])
		}
	}
	bisect(b.Root(s.center(0, n), comm.Host), 0, n)
	return b.Finalize()
}

// wider reports whether region [lo, hi)'s bounding box is at least as
// wide as it is tall: the H-tree cuts such a region along X.
func (s *cellSplit) wider(lo, hi int) bool {
	w := s.pos[s.byX[hi-1]].X - s.pos[s.byX[lo]].X
	h := s.pos[s.byY[hi-1]].Y - s.pos[s.byY[lo]].Y
	return w >= h
}

// split cuts region [lo, hi) at mid along one axis: the cells before mid
// in that axis's array form the low half, and the other array is
// stable-partitioned so that they come first there too.
func (s *cellSplit) split(lo, hi, mid int, alongX bool) {
	first, other := s.byX, s.byY
	if !alongX {
		first, other = s.byY, s.byX
	}
	for _, id := range first[lo:mid] {
		s.low[id] = true
	}
	high := s.high[:0]
	w := lo
	for _, id := range other[lo:hi] {
		if s.low[id] {
			s.low[id] = false
			other[w] = id
			w++
		} else {
			high = append(high, id)
		}
	}
	copy(other[w:hi], high)
}

// center returns the center of region [lo, hi)'s bounding box, bit for
// bit the center of the geom.Rect.Union fold of its cells.
func (s *cellSplit) center(lo, hi int) geom.Point {
	return geom.Pt(
		s.mid(s.byX[lo:hi], func(p geom.Point) float64 { return p.X }),
		s.mid(s.byY[lo:hi], func(p geom.Point) float64 { return p.Y }))
}

// mid returns (min+max)/2 of a region's coordinates on one axis, given
// the region's cells sorted on that axis. The ends hold the minimum and
// maximum, and the sum of the ends differs from that of math.Min and
// math.Max folds in one case only: both ends at −0 (so every cell is at
// zero), where math.Max prefers +0 if any cell is at +0.
func (s *cellSplit) mid(ids []int32, coord func(geom.Point) float64) float64 {
	a, b := coord(s.pos[ids[0]]), coord(s.pos[ids[len(ids)-1]])
	if a == 0 && b == 0 && math.Signbit(a) && math.Signbit(b) {
		for _, id := range ids {
			if !math.Signbit(coord(s.pos[id])) {
				return 0
			}
		}
	}
	return (a + b) / 2
}

// AlongCommTree builds the clocking scheme of the paper's concluding
// remarks for COMM graphs that are themselves trees: the clock is
// distributed along the data paths, so each communicating (parent, child)
// pair's clock-tree distance equals its data-wire length. Edge lengths in
// an H-tree layout grow toward the root (Θ(√N) at the top), so the skew
// between communicating cells grows too — but by exactly the same factor
// as the communication delay itself, which is why the paper concludes a
// tree "may be clocked at no loss in asymptotic performance". The COMM
// graph must be a complete binary tree as built by
// comm.CompleteBinaryTree (heap-indexed cells). Nodes are emitted in
// DFS preorder, so cell c's node ID is its position in that walk, not c.
func AlongCommTree(g *comm.Graph) (*Tree, error) {
	if g.Kind() != comm.KindTree {
		return nil, fmt.Errorf("clocktree: AlongCommTree needs a tree COMM graph, got %q", g.Kind())
	}
	n := g.NumCells()
	if n == 0 {
		return nil, fmt.Errorf("clocktree: AlongCommTree on empty graph")
	}
	b := newBuilder("datapath/"+g.Name, n, n)
	var emit func(parent NodeID, c int)
	emit = func(parent NodeID, c int) {
		cell := comm.CellID(c)
		var id NodeID
		if c == 0 {
			id = b.Root(g.Cell(cell).Pos, cell)
		} else {
			id = b.Child(parent, g.Cell(cell).Pos, cell)
		}
		for _, ch := range [2]int{2*c + 1, 2*c + 2} {
			if ch < n {
				emit(id, ch)
			}
		}
	}
	emit(-1, 0)
	return b.Finalize()
}

// Buffered returns a copy of t with buffer nodes inserted along every wire
// so that no unbuffered segment exceeds spacing (assumption A7: buffers a
// constant distance apart make the per-segment distribution time τ a
// constant independent of array size). Each edge is cut into as many
// equal segments as its electrical length (wire plus Equalize's slack)
// needs; the wire is cut as geom.Path.Split would cut it and the slack
// shared evenly, so every root distance is preserved. Nodes are emitted
// in one depth-first pass, each followed by its subtree.
func Buffered(t *Tree, spacing float64) (*Tree, error) {
	if spacing <= 0 {
		return nil, fmt.Errorf("clocktree: Buffered spacing must be positive, got %g", spacing)
	}
	segments := func(v int32) int {
		l := t.EdgeLen(NodeID(v))
		nseg := int(l / spacing)
		if float64(nseg)*spacing < l-1e-9 {
			nseg++
		}
		return max(nseg, 1)
	}
	// newID[v] is the segment count of the edge into v until v is
	// emitted, and then v's ID in the buffered tree.
	newID := make([]int32, t.NumNodes())
	n := 1
	for v := int32(1); int(v) < len(newID); v++ {
		nseg := segments(v)
		if n += nseg; n > math.MaxInt32 {
			return nil, fmt.Errorf("clocktree: Buffered spacing %g needs over 2^31 nodes", spacing)
		}
		newID[v] = int32(nseg)
	}
	out := newTree(fmt.Sprintf("buffered%.3g/%s", spacing, t.Name), n, len(t.cellNode))
	out.pos, out.cell, out.buffer = out.pos[:n], out.cell[:n], out.buffer[:n]
	out.parent, out.edgeLen = out.parent[:n], out.edgeLen[:n]
	out.rootDist, out.jump = make([]float64, n), make([]int32, n)
	depth := make([]int32, n)
	if t.extra != nil {
		out.extra = make([]float64, n)
	}
	// Every parent is emitted before its children, so each node's root
	// distance and jump pointer are final as it is emitted; only the
	// subtree ends are left for afterwards.
	k := int32(0)
	emit := func(pos geom.Point, cell int32, buffer bool, parent int32, length, slack float64) int32 {
		out.pos[k], out.cell[k], out.buffer[k] = pos, cell, buffer
		out.parent[k], out.edgeLen[k] = parent, length
		if parent >= 0 {
			edge := length
			if out.extra != nil {
				out.extra[k] = slack
				edge += slack // EdgeLen's sum
			}
			out.rootDist[k] = out.rootDist[parent] + edge
			out.link(depth, k, parent)
		}
		if cell >= 0 {
			out.cellNode[cell] = k
		}
		k++
		return k - 1
	}
	emit(t.pos[0], t.cell[0], t.buffer[0], -1, 0, 0)
	stack := make([]int32, 1, 64)
	var kids [2]NodeID
	var w wire
	for len(stack) > 0 {
		v := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		if v != 0 {
			p := newID[t.parent[v]]
			nseg := int(newID[v])
			length := t.edgeLen[v]
			var slack float64
			if t.extra != nil {
				slack = t.extra[v] / float64(nseg)
			}
			// Insert nseg−1 buffers splitting the wire into nseg pieces. An
			// uncut wire's length is its ends' Manhattan distance, as in
			// Builder.Child.
			a, b := t.pos[t.parent[v]], t.pos[v]
			last := a.ManhattanDist(b)
			if nseg > 1 {
				w.route(a, b)
				for i := 1; i < nseg; i++ {
					end, l := w.cut(length / float64(nseg))
					p = emit(end, int32(comm.Host), true, p, l, slack)
				}
				last = w.length(w.n)
			}
			newID[v] = emit(b, t.cell[v], t.buffer[v], p, last, slack)
		}
		cs := t.AppendChildren(kids[:0], NodeID(v))
		for i := len(cs) - 1; i >= 0; i-- {
			stack = append(stack, int32(cs[i]))
		}
	}
	out.indexEnds()
	if err := out.Validate(); err != nil {
		return nil, err
	}
	return out, nil
}

// wire is the unconsumed rest of a geom.Rectilinear route, at most three
// points, held by value so that cutting pieces off it allocates nothing.
type wire struct {
	pts [3]geom.Point
	n   int
}

// route sets w to the points of geom.Rectilinear(a, b) without
// allocating them.
func (w *wire) route(a, b geom.Point) {
	w.pts[0], w.n = a, 1
	if a.Eq(b, 0) {
		return
	}
	corner := geom.Pt(b.X, a.Y)
	if !corner.Eq(a, 0) && !corner.Eq(b, 0) {
		w.pts[1], w.n = corner, 2
	}
	w.pts[w.n] = b
	w.n++
}

// segLen is the length of a wire segment. Every segment of a rectilinear
// route, and of its pieces, is axis-parallel, where math.Hypot — and so
// geom.Point.Dist — returns the absolute difference of the one changing
// coordinate exactly; this sum is that value without the Hypot call.
func segLen(p, q geom.Point) float64 { return p.ManhattanDist(q) }

// length returns the length of the wire's first k points, summed in
// order as geom.Path.Length sums them.
func (w *wire) length(k int) float64 {
	var sum float64
	for i := 1; i < k; i++ {
		sum += segLen(w.pts[i], w.pts[i-1])
	}
	return sum
}

// at returns the point at arc length d along the wire, with
// geom.Path.At's arithmetic.
func (w *wire) at(d float64) geom.Point {
	p := w.pts[:w.n]
	if d <= 0 {
		return p[0]
	}
	for i := 1; i < len(p); i++ {
		seg := segLen(p[i], p[i-1])
		if d <= seg && seg > 0 {
			t := d / seg
			return geom.Pt(p[i-1].X+t*(p[i].X-p[i-1].X), p[i-1].Y+t*(p[i].Y-p[i-1].Y))
		}
		d -= seg
	}
	return p[len(p)-1]
}

// cut removes the first d of arc length from w and returns the cut point
// and the removed piece's length. It is geom.Path.Split(d) step for step,
// so both are bit-identical to the first half's End and Length.
func (w *wire) cut(d float64) (geom.Point, float64) {
	p := w.pts[:w.n]
	if d <= 0 {
		return p[0], 0
	}
	for i := 1; i < len(p); i++ {
		seg := segLen(p[i], p[i-1])
		if d < seg {
			c := w.at(w.length(i+1) - seg + d)
			l := w.length(i) + segLen(c, p[i-1])
			rest := wire{n: 1 + len(p) - i}
			rest.pts[0] = c
			copy(rest.pts[1:], p[i:])
			*w = rest
			return c, l
		}
		d -= seg
	}
	end, l := p[len(p)-1], w.length(len(p))
	*w = wire{pts: [3]geom.Point{end}, n: 1}
	return end, l
}

// BufferCount returns the number of buffer nodes in the tree.
func (t *Tree) BufferCount() int {
	n := 0
	for _, b := range t.buffer {
		if b {
			n++
		}
	}
	return n
}
