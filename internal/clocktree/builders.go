package clocktree

import (
	"fmt"
	"math"
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

// SpineWithHost is Spine with an extra root node at hostPos representing
// the host interface, so host-to-cell skews can be analyzed (the concern
// Fig. 5's folded layout addresses).
func SpineWithHost(g *comm.Graph, hostPos geom.Point) (*Tree, error) {
	if g.NumCells() == 0 {
		return nil, fmt.Errorf("clocktree: SpineWithHost on empty graph")
	}
	b := newBuilder("spine+host/"+g.Name, g.NumCells()+1, g.NumCells())
	prev := b.Root(hostPos, comm.Host)
	for id := comm.CellID(0); int(id) < g.NumCells(); id++ {
		c := g.Cell(id)
		prev = b.Child(prev, c.Pos, c.ID)
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
	n := g.NumCells()
	if n == 0 {
		return nil, fmt.Errorf("clocktree: HTree on empty graph")
	}
	b := newBuilder("htree/"+g.Name, 2*n-1, n)
	cells := graphCells(g)
	if n == 1 {
		b.Root(cells[0].Pos, cells[0].ID)
		return b.Finalize()
	}
	box := cellBox(cells)
	root := b.Root(boxCenter(box), comm.Host)
	buildHTree(b, root, cells, box)
	return b.Finalize()
}

// graphCells returns a copy of g's cells for a builder to partition in
// place.
func graphCells(g *comm.Graph) []comm.Cell {
	cells := make([]comm.Cell, g.NumCells())
	for i := range cells {
		cells[i] = g.Cell(comm.CellID(i))
	}
	return cells
}

// buildHTree attaches the H-tree over cells, whose bounding box is box,
// below the given parent node. Each region's box is computed once and
// serves both its center node and its split.
func buildHTree(b *Builder, parent NodeID, cells []comm.Cell, box geom.Rect) {
	if len(cells) == 1 {
		b.Child(parent, cells[0].Pos, cells[0].ID)
		return
	}
	lo, hi := splitCells(cells, box)
	for _, half := range [][]comm.Cell{lo, hi} {
		if len(half) == 1 {
			b.Child(parent, half[0].Pos, half[0].ID)
			continue
		}
		halfBox := cellBox(half)
		mid := b.Child(parent, boxCenter(halfBox), comm.Host)
		buildHTree(b, mid, half, halfBox)
	}
}

// splitCells halves the cell set at the median along the longer axis of
// box, the cells' bounding box, partitioning in place: on return, cells[:m] holds
// the m = len/2 smallest cells under the axis order and cells[m:] the
// rest. The halves are the same *sets* a full sort would produce (cell
// positions are distinct, so the axis comparator is a total order and
// the median cut is unique), but selection runs in O(n) expected time
// instead of O(n log n) and allocates nothing — at 8192² the old
// sort-per-recursion-level construction spent minutes and tens of
// gigabytes of allocation churn here. Tree construction only consumes
// the halves as sets (bounding-box centers and further splits), so the
// built tree is identical node for node.
func splitCells(cells []comm.Cell, box geom.Rect) (lo, hi []comm.Cell) {
	byX := box.Width() >= box.Height()
	m := len(cells) / 2
	selectCells(cells, m, byX)
	return cells[:m], cells[m:]
}

// cellLess is the axis total order splitCells cuts on: primary axis
// coordinate, tie-broken by the other coordinate. With distinct cell
// positions no two cells compare equal.
func cellLess(a, b comm.Cell, byX bool) bool {
	if byX {
		if a.Pos.X != b.Pos.X {
			return a.Pos.X < b.Pos.X
		}
		return a.Pos.Y < b.Pos.Y
	}
	if a.Pos.Y != b.Pos.Y {
		return a.Pos.Y < b.Pos.Y
	}
	return a.Pos.X < b.Pos.X
}

// selectCells partially orders cells in place so cells[:k] are the k
// smallest under cellLess. Deterministic quickselect: median-of-three
// pivots with a three-way (Dutch-flag) partition, falling back to a full
// sort of the remaining range if the recursion budget is exhausted, so
// the worst case stays O(n log n) without randomness.
func selectCells(cells []comm.Cell, k int, byX bool) {
	if k <= 0 || k >= len(cells) {
		return
	}
	less := func(i, j int) bool { return cellLess(cells[i], cells[j], byX) }
	lo, hi := 0, len(cells)
	budget := 2 * bitsLen(len(cells))
	for hi-lo > 16 {
		if budget == 0 {
			sort.Slice(cells[lo:hi], func(i, j int) bool { return less(lo+i, lo+j) })
			return
		}
		budget--
		pivot := medianOfThreeCells(cells[lo], cells[lo+(hi-lo)/2], cells[hi-1], byX)
		// Three-way partition: [lo,lt) < pivot, [lt,gt) == pivot,
		// [gt,hi) > pivot. The middle block is non-empty (the pivot is an
		// element), so the range always shrinks.
		lt, gt, i := lo, hi, lo
		for i < gt {
			switch {
			case cellLess(cells[i], pivot, byX):
				cells[i], cells[lt] = cells[lt], cells[i]
				lt++
				i++
			case cellLess(pivot, cells[i], byX):
				gt--
				cells[i], cells[gt] = cells[gt], cells[i]
			default:
				i++
			}
		}
		switch {
		case k < lt:
			hi = lt
		case k >= gt:
			lo = gt
		default:
			return // the cut lands inside the ==-pivot block: done
		}
	}
	// Small ranges: insertion sort finishes the job.
	for i := lo + 1; i < hi; i++ {
		for j := i; j > lo && less(j, j-1); j-- {
			cells[j], cells[j-1] = cells[j-1], cells[j]
		}
	}
}

// medianOfThreeCells returns the median of a, b, c under cellLess.
func medianOfThreeCells(a, b, c comm.Cell, byX bool) comm.Cell {
	if cellLess(b, a, byX) {
		a, b = b, a
	}
	if cellLess(c, b, byX) {
		b = c
		if cellLess(b, a, byX) {
			b = a
		}
	}
	return b
}

// bitsLen returns the bit length of n (floor(log2 n) + 1 for n > 0).
func bitsLen(n int) int {
	l := 0
	for n > 0 {
		l++
		n >>= 1
	}
	return l
}

func bboxCenter(cells []comm.Cell) geom.Point { return boxCenter(cellBox(cells)) }

func boxCenter(r geom.Rect) geom.Point {
	return geom.Pt((r.Min.X+r.Max.X)/2, (r.Min.Y+r.Max.Y)/2)
}

// cellBox returns the bounding box of a non-empty cell set with plain
// comparisons. On finite positions it equals the geom.Rect.Union fold
// bit for bit, signed zeros included: math.Min prefers −0 and math.Max
// +0 on a tie between zeros, and so do the tie rules here.
func cellBox(cells []comm.Cell) geom.Rect {
	r := geom.Rect{Min: cells[0].Pos, Max: cells[0].Pos}
	for _, c := range cells[1:] {
		p := c.Pos
		if p.X < r.Min.X || p.X == r.Min.X && math.Signbit(p.X) {
			r.Min.X = p.X
		}
		if p.X > r.Max.X || p.X == r.Max.X && !math.Signbit(p.X) {
			r.Max.X = p.X
		}
		if p.Y < r.Min.Y || p.Y == r.Min.Y && math.Signbit(p.Y) {
			r.Min.Y = p.Y
		}
		if p.Y > r.Max.Y || p.Y == r.Max.Y && !math.Signbit(p.Y) {
			r.Max.Y = p.Y
		}
	}
	return r
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
	b := newBuilder(fmt.Sprintf("random%d/%s", rng.Seed(), g.Name), 2*g.NumCells()-1, g.NumCells())
	cells := graphCells(g)
	if len(cells) == 1 {
		b.Root(cells[0].Pos, cells[0].ID)
		return b.Finalize()
	}
	root := b.Root(bboxCenter(cells), comm.Host)
	buildRandom(b, root, cells, rng)
	return b.Finalize()
}

func buildRandom(b *Builder, parent NodeID, cells []comm.Cell, rng *stats.RNG) {
	if len(cells) == 1 {
		b.Child(parent, cells[0].Pos, cells[0].ID)
		return
	}
	byX := rng.Bernoulli(0.5)
	sorted := append([]comm.Cell(nil), cells...)
	sort.Slice(sorted, func(i, j int) bool {
		if byX {
			if sorted[i].Pos.X != sorted[j].Pos.X {
				return sorted[i].Pos.X < sorted[j].Pos.X
			}
			return sorted[i].Pos.Y < sorted[j].Pos.Y
		}
		if sorted[i].Pos.Y != sorted[j].Pos.Y {
			return sorted[i].Pos.Y < sorted[j].Pos.Y
		}
		return sorted[i].Pos.X < sorted[j].Pos.X
	})
	// Split somewhere in the middle half so both sides stay non-empty and
	// the tree depth stays O(log n) with high probability.
	n := len(sorted)
	lo := n / 4
	if lo < 1 {
		lo = 1
	}
	hi := n - lo
	if hi <= lo {
		hi = lo + 1
	}
	m := lo + rng.Intn(hi-lo)
	for _, half := range [][]comm.Cell{sorted[:m], sorted[m:]} {
		if len(half) == 1 {
			b.Child(parent, half[0].Pos, half[0].ID)
			continue
		}
		mid := b.Child(parent, bboxCenter(half), comm.Host)
		buildRandom(b, mid, half, rng)
	}
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
// comm.CompleteBinaryTree (heap-indexed cells).
func AlongCommTree(g *comm.Graph) (*Tree, error) {
	if g.Kind() != comm.KindTree {
		return nil, fmt.Errorf("clocktree: AlongCommTree needs a tree COMM graph, got %q", g.Kind())
	}
	n := g.NumCells()
	if n == 0 {
		return nil, fmt.Errorf("clocktree: AlongCommTree on empty graph")
	}
	b := newBuilder("datapath/"+g.Name, n, n)
	ids := make([]NodeID, n)
	ids[0] = b.Root(g.Cell(0).Pos, 0)
	for v := 0; v < n; v++ {
		for _, ch := range []int{2*v + 1, 2*v + 2} {
			if ch >= n {
				continue
			}
			ids[ch] = b.Child(ids[v], g.Cell(comm.CellID(ch)).Pos, comm.CellID(ch))
		}
	}
	return b.Finalize()
}

// Buffered returns a copy of t with buffer nodes inserted along every wire
// so that no unbuffered segment exceeds spacing (assumption A7: buffers a
// constant distance apart make the per-segment distribution time τ a
// constant independent of array size). Each edge is cut into as many
// equal segments as its electrical length (wire plus Equalize's slack)
// needs; the wire is split with geom.Path.Split and the slack shared
// evenly, so every root distance is preserved. Nodes are emitted in one
// depth-first pass, each followed by its subtree.
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
	n := 1
	for v := int32(1); int(v) < t.NumNodes(); v++ {
		n += segments(v)
	}
	out := newTree(fmt.Sprintf("buffered%.3g/%s", spacing, t.Name), n, len(t.cellNode))
	if t.extra != nil {
		out.extra = make([]float64, 0, n)
	}
	emit := func(pos geom.Point, cell int32, buffer bool, parent int32, length, slack float64) int32 {
		if out.extra != nil {
			out.extra = append(out.extra, slack)
		}
		return int32(out.add(pos, comm.CellID(cell), buffer, parent, length))
	}
	newID := make([]int32, t.NumNodes())
	emit(t.pos[0], t.cell[0], t.buffer[0], -1, 0, 0)
	stack := []int32{0}
	for len(stack) > 0 {
		v := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		if v != 0 {
			p := newID[t.parent[v]]
			nseg := segments(v)
			length := t.edgeLen[v]
			var slack float64
			if t.extra != nil {
				slack = t.extra[v] / float64(nseg)
			}
			// Insert nseg−1 buffers splitting the wire into nseg pieces.
			remaining := t.Wire(NodeID(v))
			for i := 1; i < nseg; i++ {
				var piece geom.Path
				piece, remaining = remaining.Split(length / float64(nseg))
				p = emit(piece.End(), int32(comm.Host), true, p, piece.Length(), slack)
			}
			newID[v] = emit(t.pos[v], t.cell[v], t.buffer[v], p, remaining.Length(), slack)
		}
		kids := t.Children(NodeID(v))
		for i := len(kids) - 1; i >= 0; i-- {
			stack = append(stack, int32(kids[i]))
		}
	}
	out.index()
	if err := out.Validate(); err != nil {
		return nil, err
	}
	return out, nil
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

// MaxSegmentLength returns the longest single wire (unbuffered segment) in
// the tree — the quantity A7's τ is proportional to in a buffered tree.
func (t *Tree) MaxSegmentLength() float64 {
	var m float64
	for v := range t.pos {
		if l := t.EdgeLen(NodeID(v)); l > m {
			m = l
		}
	}
	return m
}
