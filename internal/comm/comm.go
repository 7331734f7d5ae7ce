// Package comm models the paper's COMM graphs (assumption A1): directed
// graphs of unit-area cells laid out in the plane, whose edges are wires
// carrying one data item per cycle from source to target. It provides the
// array topologies the paper discusses — linear, ring, mesh, hexagonal,
// torus, and complete binary tree — each with a concrete planar layout,
// plus host I/O attachment points.
package comm

import (
	"fmt"
	"math"
	"sync"

	"repro/internal/geom"
)

// CellID identifies a cell within a Graph; IDs are dense in [0, NumCells).
type CellID int

// Host is the pseudo-cell ID used as the endpoint of host I/O edges.
const Host CellID = -1

// Cell is one processing element (A1/A2: a unit-area node of COMM).
type Cell struct {
	ID  CellID
	Pos geom.Point // center of the cell in the layout, cell-pitch units
	// Row and Col give grid coordinates where the topology has them
	// (meshes, linear arrays); both are 0 for topologies without a grid.
	Row, Col int
}

// Edge is a directed communication edge of COMM (A1): a wire that delivers
// one data item from From to To each cycle. From or To may be Host for
// array boundary I/O.
type Edge struct {
	From, To CellID
	// Label distinguishes parallel logical channels between the same pair
	// of cells (e.g. a systolic cell passing both a weight and a partial
	// sum to the same neighbor).
	Label string
}

// Kind names the topology family of a Graph.
type Kind string

// Topology kinds built by this package.
const (
	KindLinear Kind = "linear"
	KindRing   Kind = "ring"
	KindMesh   Kind = "mesh"
	KindHex    Kind = "hex"
	KindTorus  Kind = "torus"
	KindTree   Kind = "tree"
)

// Graph is an ideally synchronized processor array's communication graph,
// laid out in the plane. It is immutable: every Graph comes from New (or a
// topology builder, FoldLinear/CombLinear or JSON decoding, which all go
// through the same validation), and its cells and edges are read through
// index accessors. The derived lookups — the communicating-pair index and
// the grid index behind CellAt — are therefore built once, on first use,
// and never go stale. A Graph is safe for concurrent reads.
type Graph struct {
	// Name labels the graph in reports, errors and JSON. It is the one
	// exported field: nothing is derived from it, so relabelling a graph
	// cannot invalidate any cached lookup.
	Name string

	kind       Kind
	rows, cols int
	cells      []Cell
	edges      []Edge

	// lazy holds the lookups built on first use. It is a pointer so Graph
	// values stay assignable (UnmarshalJSON) without copying a sync.Once;
	// it is nil only in the zero Graph, which has no cells.
	lazy *lazyIndex
}

// lazyIndex holds a graph's derived lookups, each built at most once.
type lazyIndex struct {
	pairsOnce sync.Once
	pairs     *PairIndex

	gridOnce sync.Once
	grid     []int32 // cell ID + 1 at row*cols+col; 0 marks a hole
}

// Kind returns the topology family.
func (g *Graph) Kind() Kind { return g.kind }

// Rows returns the grid height for grid-shaped topologies (1 for linear
// arrays), 0 when not applicable.
func (g *Graph) Rows() int { return g.rows }

// Cols returns the grid width for grid-shaped topologies, 0 when not
// applicable.
func (g *Graph) Cols() int { return g.cols }

// NumCells returns the number of cells.
func (g *Graph) NumCells() int { return len(g.cells) }

// Cell returns the cell with the given ID; it panics for Host or
// out-of-range IDs.
func (g *Graph) Cell(id CellID) Cell {
	if uint(id) >= uint(len(g.cells)) {
		panic(noCell(id))
	}
	return g.cells[id]
}

// noCell is Cell's panic value; a named type rather than a formatted
// string keeps Cell small enough to inline.
type noCell CellID

func (id noCell) Error() string { return fmt.Sprintf("comm: no cell %d", CellID(id)) }

// NumEdges returns the number of directed edges, host edges included.
func (g *Graph) NumEdges() int { return len(g.edges) }

// Edge returns the i-th directed edge, 0 ≤ i < NumEdges, in construction
// order.
func (g *Graph) Edge(i int) Edge { return g.edges[i] }

// New returns a graph over copies of the given cells and edges after
// checking its structural invariants: cell IDs dense and equal to their
// index, distinct cell positions, and edges between known cells (or the
// host) with no self-loops. It is the constructor for graphs that are not
// one of the package's topologies.
func New(kind Kind, name string, rows, cols int, cells []Cell, edges []Edge) (*Graph, error) {
	return newGraph(kind, name, rows, cols,
		append([]Cell(nil), cells...), append([]Edge(nil), edges...))
}

// newGraph is New without the defensive copies: the graph takes
// ownership of cells and edges.
func newGraph(kind Kind, name string, rows, cols int, cells []Cell, edges []Edge) (*Graph, error) {
	g := &Graph{Name: name, kind: kind, rows: rows, cols: cols,
		cells: cells, edges: edges, lazy: &lazyIndex{}}
	if err := g.validate(); err != nil {
		return nil, err
	}
	return g, nil
}

// validate checks the invariants New documents.
func (g *Graph) validate() error {
	for i, c := range g.cells {
		if int(c.ID) != i {
			return fmt.Errorf("comm: cell at index %d has ID %d", i, c.ID)
		}
	}
	if a, b, dup := firstSharedPosition(g.cells); dup {
		return fmt.Errorf("comm: cells %d and %d share position %v", a, b, g.cells[b].Pos)
	}
	n := CellID(len(g.cells))
	for _, e := range g.edges {
		for _, end := range [2]CellID{e.From, e.To} {
			if end < Host || end >= n {
				return fmt.Errorf("comm: edge %v references unknown cell %d", e, end)
			}
		}
		if e.From == e.To {
			return fmt.Errorf("comm: self-loop edge on cell %d", e.From)
		}
	}
	return nil
}

// firstSharedPosition returns the first cell b whose position equals an
// earlier cell a's, comparing positions with == as a map keyed by
// geom.Point would. It probes an open-addressing table of cell indices:
// one allocation and O(cells) expected time.
func firstSharedPosition(cells []Cell) (a, b CellID, dup bool) {
	size := 1
	for size < 2*len(cells) {
		size <<= 1
	}
	mask := uint64(size - 1)
	slots := make([]int32, size) // cell index + 1; 0 marks an empty slot
	for i := range cells {
		p := cells[i].Pos
		h := posHash(p) & mask
		for ; slots[h] != 0; h = (h + 1) & mask {
			if j := slots[h] - 1; cells[j].Pos == p {
				return CellID(j), CellID(i), true
			}
		}
		slots[h] = int32(i + 1)
	}
	return 0, 0, false
}

// posHash mixes a position's coordinate bits (murmur3's 64-bit
// finalizer). Adding +0 maps −0 to +0, which compares equal to it.
func posHash(p geom.Point) uint64 {
	mix := func(h uint64) uint64 {
		h ^= h >> 33
		h *= 0xff51afd7ed558ccd
		h ^= h >> 33
		h *= 0xc4ceb9fe1a85ec53
		return h ^ h>>33
	}
	return mix(mix(math.Float64bits(p.X+0)) ^ math.Float64bits(p.Y+0))
}

// CellAt returns the cell at grid coordinates (row, col) of the
// Rows×Cols grid, if any. The lookup is one index into a dense grid built
// on first use; for a decoded graph whose declared grid is far larger
// than its cell count it scans the cells instead. Where two cells claim
// the same coordinates, the later one wins.
func (g *Graph) CellAt(row, col int) (Cell, bool) {
	if row < 0 || row >= g.rows || col < 0 || col >= g.cols {
		return Cell{}, false
	}
	if grid := g.cellGrid(); grid != nil {
		if id := grid[row*g.cols+col]; id != 0 {
			return g.cells[id-1], true
		}
		return Cell{}, false
	}
	for i := len(g.cells) - 1; i >= 0; i-- {
		if c := g.cells[i]; c.Row == row && c.Col == col {
			return c, true
		}
	}
	return Cell{}, false
}

// cellGrid returns the dense (row, col) → cell index, or nil when the
// declared grid holds more than four slots per cell. Callers have checked
// that the grid is non-empty; the division keeps decoded dimensions from
// overflowing the product.
func (g *Graph) cellGrid() []int32 {
	if g.lazy == nil || g.rows > (4*len(g.cells)+16)/g.cols {
		return nil
	}
	g.lazy.gridOnce.Do(func() {
		grid := make([]int32, g.rows*g.cols)
		for i, c := range g.cells {
			if c.Row >= 0 && c.Row < g.rows && c.Col >= 0 && c.Col < g.cols {
				grid[c.Row*g.cols+c.Col] = int32(i + 1)
			}
		}
		g.lazy.grid = grid
	})
	return g.lazy.grid
}

// HostEdges returns the edges that connect the array to the host.
func (g *Graph) HostEdges() []Edge {
	var out []Edge
	for _, e := range g.edges {
		if e.From == Host || e.To == Host {
			out = append(out, e)
		}
	}
	return out
}

// Bounds returns the bounding rectangle of the cell layout, expanded by
// half a cell pitch on each side so each unit-area cell fits (A2).
func (g *Graph) Bounds() geom.Rect {
	r := geom.EmptyRect()
	for _, c := range g.cells {
		r = r.Union(geom.Rect{Min: c.Pos, Max: c.Pos})
	}
	return r.Expand(0.5)
}

// MaxEdgeLength returns the longest straight-line distance between any two
// communicating cells in the layout. For the paper's bounded-delay arrays
// this must remain O(1) as the array grows.
func (g *Graph) MaxEdgeLength() float64 {
	var m float64
	c := g.PairIndex().Cursor(0)
	for a, b, ok := c.Next(); ok; a, b, ok = c.Next() {
		if d := g.cells[a].Pos.Dist(g.cells[b].Pos); d > m {
			m = d
		}
	}
	return m
}

// Linear returns an n-cell one-dimensional array (Fig. 4(a)): cells at
// (0,0)…(n−1,0), data flowing left to right, with host edges at both ends.
func Linear(n int) (*Graph, error) {
	if n < 1 {
		return nil, fmt.Errorf("comm: Linear needs n ≥ 1, got %d", n)
	}
	edges := chainEdges(make([]Edge, 0, n+1), n, "x")
	return newGraph(KindLinear, fmt.Sprintf("linear-%d", n), 1, n, rowCells(n), edges)
}

// Bidirectional returns an n-cell linear array with edges in both
// directions between neighbors, as used by systolic algorithms with
// counter-flowing data streams.
func Bidirectional(n int) (*Graph, error) {
	if n < 1 {
		return nil, fmt.Errorf("comm: Linear needs n ≥ 1, got %d", n)
	}
	edges := chainEdges(make([]Edge, 0, 2*n+2), n, "x")
	for i := 0; i+1 < n; i++ {
		edges = append(edges, Edge{From: CellID(i + 1), To: CellID(i), Label: "y"})
	}
	edges = append(edges,
		Edge{From: 0, To: Host, Label: "y"},
		Edge{From: Host, To: CellID(n - 1), Label: "y"})
	return newGraph(KindLinear, fmt.Sprintf("bidi-%d", n), 1, n, rowCells(n), edges)
}

// LinearDual returns an n-cell one-dimensional array carrying two
// parallel unidirectional streams "x" and "y", both flowing left to right
// — the wiring shape of systolic FIR filters and Horner evaluators, where
// data and partial results travel together.
func LinearDual(n int) (*Graph, error) {
	if n < 1 {
		return nil, fmt.Errorf("comm: LinearDual needs n ≥ 1, got %d", n)
	}
	edges := chainEdges(make([]Edge, 0, 2*n+2), n, "x")
	edges = chainEdges(edges, n, "y")
	return newGraph(KindLinear, fmt.Sprintf("lineardual-%d", n), 1, n, rowCells(n), edges)
}

// rowCells returns n cells at (0,0)…(n−1,0), on grid row 0.
func rowCells(n int) []Cell {
	cells := make([]Cell, n)
	for i := range cells {
		cells[i] = Cell{ID: CellID(i), Pos: geom.Pt(float64(i), 0), Col: i}
	}
	return cells
}

// chainEdges appends a left-to-right stream with the given label over n
// cells: in from the host at cell 0, out to the host from cell n−1.
func chainEdges(edges []Edge, n int, label string) []Edge {
	edges = append(edges, Edge{From: Host, To: 0, Label: label})
	for i := 0; i+1 < n; i++ {
		edges = append(edges, Edge{From: CellID(i), To: CellID(i + 1), Label: label})
	}
	return append(edges, Edge{From: CellID(n - 1), To: Host, Label: label})
}

// Ring returns an n-cell ring laid out on a rectangle perimeter so that
// neighboring cells stay at bounded distance.
func Ring(n int) (*Graph, error) {
	if n < 3 {
		return nil, fmt.Errorf("comm: Ring needs n ≥ 3, got %d", n)
	}
	cells := make([]Cell, n)
	edges := make([]Edge, n)
	for i := 0; i < n; i++ {
		cells[i] = Cell{ID: CellID(i), Pos: ringPos(i, n), Col: i}
		edges[i] = Edge{From: CellID(i), To: CellID((i + 1) % n), Label: "x"}
	}
	return newGraph(KindRing, fmt.Sprintf("ring-%d", n), 0, 0, cells, edges)
}

// ringPos flattens the loop into two facing rows (a hairpin): cells 0..⌈n/2⌉−1
// run left to right on row 0 and the rest return right to left on row 1,
// so every ring neighbor — including the wrap-around pair — sits within
// distance √2.
func ringPos(i, n int) geom.Point {
	half := (n + 1) / 2
	if i < half {
		return geom.Pt(float64(i), 0)
	}
	return geom.Pt(float64(n-1-i), 1)
}

// Mesh returns an r×c two-dimensional mesh (Fig. 3(b) communication
// structure): nearest-neighbor edges in both directions along rows and
// columns, with host edges on the west edge of row 0.
func Mesh(rows, cols int) (*Graph, error) {
	if rows < 1 || cols < 1 {
		return nil, fmt.Errorf("comm: Mesh needs positive dims, got %d×%d", rows, cols)
	}
	cells, edges := meshParts(rows, cols, 2)
	edges = appendMeshHostEdges(edges, rows, cols)
	return newGraph(KindMesh, fmt.Sprintf("mesh-%dx%d", rows, cols), rows, cols, cells, edges)
}

// meshParts returns an r×c mesh's cells, in row-major order, and its
// neighbor edges, with room for extra more edges.
func meshParts(rows, cols, extra int) ([]Cell, []Edge) {
	cells := make([]Cell, 0, rows*cols)
	for r := 0; r < rows; r++ {
		for c := 0; c < cols; c++ {
			cells = append(cells, Cell{ID: CellID(len(cells)), Pos: geom.Pt(float64(c), float64(r)), Row: r, Col: c})
		}
	}
	edges := make([]Edge, 0, 2*rows*(cols-1)+2*cols*(rows-1)+extra)
	id := func(r, c int) CellID { return CellID(r*cols + c) }
	for r := 0; r < rows; r++ {
		for c := 0; c < cols; c++ {
			if c+1 < cols {
				edges = append(edges,
					Edge{From: id(r, c), To: id(r, c+1), Label: "e"},
					Edge{From: id(r, c+1), To: id(r, c), Label: "w"})
			}
			if r+1 < rows {
				edges = append(edges,
					Edge{From: id(r, c), To: id(r+1, c), Label: "n"},
					Edge{From: id(r+1, c), To: id(r, c), Label: "s"})
			}
		}
	}
	return cells, edges
}

// appendMeshHostEdges appends Mesh's host input at the row-0 west corner
// and host output at the opposite corner.
func appendMeshHostEdges(edges []Edge, rows, cols int) []Edge {
	return append(edges,
		Edge{From: Host, To: 0, Label: "in"},
		Edge{From: CellID(rows*cols - 1), To: Host, Label: "out"})
}

// MeshWithBoundaryIO returns an r×c mesh whose west boundary cells each
// receive a host stream flowing east (label "e") and whose row-0 boundary
// cells each receive a host stream flowing toward increasing rows (label
// "n"), with matching host outputs on the opposite boundaries. This is the
// I/O shape two-dimensional systolic algorithms such as matrix
// multiplication need.
func MeshWithBoundaryIO(rows, cols int) (*Graph, error) {
	if rows < 1 || cols < 1 {
		return nil, fmt.Errorf("comm: Mesh needs positive dims, got %d×%d", rows, cols)
	}
	cells, edges := meshParts(rows, cols, 2*(rows+cols))
	id := func(r, c int) CellID { return CellID(r*cols + c) }
	for r := 0; r < rows; r++ {
		edges = append(edges,
			Edge{From: Host, To: id(r, 0), Label: "e"},
			Edge{From: id(r, cols-1), To: Host, Label: "e"})
	}
	for c := 0; c < cols; c++ {
		edges = append(edges,
			Edge{From: Host, To: id(0, c), Label: "n"},
			Edge{From: id(rows-1, c), To: Host, Label: "n"})
	}
	return newGraph(KindMesh, fmt.Sprintf("meshio-%dx%d", rows, cols), rows, cols, cells, edges)
}

// Hex returns a hexagonal array with the given number of cells per side
// (Fig. 3(c)): a rhombus-shaped region of a triangular grid where each
// interior cell communicates with six neighbors.
func Hex(side int) (*Graph, error) {
	if side < 1 {
		return nil, fmt.Errorf("comm: Hex needs side ≥ 1, got %d", side)
	}
	cells, edges := hexParts(side, 0)
	return newGraph(KindHex, fmt.Sprintf("hex-%d", side), side, side, cells, edges)
}

// hexParts returns a side×side hexagonal array's cells, in row-major
// order, and its neighbor edges, with room for extra more edges.
func hexParts(side, extra int) ([]Cell, []Edge) {
	dx, dy := 1.0, math.Sqrt(3)/2
	cells := make([]Cell, 0, side*side)
	for r := 0; r < side; r++ {
		for c := 0; c < side; c++ {
			x := float64(c) + float64(r)*0.5
			cells = append(cells, Cell{ID: CellID(len(cells)), Pos: geom.Pt(x*dx, float64(r)*dy), Row: r, Col: c})
		}
	}
	edges := make([]Edge, 0, 4*side*(side-1)+2*(side-1)*(side-1)+extra)
	id := func(r, c int) CellID { return CellID(r*side + c) }
	for r := 0; r < side; r++ {
		for c := 0; c < side; c++ {
			// Three of the six hex directions; the reverse edges complete
			// the other three.
			if c+1 < side {
				edges = append(edges,
					Edge{From: id(r, c), To: id(r, c+1), Label: "e"},
					Edge{From: id(r, c+1), To: id(r, c), Label: "w"})
			}
			if r+1 < side {
				edges = append(edges,
					Edge{From: id(r, c), To: id(r+1, c), Label: "ne"},
					Edge{From: id(r+1, c), To: id(r, c), Label: "sw"})
			}
			if r+1 < side && c-1 >= 0 {
				edges = append(edges,
					Edge{From: id(r, c), To: id(r+1, c-1), Label: "nw"},
					Edge{From: id(r+1, c-1), To: id(r, c), Label: "se"})
			}
		}
	}
	return cells, edges
}

// HexWithBandIO returns a w×w hexagonal array (Fig. 3(c)) wired for band
// matrix multiplication: the A stream enters each row from the west
// (label "e"), the B stream enters each column from the south-west
// boundary (label "ne"), and accumulated C values leave along the "se"
// direction from the u=0 and v=w−1 boundaries.
func HexWithBandIO(w int) (*Graph, error) {
	if w < 1 {
		return nil, fmt.Errorf("comm: Hex needs side ≥ 1, got %d", w)
	}
	cells, edges := hexParts(w, 4*w-1)
	id := func(u, v int) CellID { return CellID(u*w + v) }
	for u := 0; u < w; u++ {
		edges = append(edges, Edge{From: Host, To: id(u, 0), Label: "e"})
	}
	for v := 0; v < w; v++ {
		edges = append(edges, Edge{From: Host, To: id(0, v), Label: "ne"})
		edges = append(edges, Edge{From: id(0, v), To: Host, Label: "se"})
	}
	for u := 1; u < w; u++ {
		edges = append(edges, Edge{From: id(u, w-1), To: Host, Label: "se"})
	}
	return newGraph(KindHex, fmt.Sprintf("hexio-%d", w), w, w, cells, edges)
}

// Torus returns an r×c torus: a mesh with wraparound edges. Wraparound
// wires in this flat layout have length proportional to the array side —
// the torus is an example of a COMM graph that cannot keep communication
// delay bounded in a naive layout.
func Torus(rows, cols int) (*Graph, error) {
	if rows < 3 || cols < 3 {
		return nil, fmt.Errorf("comm: Torus needs dims ≥ 3, got %d×%d", rows, cols)
	}
	cells, edges := meshParts(rows, cols, 2+2*(rows+cols))
	edges = appendMeshHostEdges(edges, rows, cols)
	id := func(r, c int) CellID { return CellID(r*cols + c) }
	for r := 0; r < rows; r++ {
		edges = append(edges,
			Edge{From: id(r, cols-1), To: id(r, 0), Label: "wrap-e"},
			Edge{From: id(r, 0), To: id(r, cols-1), Label: "wrap-w"})
	}
	for c := 0; c < cols; c++ {
		edges = append(edges,
			Edge{From: id(rows-1, c), To: id(0, c), Label: "wrap-n"},
			Edge{From: id(0, c), To: id(rows-1, c), Label: "wrap-s"})
	}
	return newGraph(KindTorus, fmt.Sprintf("torus-%dx%d", rows, cols), rows, cols, cells, edges)
}

// CompleteBinaryTree returns a complete binary tree COMM graph with the
// given number of levels, laid out as an H-tree so that an N-node tree
// occupies O(N) area (Section VIII). Edges run both parent→child and
// child→parent. Node 0 is the root; node v has children 2v+1 and 2v+2.
func CompleteBinaryTree(levels int) (*Graph, error) {
	if levels < 1 || levels > 24 {
		return nil, fmt.Errorf("comm: CompleteBinaryTree needs 1 ≤ levels ≤ 24, got %d", levels)
	}
	n := (1 << levels) - 1
	pos := make([]geom.Point, n)
	hTreePositions(pos, 0, geom.Pt(0, 0), levels, true)
	cells := make([]Cell, n)
	for v := range cells {
		cells[v] = Cell{ID: CellID(v), Pos: pos[v], Col: v}
	}
	edges := make([]Edge, 0, 2*(n-1)+2)
	for v := 0; 2*v+2 < n; v++ {
		for _, ch := range []int{2*v + 1, 2*v + 2} {
			edges = append(edges,
				Edge{From: CellID(v), To: CellID(ch), Label: "down"},
				Edge{From: CellID(ch), To: CellID(v), Label: "up"})
		}
	}
	edges = append(edges, Edge{From: Host, To: 0, Label: "in"}, Edge{From: 0, To: Host, Label: "out"})
	return newGraph(KindTree, fmt.Sprintf("tree-%d", levels), 0, 0, cells, edges)
}

// hTreePositions recursively places the subtree rooted at v (heap index)
// at center, with `levels` levels remaining, alternating split directions.
// The arm length halves every two levels, the classic H-tree recursion,
// giving O(N) total area.
func hTreePositions(pos []geom.Point, v int, center geom.Point, levels int, horizontal bool) {
	pos[v] = center
	if levels <= 1 {
		return
	}
	arm := math.Pow(2, float64(levels-1)/2)
	var d geom.Point
	if horizontal {
		d = geom.Pt(arm, 0)
	} else {
		d = geom.Pt(0, arm)
	}
	hTreePositions(pos, 2*v+1, center.Sub(d), levels-1, !horizontal)
	hTreePositions(pos, 2*v+2, center.Add(d), levels-1, !horizontal)
}
