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
//
// Cells and edges are stored as columns whose element types hold no
// pointers, so a graph costs the garbage collector nothing to scan; Cell
// and Edge values are assembled on demand. A cell's ID is its index. An
// edge is 12 bytes: two int32 endpoints and an index into the graph's
// label table, which holds each distinct label once.
type Graph struct {
	// Name labels the graph in reports, errors and JSON. It is the one
	// exported field: nothing is derived from it, so relabelling a graph
	// cannot invalidate any cached lookup.
	Name string

	kind       Kind
	rows, cols int

	pos      []geom.Point // cell positions, indexed by CellID
	row, col []int        // cell grid coordinates, indexed by CellID

	edges  []edge
	labels []string // edge labels, indexed by edge.label

	// lazy holds the lookups built on first use. It is a pointer so Graph
	// values stay assignable (UnmarshalJSON) without copying a sync.Once;
	// it is nil only in the zero Graph, which has no cells.
	lazy *lazyIndex
}

// edge is one stored directed edge. Host endpoints are -1, as in Edge.
type edge struct {
	from, to int32
	label    uint32
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
func (g *Graph) NumCells() int { return len(g.pos) }

// Cell returns the cell with the given ID; it panics for Host or
// out-of-range IDs.
func (g *Graph) Cell(id CellID) Cell {
	if uint(id) >= uint(len(g.pos)) {
		panic(noCell(id))
	}
	return Cell{ID: id, Pos: g.pos[id], Row: g.row[id], Col: g.col[id]}
}

// noCell is Cell's panic value; a named type rather than a formatted
// string keeps Cell small enough to inline.
type noCell CellID

func (id noCell) Error() string { return fmt.Sprintf("comm: no cell %d", CellID(id)) }

// NumEdges returns the number of directed edges, host edges included.
func (g *Graph) NumEdges() int { return len(g.edges) }

// Edge returns the i-th directed edge, 0 ≤ i < NumEdges, in construction
// order.
func (g *Graph) Edge(i int) Edge {
	e := g.edges[i]
	return Edge{From: CellID(e.from), To: CellID(e.to), Label: g.labels[e.label]}
}

// New returns a graph over copies of the given cells and edges after
// checking its structural invariants: cell IDs dense and equal to their
// index, at most math.MaxInt32 cells, distinct cell positions, and edges
// between known cells (or the host) with no self-loops. It is the
// constructor for graphs that are not one of the package's topologies.
func New(kind Kind, name string, rows, cols int, cells []Cell, edges []Edge) (*Graph, error) {
	g, err := newGraph(kind, name, rows, cols, len(cells), len(edges))
	if err != nil {
		return nil, err
	}
	for i, c := range cells {
		if int(c.ID) != i {
			return nil, fmt.Errorf("comm: cell at index %d has ID %d", i, c.ID)
		}
		g.pos[i], g.row[i], g.col[i] = c.Pos, c.Row, c.Col
	}
	if err := g.checkPositions(); err != nil {
		return nil, err
	}
	var labels labelTable
	for _, e := range edges {
		if err := g.appendEdge(e, &labels); err != nil {
			return nil, err
		}
	}
	g.labels = labels.names
	return g, nil
}

// newGraph returns a graph with n cells, each at the origin on grid
// coordinates (0, 0), no edges and room for m, labelled from
// builtinLabels; a negative n stands for a count that overflowed int.
// New fills it while checking its input.
func newGraph(kind Kind, name string, rows, cols, n, m int) (*Graph, error) {
	if n < 0 || n > math.MaxInt32 {
		return nil, fmt.Errorf("comm: %s needs more than %d cells", name, math.MaxInt32)
	}
	grid := make([]int, 2*n) // the row and col columns, in one allocation
	return &Graph{Name: name, kind: kind, rows: rows, cols: cols,
		pos: make([]geom.Point, n), row: grid[:n:n], col: grid[n:],
		edges: make([]edge, 0, m), labels: builtinLabels, lazy: &lazyIndex{}}, nil
}

// build returns the graph a topology builder lays out: fill places the
// n cells of a newGraph and appends at most m edges, and the result is
// checked against the invariants New documents (cell IDs are dense by
// construction).
func build(kind Kind, name string, rows, cols, n, m int, fill func(g *Graph)) (*Graph, error) {
	g, err := newGraph(kind, name, rows, cols, n, m)
	if err != nil {
		return nil, err
	}
	fill(g)
	if err := g.checkPositions(); err != nil {
		return nil, err
	}
	for i := range g.edges {
		if err := g.checkEdge(g.Edge(i)); err != nil {
			return nil, err
		}
	}
	return g, nil
}

// gridCells returns rows·cols, or -1 when the product overflows int.
func gridCells(rows, cols int) int {
	if rows > math.MaxInt/cols {
		return -1
	}
	return rows * cols
}

// checkPositions rejects two cells at one position.
func (g *Graph) checkPositions() error {
	if a, b, dup := firstSharedPosition(g.pos); dup {
		return fmt.Errorf("comm: cells %d and %d share position %v", a, b, g.pos[b])
	}
	return nil
}

// checkEdge rejects an edge with an endpoint that is neither a cell of g
// nor the host, and a self-loop.
func (g *Graph) checkEdge(e Edge) error {
	n := CellID(len(g.pos))
	for _, end := range [2]CellID{e.From, e.To} {
		if end < Host || end >= n {
			return fmt.Errorf("comm: edge %v references unknown cell %d", e, end)
		}
	}
	if e.From == e.To {
		return fmt.Errorf("comm: self-loop edge on cell %d", e.From)
	}
	return nil
}

// appendEdge checks e as New documents and then appends it, narrowed,
// with its label interned in labels.
func (g *Graph) appendEdge(e Edge, labels *labelTable) error {
	if err := g.checkEdge(e); err != nil {
		return err
	}
	g.edges = append(g.edges, edge{int32(e.From), int32(e.To), labels.intern(e.Label)})
	return nil
}

// addEdge appends the edge from → to labelled builtinLabels[label].
func (g *Graph) addEdge(from, to CellID, label uint32) {
	g.edges = append(g.edges, edge{int32(from), int32(to), label})
}

// builtinLabels is the label table of every graph a topology builder
// makes; the label constants index it.
var builtinLabels = []string{"x", "y", "e", "w", "n", "s", "ne", "sw", "nw", "se",
	"in", "out", "down", "up", "wrap-e", "wrap-w", "wrap-n", "wrap-s"}

// Indices into builtinLabels.
const (
	labelX uint32 = iota
	labelY
	labelE
	labelW
	labelN
	labelS
	labelNE
	labelSW
	labelNW
	labelSE
	labelIn
	labelOut
	labelDown
	labelUp
	labelWrapE
	labelWrapW
	labelWrapN
	labelWrapS
)

// labelTable interns the labels of a graph under construction.
type labelTable struct {
	names []string
	index map[string]uint32
}

// intern returns label's index in the table, adding it if it is new.
func (t *labelTable) intern(label string) uint32 {
	if i, ok := t.index[label]; ok {
		return i
	}
	if t.index == nil {
		t.index = make(map[string]uint32)
	}
	i := uint32(len(t.names))
	t.index[label] = i
	t.names = append(t.names, label)
	return i
}

// firstSharedPosition returns the first cell b whose position equals an
// earlier cell a's, comparing positions with == as a map keyed by
// geom.Point would. It probes an open-addressing table of cell indices:
// one allocation and O(cells) expected time.
func firstSharedPosition(pos []geom.Point) (a, b CellID, dup bool) {
	size := 1
	for size < 2*len(pos) {
		size <<= 1
	}
	mask := uint64(size - 1)
	slots := make([]int32, size) // cell index + 1; 0 marks an empty slot
	for i, p := range pos {
		h := posHash(p) & mask
		for ; slots[h] != 0; h = (h + 1) & mask {
			if j := slots[h] - 1; pos[j] == p {
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
			return g.Cell(CellID(id - 1)), true
		}
		return Cell{}, false
	}
	for i := len(g.pos) - 1; i >= 0; i-- {
		if g.row[i] == row && g.col[i] == col {
			return g.Cell(CellID(i)), true
		}
	}
	return Cell{}, false
}

// cellGrid returns the dense (row, col) → cell index, or nil when the
// declared grid holds more than four slots per cell. Callers have checked
// that the grid is non-empty; the division keeps decoded dimensions from
// overflowing the product.
func (g *Graph) cellGrid() []int32 {
	if g.lazy == nil || g.rows > (4*len(g.pos)+16)/g.cols {
		return nil
	}
	g.lazy.gridOnce.Do(func() {
		grid := make([]int32, g.rows*g.cols)
		for i, r := range g.row {
			if c := g.col[i]; r >= 0 && r < g.rows && c >= 0 && c < g.cols {
				grid[r*g.cols+c] = int32(i + 1)
			}
		}
		g.lazy.grid = grid
	})
	return g.lazy.grid
}

// HostEdges returns the edges that connect the array to the host.
func (g *Graph) HostEdges() []Edge {
	var out []Edge
	for i, e := range g.edges {
		if e.from == int32(Host) || e.to == int32(Host) {
			out = append(out, g.Edge(i))
		}
	}
	return out
}

// Bounds returns the bounding rectangle of the cell layout, expanded by
// half a cell pitch on each side so each unit-area cell fits (A2).
func (g *Graph) Bounds() geom.Rect {
	r := geom.EmptyRect()
	for _, p := range g.pos {
		r = r.Union(geom.Rect{Min: p, Max: p})
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
		if d := g.pos[a].Dist(g.pos[b]); d > m {
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
	return build(KindLinear, fmt.Sprintf("linear-%d", n), 1, n, n, n+1, func(g *Graph) {
		g.rowCells()
		g.chainEdges(labelX)
	})
}

// Bidirectional returns an n-cell linear array with edges in both
// directions between neighbors, as used by systolic algorithms with
// counter-flowing data streams.
func Bidirectional(n int) (*Graph, error) {
	if n < 1 {
		return nil, fmt.Errorf("comm: Linear needs n ≥ 1, got %d", n)
	}
	return build(KindLinear, fmt.Sprintf("bidi-%d", n), 1, n, n, 2*n+2, func(g *Graph) {
		g.rowCells()
		g.chainEdges(labelX)
		for i := 0; i+1 < n; i++ {
			g.addEdge(CellID(i+1), CellID(i), labelY)
		}
		g.addEdge(0, Host, labelY)
		g.addEdge(Host, CellID(n-1), labelY)
	})
}

// LinearDual returns an n-cell one-dimensional array carrying two
// parallel unidirectional streams "x" and "y", both flowing left to right
// — the wiring shape of systolic FIR filters and Horner evaluators, where
// data and partial results travel together.
func LinearDual(n int) (*Graph, error) {
	if n < 1 {
		return nil, fmt.Errorf("comm: LinearDual needs n ≥ 1, got %d", n)
	}
	return build(KindLinear, fmt.Sprintf("lineardual-%d", n), 1, n, n, 2*n+2, func(g *Graph) {
		g.rowCells()
		g.chainEdges(labelX)
		g.chainEdges(labelY)
	})
}

// rowCells places g's cells at (0,0)…(n−1,0), on grid row 0.
func (g *Graph) rowCells() {
	for i := range g.pos {
		g.pos[i], g.col[i] = geom.Pt(float64(i), 0), i
	}
}

// chainEdges appends a left-to-right stream with the given label over
// g's cells: in from the host at cell 0, out to the host from the last.
func (g *Graph) chainEdges(label uint32) {
	n := len(g.pos)
	g.addEdge(Host, 0, label)
	for i := 0; i+1 < n; i++ {
		g.addEdge(CellID(i), CellID(i+1), label)
	}
	g.addEdge(CellID(n-1), Host, label)
}

// Ring returns an n-cell ring laid out on a rectangle perimeter so that
// neighboring cells stay at bounded distance.
func Ring(n int) (*Graph, error) {
	if n < 3 {
		return nil, fmt.Errorf("comm: Ring needs n ≥ 3, got %d", n)
	}
	return build(KindRing, fmt.Sprintf("ring-%d", n), 0, 0, n, n, func(g *Graph) {
		for i := 0; i < n; i++ {
			g.pos[i], g.col[i] = ringPos(i, n), i
			g.addEdge(CellID(i), CellID((i+1)%n), labelX)
		}
	})
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
	return build(KindMesh, fmt.Sprintf("mesh-%dx%d", rows, cols), rows, cols,
		gridCells(rows, cols), meshEdges(rows, cols)+2, func(g *Graph) {
			g.layMesh()
			g.meshHostEdges()
		})
}

// meshEdges is the number of neighbor edges of a rows×cols mesh.
func meshEdges(rows, cols int) int { return 2*rows*(cols-1) + 2*cols*(rows-1) }

// layMesh places g's Rows×Cols cells in row-major order and appends the
// mesh's neighbor edges.
func (g *Graph) layMesh() {
	rows, cols := g.rows, g.cols
	for r := 0; r < rows; r++ {
		for c := 0; c < cols; c++ {
			i := r*cols + c
			g.pos[i], g.row[i], g.col[i] = geom.Pt(float64(c), float64(r)), r, c
		}
	}
	id := func(r, c int) CellID { return CellID(r*cols + c) }
	for r := 0; r < rows; r++ {
		for c := 0; c < cols; c++ {
			if c+1 < cols {
				g.addEdge(id(r, c), id(r, c+1), labelE)
				g.addEdge(id(r, c+1), id(r, c), labelW)
			}
			if r+1 < rows {
				g.addEdge(id(r, c), id(r+1, c), labelN)
				g.addEdge(id(r+1, c), id(r, c), labelS)
			}
		}
	}
}

// meshHostEdges appends Mesh's host input at the row-0 west corner and
// host output at the opposite corner.
func (g *Graph) meshHostEdges() {
	g.addEdge(Host, 0, labelIn)
	g.addEdge(CellID(len(g.pos)-1), Host, labelOut)
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
	return build(KindMesh, fmt.Sprintf("meshio-%dx%d", rows, cols), rows, cols,
		gridCells(rows, cols), meshEdges(rows, cols)+2*(rows+cols), func(g *Graph) {
			g.layMesh()
			id := func(r, c int) CellID { return CellID(r*cols + c) }
			for r := 0; r < rows; r++ {
				g.addEdge(Host, id(r, 0), labelE)
				g.addEdge(id(r, cols-1), Host, labelE)
			}
			for c := 0; c < cols; c++ {
				g.addEdge(Host, id(0, c), labelN)
				g.addEdge(id(rows-1, c), Host, labelN)
			}
		})
}

// Hex returns a hexagonal array with the given number of cells per side
// (Fig. 3(c)): a rhombus-shaped region of a triangular grid where each
// interior cell communicates with six neighbors.
func Hex(side int) (*Graph, error) {
	if side < 1 {
		return nil, fmt.Errorf("comm: Hex needs side ≥ 1, got %d", side)
	}
	return build(KindHex, fmt.Sprintf("hex-%d", side), side, side,
		gridCells(side, side), hexEdges(side), (*Graph).layHex)
}

// hexEdges is the number of neighbor edges of a side×side hexagonal
// array.
func hexEdges(side int) int { return 4*side*(side-1) + 2*(side-1)*(side-1) }

// layHex places g's Rows×Rows hexagonal array cells in row-major order
// and appends their neighbor edges.
func (g *Graph) layHex() {
	side := g.rows
	dx, dy := 1.0, math.Sqrt(3)/2
	for r := 0; r < side; r++ {
		for c := 0; c < side; c++ {
			x := float64(c) + float64(r)*0.5
			i := r*side + c
			g.pos[i], g.row[i], g.col[i] = geom.Pt(x*dx, float64(r)*dy), r, c
		}
	}
	id := func(r, c int) CellID { return CellID(r*side + c) }
	for r := 0; r < side; r++ {
		for c := 0; c < side; c++ {
			// Three of the six hex directions; the reverse edges complete
			// the other three.
			if c+1 < side {
				g.addEdge(id(r, c), id(r, c+1), labelE)
				g.addEdge(id(r, c+1), id(r, c), labelW)
			}
			if r+1 < side {
				g.addEdge(id(r, c), id(r+1, c), labelNE)
				g.addEdge(id(r+1, c), id(r, c), labelSW)
			}
			if r+1 < side && c-1 >= 0 {
				g.addEdge(id(r, c), id(r+1, c-1), labelNW)
				g.addEdge(id(r+1, c-1), id(r, c), labelSE)
			}
		}
	}
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
	return build(KindHex, fmt.Sprintf("hexio-%d", w), w, w,
		gridCells(w, w), hexEdges(w)+4*w-1, func(g *Graph) {
			g.layHex()
			id := func(u, v int) CellID { return CellID(u*w + v) }
			for u := 0; u < w; u++ {
				g.addEdge(Host, id(u, 0), labelE)
			}
			for v := 0; v < w; v++ {
				g.addEdge(Host, id(0, v), labelNE)
				g.addEdge(id(0, v), Host, labelSE)
			}
			for u := 1; u < w; u++ {
				g.addEdge(id(u, w-1), Host, labelSE)
			}
		})
}

// Torus returns an r×c torus: a mesh with wraparound edges. Wraparound
// wires in this flat layout have length proportional to the array side —
// the torus is an example of a COMM graph that cannot keep communication
// delay bounded in a naive layout.
func Torus(rows, cols int) (*Graph, error) {
	if rows < 3 || cols < 3 {
		return nil, fmt.Errorf("comm: Torus needs dims ≥ 3, got %d×%d", rows, cols)
	}
	return build(KindTorus, fmt.Sprintf("torus-%dx%d", rows, cols), rows, cols,
		gridCells(rows, cols), meshEdges(rows, cols)+2+2*(rows+cols), func(g *Graph) {
			g.layMesh()
			g.meshHostEdges()
			id := func(r, c int) CellID { return CellID(r*cols + c) }
			for r := 0; r < rows; r++ {
				g.addEdge(id(r, cols-1), id(r, 0), labelWrapE)
				g.addEdge(id(r, 0), id(r, cols-1), labelWrapW)
			}
			for c := 0; c < cols; c++ {
				g.addEdge(id(rows-1, c), id(0, c), labelWrapN)
				g.addEdge(id(0, c), id(rows-1, c), labelWrapS)
			}
		})
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
	return build(KindTree, fmt.Sprintf("tree-%d", levels), 0, 0, n, 2*(n-1)+2, func(g *Graph) {
		hTreePositions(g.pos, 0, geom.Pt(0, 0), levels, true)
		for v := range g.col {
			g.col[v] = v
		}
		for v := 0; 2*v+2 < n; v++ {
			for _, ch := range []int{2*v + 1, 2*v + 2} {
				g.addEdge(CellID(v), CellID(ch), labelDown)
				g.addEdge(CellID(ch), CellID(v), labelUp)
			}
		}
		g.addEdge(Host, 0, labelIn)
		g.addEdge(0, Host, labelOut)
	})
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
