package comm

import (
	"math"
	"testing"
	"testing/quick"

	"repro/internal/geom"
)

func TestLinear(t *testing.T) {
	g, err := Linear(5)
	if err != nil {
		t.Fatal(err)
	}
	if g.NumCells() != 5 {
		t.Errorf("NumCells = %d", g.NumCells())
	}
	if pairs := indexPairs(g.PairIndex()); len(pairs) != 4 {
		t.Errorf("pairs = %v", pairs)
	}
	if len(g.HostEdges()) != 2 {
		t.Errorf("host edges = %v", g.HostEdges())
	}
	if g.MaxEdgeLength() != 1 {
		t.Errorf("MaxEdgeLength = %g", g.MaxEdgeLength())
	}
	if _, err := Linear(0); err == nil {
		t.Error("Linear(0) accepted")
	}
}

func TestBidirectional(t *testing.T) {
	g, err := Bidirectional(4)
	if err != nil {
		t.Fatal(err)
	}
	// Pairs are the same 3 neighbor pairs; directed edges double.
	if pairs := indexPairs(g.PairIndex()); len(pairs) != 3 {
		t.Errorf("pairs = %v", pairs)
	}
	if len(g.HostEdges()) != 4 {
		t.Errorf("host edges = %d, want 4", len(g.HostEdges()))
	}
}

func TestRingNeighborDistanceBounded(t *testing.T) {
	for _, n := range []int{3, 4, 7, 12, 40, 101} {
		g, err := Ring(n)
		if err != nil {
			t.Fatal(err)
		}
		if got := g.PairIndex().NumPairs(); got != int64(n) {
			t.Errorf("n=%d: pairs = %d", n, got)
		}
		if d := g.MaxEdgeLength(); d > 3 {
			t.Errorf("n=%d: ring neighbor distance %g not bounded", n, d)
		}
	}
	if _, err := Ring(2); err == nil {
		t.Error("Ring(2) accepted")
	}
}

func TestMesh(t *testing.T) {
	g, err := Mesh(3, 4)
	if err != nil {
		t.Fatal(err)
	}
	if g.NumCells() != 12 {
		t.Errorf("NumCells = %d", g.NumCells())
	}
	// 17 undirected neighbor pairs.
	if got := g.PairIndex().NumPairs(); got != 17 {
		t.Errorf("pairs = %d, want 17", got)
	}
	c, ok := g.CellAt(2, 3)
	if !ok || c.Pos.X != 3 || c.Pos.Y != 2 {
		t.Errorf("CellAt(2,3) = %v %v", c, ok)
	}
	if _, ok := g.CellAt(5, 5); ok {
		t.Error("CellAt out of range returned ok")
	}
	if g.MaxEdgeLength() != 1 {
		t.Errorf("MaxEdgeLength = %g", g.MaxEdgeLength())
	}
	if _, err := Mesh(0, 3); err == nil {
		t.Error("Mesh(0,3) accepted")
	}
}

func TestHex(t *testing.T) {
	g, err := Hex(3)
	if err != nil {
		t.Fatal(err)
	}
	if g.NumCells() != 9 {
		t.Errorf("NumCells = %d", g.NumCells())
	}
	// Interior cell (1,1) should have 6 neighbors.
	center, _ := g.CellAt(1, 1)
	deg := 0
	for _, p := range indexPairs(g.PairIndex()) {
		if p[0] == center.ID || p[1] == center.ID {
			deg++
		}
	}
	if deg != 6 {
		t.Errorf("hex center degree = %d, want 6", deg)
	}
	if d := g.MaxEdgeLength(); d > 1.01 {
		t.Errorf("hex neighbor distance %g > 1", d)
	}
	if _, err := Hex(0); err == nil {
		t.Error("Hex(0) accepted")
	}
}

func TestTorusWraparoundLength(t *testing.T) {
	g, err := Torus(4, 6)
	if err != nil {
		t.Fatal(err)
	}
	// Wraparound edges make MaxEdgeLength ≈ cols−1.
	if d := g.MaxEdgeLength(); math.Abs(d-5) > 1e-9 {
		t.Errorf("torus MaxEdgeLength = %g, want 5", d)
	}
	if _, err := Torus(2, 5); err == nil {
		t.Error("Torus(2,5) accepted")
	}
}

func TestCompleteBinaryTree(t *testing.T) {
	g, err := CompleteBinaryTree(4)
	if err != nil {
		t.Fatal(err)
	}
	if g.NumCells() != 15 {
		t.Errorf("NumCells = %d", g.NumCells())
	}
	if got := g.PairIndex().NumPairs(); got != 14 {
		t.Errorf("pairs = %d, want 14", got)
	}
	if _, err := CompleteBinaryTree(0); err == nil {
		t.Error("levels=0 accepted")
	}
	if _, err := CompleteBinaryTree(30); err == nil {
		t.Error("levels=30 accepted")
	}
}

func TestHTreeLayoutAreaLinear(t *testing.T) {
	// H-tree area must be O(N): area / N bounded as N grows.
	var prevRatio float64
	for _, levels := range []int{4, 6, 8, 10} {
		g, err := CompleteBinaryTree(levels)
		if err != nil {
			t.Fatal(err)
		}
		n := float64(g.NumCells())
		ratio := g.Bounds().Area() / n
		if prevRatio > 0 && ratio > prevRatio*2 {
			t.Errorf("levels=%d: area/N ratio %g grows too fast (prev %g)", levels, ratio, prevRatio)
		}
		prevRatio = ratio
	}
}

func TestHTreeEdgeLengthGrowsAsSqrtN(t *testing.T) {
	// The longest tree edge (at the root) is Θ(√N) — the Paterson–Ruzzo–
	// Snyder phenomenon motivating Section VIII.
	g8, _ := CompleteBinaryTree(8)
	g12, _ := CompleteBinaryTree(12)
	ratio := g12.MaxEdgeLength() / g8.MaxEdgeLength()
	// N grows 16×, √N grows 4×.
	if ratio < 3 || ratio > 5 {
		t.Errorf("root edge growth ratio = %g, want ≈4", ratio)
	}
}

func TestValidateCatchesCorruption(t *testing.T) {
	base, _ := Linear(3)
	build := func(cells []Cell, edges []Edge) error {
		_, err := New(base.Kind(), base.Name, base.Rows(), base.Cols(), cells, edges)
		return err
	}
	cells := cellsOf(base)
	cells[1].ID = 7
	if err := build(cells, edgesOf(base)); err == nil {
		t.Error("bad cell ID not caught")
	}
	cells = cellsOf(base)
	cells[2].Pos = cells[0].Pos
	if err := build(cells, edgesOf(base)); err == nil {
		t.Error("duplicate position not caught")
	}
	edges := append(edgesOf(base), Edge{From: 0, To: 99})
	if err := build(cellsOf(base), edges); err == nil {
		t.Error("dangling edge not caught")
	}
	edges = append(edgesOf(base), Edge{From: 1, To: 1})
	if err := build(cellsOf(base), edges); err == nil {
		t.Error("self-loop not caught")
	}
	if err := build(cellsOf(base), edgesOf(base)); err != nil {
		t.Errorf("intact graph rejected: %v", err)
	}
}

func TestCellPanicsOnHost(t *testing.T) {
	g, _ := Linear(2)
	defer func() {
		if recover() == nil {
			t.Error("Cell(Host) should panic")
		}
	}()
	g.Cell(Host)
}

func TestCommunicatingPairsSortedAndUniqueProperty(t *testing.T) {
	f := func(r, c uint8) bool {
		rows, cols := int(r%5)+1, int(c%5)+1
		g, err := Mesh(rows, cols)
		if err != nil {
			return false
		}
		pairs := indexPairs(g.PairIndex())
		for i := 1; i < len(pairs); i++ {
			if pairs[i][0] < pairs[i-1][0] ||
				(pairs[i][0] == pairs[i-1][0] && pairs[i][1] <= pairs[i-1][1]) {
				return false
			}
		}
		for _, p := range pairs {
			if p[0] >= p[1] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestBoundsCoverAllCells(t *testing.T) {
	for _, build := range []func() (*Graph, error){
		func() (*Graph, error) { return Linear(7) },
		func() (*Graph, error) { return Mesh(3, 5) },
		func() (*Graph, error) { return Hex(4) },
		func() (*Graph, error) { return Ring(10) },
		func() (*Graph, error) { return CompleteBinaryTree(5) },
	} {
		g, err := build()
		if err != nil {
			t.Fatal(err)
		}
		b := g.Bounds()
		for id := CellID(0); int(id) < g.NumCells(); id++ {
			if c := g.Cell(id); b.Union(geom.Rect{Min: c.Pos, Max: c.Pos}) != b {
				t.Errorf("%s: cell %d at %v outside bounds %v", g.Name, c.ID, c.Pos, b)
			}
		}
		if b.Area() < float64(g.NumCells()) {
			t.Errorf("%s: bounds area %g smaller than cell count %d (A2 violated)",
				g.Name, b.Area(), g.NumCells())
		}
	}
}

func TestLinearDual(t *testing.T) {
	g, err := LinearDual(5)
	if err != nil {
		t.Fatal(err)
	}
	if g.NumCells() != 5 {
		t.Errorf("NumCells = %d", g.NumCells())
	}
	// Two parallel chains: 2·4 internal edges + 4 host edges.
	if g.NumEdges() != 12 {
		t.Errorf("edges = %d, want 12", g.NumEdges())
	}
	if len(g.HostEdges()) != 4 {
		t.Errorf("host edges = %d, want 4", len(g.HostEdges()))
	}
	// Still 4 communicating pairs (parallel channels share pairs).
	if got := g.PairIndex().NumPairs(); got != 4 {
		t.Errorf("pairs = %d, want 4", got)
	}
	if _, err := LinearDual(0); err == nil {
		t.Error("LinearDual(0) accepted")
	}
}

func TestFoldLinearLayout(t *testing.T) {
	g, _ := Linear(10)
	folded, err := FoldLinear(g)
	if err != nil {
		t.Fatal(err)
	}
	// Both ends meet: cells 0 and 9 are one pitch apart.
	if d := folded.Cell(0).Pos.Dist(folded.Cell(9).Pos); d > 1.01 {
		t.Errorf("folded ends %g apart, want ≤ 1", d)
	}
	// Successive cells stay close (the fold itself is the worst hop).
	if d := folded.MaxEdgeLength(); d > 1.5 {
		t.Errorf("folded neighbor distance %g", d)
	}
	// Original untouched.
	if g.Cell(9).Pos.X != 9 {
		t.Error("FoldLinear mutated its input")
	}
	// Grid index rebuilt.
	if c, ok := folded.CellAt(1, 0); !ok || c.ID != 9 {
		t.Errorf("CellAt(1,0) = %v %v, want cell 9", c, ok)
	}
	mesh, _ := Mesh(2, 2)
	if _, err := FoldLinear(mesh); err == nil {
		t.Error("FoldLinear accepted a mesh")
	}
}

func TestCombLinearLayout(t *testing.T) {
	g, _ := Linear(12)
	comb, err := CombLinear(g, 3)
	if err != nil {
		t.Fatal(err)
	}
	// Four teeth of height 3, two pitches apart: successive cells ≤ 2.
	if d := comb.MaxEdgeLength(); d > 2.01 {
		t.Errorf("comb neighbor distance %g, want ≤ 2", d)
	}
	b := comb.Bounds()
	if b.Width() < b.Height() {
		t.Errorf("comb should be wider than tall: %gx%g", b.Width(), b.Height())
	}
	if _, err := CombLinear(g, 0); err == nil {
		t.Error("tooth height 0 accepted")
	}
	mesh, _ := Mesh(2, 2)
	if _, err := CombLinear(mesh, 2); err == nil {
		t.Error("CombLinear accepted a mesh")
	}
}

func TestCommunicatingPairsMemoized(t *testing.T) {
	g, err := Mesh(4, 4)
	if err != nil {
		t.Fatal(err)
	}
	if a, b := g.PairIndex(), g.PairIndex(); a.NumPairs() == 0 || a != b {
		t.Fatal("PairIndex not memoized: distinct indexes")
	}
}

func TestCommunicatingPairsRepeatedCallsStable(t *testing.T) {
	g, err := Mesh(4, 4)
	if err != nil {
		t.Fatal(err)
	}
	first, second := indexPairs(g.PairIndex()), indexPairs(g.PairIndex())
	if len(first) == 0 || len(first) != len(second) {
		t.Fatalf("repeated enumerations differ: %d vs %d pairs", len(first), len(second))
	}
	for i := range first {
		if first[i] != second[i] {
			t.Fatalf("pair %d: %v then %v", i, first[i], second[i])
		}
	}
}

func TestCommunicatingPairsMemoizedConcurrent(t *testing.T) {
	g, err := Mesh(6, 6)
	if err != nil {
		t.Fatal(err)
	}
	want := int64(len(referencePairs(g)))
	done := make(chan *PairIndex, 8)
	for i := 0; i < 8; i++ {
		go func() { done <- g.PairIndex() }()
	}
	first := <-done
	for i := 1; i < 8; i++ {
		if ix := <-done; ix != first {
			t.Fatal("concurrent PairIndex calls built distinct indexes")
		}
	}
	if got := first.NumPairs(); got != want {
		t.Fatalf("concurrent PairIndex NumPairs = %d, want %d", got, want)
	}
}

// Callers assemble cells and edges freely and then construct: New copies
// both slices, so editing them afterwards cannot reach the graph or its
// pair index.
func TestMutationBeforeFirstPairsCallAllowed(t *testing.T) {
	base, err := Linear(4)
	if err != nil {
		t.Fatal(err)
	}
	cells := cellsOf(base)
	edges := append(edgesOf(base), Edge{From: 0, To: 3, Label: "late"})
	g, err := New(KindLinear, "edited", 1, 4, cells, edges)
	if err != nil {
		t.Fatal(err)
	}
	if got := g.PairIndex().NumPairs(); got != 4 {
		t.Fatalf("pairs = %d, want 4 (chain plus the added edge)", got)
	}
	edges[len(edges)-1].To = 2
	cells[0].Pos.X = 99
	if got := indexPairs(g.PairIndex()); got[1] != [2]CellID{0, 3} {
		t.Fatalf("edge edited after New reached the graph: %v", got)
	}
	if g.Cell(0).Pos.X != 0 {
		t.Fatal("cell edited after New reached the graph")
	}
}

// A graph assembled by hand through New, not a topology builder, answers
// pair queries; parallel and reversed edges collapse to one pair.
func TestCommunicatingPairsLiteralGraph(t *testing.T) {
	g, err := New("", "literal", 0, 0,
		[]Cell{{ID: 0}, {ID: 1, Pos: geom.Pt(1, 0)}},
		[]Edge{{From: 0, To: 1}, {From: 1, To: 0}})
	if err != nil {
		t.Fatal(err)
	}
	if got := indexPairs(g.PairIndex()); len(got) != 1 || got[0] != [2]CellID{0, 1} {
		t.Fatalf("literal graph pairs = %v", got)
	}
}

// Cell IDs are stored as int32, so a graph of more than math.MaxInt32
// cells is rejected before anything is allocated for it.
func TestGraphOverInt32CellsRejected(t *testing.T) {
	for name, build := range map[string]func() (*Graph, error){
		"linear": func() (*Graph, error) { return Linear(math.MaxInt32 + 1) },
		"ring":   func() (*Graph, error) { return Ring(math.MaxInt32 + 1) },
		"mesh":   func() (*Graph, error) { return Mesh(1<<16, 1<<16) },
		"meshio": func() (*Graph, error) { return MeshWithBoundaryIO(1<<40, 1<<40) },
		"torus":  func() (*Graph, error) { return Torus(math.MaxInt64, 3) },
		"hex":    func() (*Graph, error) { return Hex(1 << 16) },
	} {
		if _, err := build(); err == nil {
			t.Errorf("%s: graph over %d cells accepted", name, math.MaxInt32)
		}
	}
}
