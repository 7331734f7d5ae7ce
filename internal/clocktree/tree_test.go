package clocktree

import (
	"fmt"
	"math"
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/comm"
	"repro/internal/geom"
	"repro/internal/stats"
)

func mustLinear(t *testing.T, n int) *comm.Graph {
	t.Helper()
	g, err := comm.Linear(n)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func mustMesh(t *testing.T, r, c int) *comm.Graph {
	t.Helper()
	g, err := comm.Mesh(r, c)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func TestSpineStructure(t *testing.T) {
	g := mustLinear(t, 8)
	tr, err := Spine(g)
	if err != nil {
		t.Fatal(err)
	}
	if err := tr.Validate(); err != nil {
		t.Fatal(err)
	}
	if tr.NumNodes() != 8 {
		t.Errorf("NumNodes = %d", tr.NumNodes())
	}
	if !tr.Covers(g) {
		t.Error("spine does not cover all cells")
	}
	// Chain: neighbor path length 1, far pair path length = index diff.
	if d := tr.CellPathLen(3, 4); math.Abs(d-1) > 1e-9 {
		t.Errorf("neighbor PathLen = %g", d)
	}
	if d := tr.CellPathLen(0, 7); math.Abs(d-7) > 1e-9 {
		t.Errorf("end-to-end PathLen = %g", d)
	}
	if d := tr.CellRootDist(5); math.Abs(d-5) > 1e-9 {
		t.Errorf("CellRootDist(5) = %g", d)
	}
}

// spineWithHost is Spine with an extra root node at hostPos representing
// the host interface, so host-to-cell skews can be analyzed (the concern
// Fig. 5's folded layout addresses).
func spineWithHost(g *comm.Graph, hostPos geom.Point) (*Tree, error) {
	if g.NumCells() == 0 {
		return nil, fmt.Errorf("clocktree: spineWithHost on empty graph")
	}
	b := newBuilder("spine+host/"+g.Name, g.NumCells()+1, g.NumCells())
	prev := b.Root(hostPos, comm.Host)
	for id := comm.CellID(0); int(id) < g.NumCells(); id++ {
		c := g.Cell(id)
		prev = b.Child(prev, c.Pos, c.ID)
	}
	return b.Finalize()
}

// maxSegmentLength returns the longest single wire (unbuffered segment)
// in t — the quantity A7's τ is proportional to in a buffered tree.
func maxSegmentLength(t *Tree) float64 {
	var m float64
	for v := range t.pos {
		if l := t.EdgeLen(NodeID(v)); l > m {
			m = l
		}
	}
	return m
}

func TestSpineWithHost(t *testing.T) {
	g := mustLinear(t, 6)
	tr, err := spineWithHost(g, geom.Pt(-1, 0))
	if err != nil {
		t.Fatal(err)
	}
	if tr.NumNodes() != 7 {
		t.Errorf("NumNodes = %d", tr.NumNodes())
	}
	// Host-to-far-end path length grows with n — the Fig. 5 concern.
	rootNode := tr.Root()
	far, _ := tr.CellNode(5)
	if d := tr.PathLen(rootNode, far); math.Abs(d-6) > 1e-9 {
		t.Errorf("host-to-end PathLen = %g, want 6", d)
	}
}

func TestFoldedSpineReducesHostSkew(t *testing.T) {
	// Fold the array (Fig. 5): with the host at the fold's open end, the
	// host-to-last-cell tree path shrinks from n to ≈ 2 hops of wire.
	n := 16
	g := mustLinear(t, n)
	folded, err := comm.FoldLinear(g)
	if err != nil {
		t.Fatal(err)
	}
	straight, err := spineWithHost(g, geom.Pt(-1, 0))
	if err != nil {
		t.Fatal(err)
	}
	bent, err := spineWithHost(folded, geom.Pt(-1, 0.5))
	if err != nil {
		t.Fatal(err)
	}
	lastStraight, _ := straight.CellNode(comm.CellID(n - 1))
	lastBent, _ := bent.CellNode(comm.CellID(n - 1))
	dStraight := straight.PathLen(straight.Root(), lastStraight)
	dBent := bent.PathLen(bent.Root(), lastBent)
	// The folded layout still routes the clock along the whole chain, but
	// the *physical* distance from host to the last cell is now O(1).
	if got := bent.Node(lastBent).Pos.Dist(bent.Node(bent.Root()).Pos); got > 2.5 {
		t.Errorf("folded last cell sits %g from host, want ≤ 2.5", got)
	}
	if dBent < dStraight-1e9 {
		t.Logf("tree path host→end: straight %g, folded %g", dStraight, dBent)
	}
}

func TestSerpentineNeighborGap(t *testing.T) {
	g := mustMesh(t, 4, 8)
	tr, err := Serpentine(g)
	if err != nil {
		t.Fatal(err)
	}
	if err := tr.Validate(); err != nil {
		t.Fatal(err)
	}
	if !tr.Covers(g) {
		t.Error("serpentine does not cover mesh")
	}
	// Vertically adjacent cells at a row end are 1 apart on the chain; at
	// the far end of the row they are ≈ 2·cols−1 apart — the failure mode
	// of 1D clocking in 2D.
	a, _ := g.CellAt(0, 0)
	b, _ := g.CellAt(1, 0)
	if d := tr.CellPathLen(a.ID, b.ID); d < float64(2*g.Cols()-2) {
		t.Errorf("serpentine column-adjacent path = %g, want ≥ %d", d, 2*g.Cols()-2)
	}
}

func TestSerpentineRejectsNonGrid(t *testing.T) {
	g, err := comm.CompleteBinaryTree(3)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Serpentine(g); err == nil {
		t.Error("Serpentine accepted a non-grid graph")
	}
}

func TestHTreeEquidistantOnPowerOfTwoMesh(t *testing.T) {
	g := mustMesh(t, 8, 8)
	tr, err := HTree(g)
	if err != nil {
		t.Fatal(err)
	}
	if err := tr.Validate(); err != nil {
		t.Fatal(err)
	}
	if !tr.Covers(g) {
		t.Fatal("H-tree does not cover mesh")
	}
	// Root distances of all cells should be equal (classical H-tree).
	var dists []float64
	for id := comm.CellID(0); int(id) < g.NumCells(); id++ {
		c := g.Cell(id)
		dists = append(dists, tr.CellRootDist(c.ID))
	}
	spread := stats.Max(dists) - stats.Min(dists)
	if spread > 1e-9 {
		t.Errorf("H-tree on 8×8 mesh root-distance spread = %g, want 0", spread)
	}
}

func TestHTreeEqualizeOnIrregularLayout(t *testing.T) {
	g := mustMesh(t, 5, 7) // not a power of two: raw H-tree is unequal
	tr, err := HTree(g)
	if err != nil {
		t.Fatal(err)
	}
	added, err := tr.Equalize()
	if err != nil {
		t.Fatal(err)
	}
	if added < 0 {
		t.Errorf("Equalize added negative slack %g", added)
	}
	var dists []float64
	for id := comm.CellID(0); int(id) < g.NumCells(); id++ {
		c := g.Cell(id)
		dists = append(dists, tr.CellRootDist(c.ID))
	}
	if spread := stats.Max(dists) - stats.Min(dists); spread > 1e-9 {
		t.Errorf("post-Equalize spread = %g, want 0", spread)
	}
	if err := tr.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestHTreeAreaConstantFactor(t *testing.T) {
	// Lemma 1: the clock tree fits in O(layout area). Check wire length
	// per cell stays bounded as the mesh grows.
	var prev float64
	for _, n := range []int{8, 16, 32} {
		g := mustMesh(t, n, n)
		tr, err := HTree(g)
		if err != nil {
			t.Fatal(err)
		}
		perCell := tr.TotalWireLength() / float64(g.NumCells())
		if prev > 0 && perCell > prev*1.5 {
			t.Errorf("n=%d: wire per cell %g grows vs %g — not constant factor", n, perCell, prev)
		}
		prev = perCell
	}
}

func TestHTreeSingleCell(t *testing.T) {
	g := mustLinear(t, 1)
	tr, err := HTree(g)
	if err != nil {
		t.Fatal(err)
	}
	if tr.NumNodes() != 1 {
		t.Errorf("NumNodes = %d", tr.NumNodes())
	}
	if tr.MaxRootDist() != 0 {
		t.Errorf("MaxRootDist = %g", tr.MaxRootDist())
	}
}

func TestRandomBinaryValidAndCovering(t *testing.T) {
	g := mustMesh(t, 6, 6)
	for seed := int64(0); seed < 5; seed++ {
		tr, err := RandomBinary(g, stats.NewRNG(seed))
		if err != nil {
			t.Fatal(err)
		}
		if err := tr.Validate(); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if !tr.Covers(g) {
			t.Fatalf("seed %d: not covering", seed)
		}
	}
}

func TestRandomBinaryDeterministicPerSeed(t *testing.T) {
	g := mustMesh(t, 5, 5)
	a, _ := RandomBinary(g, stats.NewRNG(9))
	b, _ := RandomBinary(g, stats.NewRNG(9))
	if a.NumNodes() != b.NumNodes() {
		t.Fatalf("node counts differ: %d vs %d", a.NumNodes(), b.NumNodes())
	}
	for id := comm.CellID(0); int(id) < g.NumCells(); id++ {
		c := g.Cell(id)
		if a.CellRootDist(c.ID) != b.CellRootDist(c.ID) {
			t.Fatalf("cell %d root dist differs", c.ID)
		}
	}
}

func TestLCAAndPathLen(t *testing.T) {
	// Hand-built tree:        r
	//                       /   \
	//                      a     b
	//                     / \
	//                    c   d
	b := NewBuilder("hand")
	r := b.Root(geom.Pt(0, 0), comm.Host)
	a := b.Child(r, geom.Pt(-2, 0), 0)
	c := b.Child(a, geom.Pt(-2, 2), 2)
	d := b.Child(a, geom.Pt(-2, -1), 3)
	bb := b.Child(r, geom.Pt(3, 0), 1)
	tr, err := b.Finalize()
	if err != nil {
		t.Fatal(err)
	}
	if got := tr.LCA(c, d); got != a {
		t.Errorf("LCA(c,d) = %d, want %d", got, a)
	}
	if got := tr.LCA(c, bb); got != r {
		t.Errorf("LCA(c,b) = %d, want root", got)
	}
	if got := tr.LCA(a, c); got != a {
		t.Errorf("LCA(a,c) = %d, want a", got)
	}
	if got := tr.LCA(r, r); got != r {
		t.Errorf("LCA(r,r) = %d", got)
	}
	if pl := tr.PathLen(c, d); math.Abs(pl-3) > 1e-9 {
		t.Errorf("PathLen(c,d) = %g, want 3", pl)
	}
	if pl := tr.PathLen(c, bb); math.Abs(pl-7) > 1e-9 {
		t.Errorf("PathLen(c,b) = %g, want 7", pl)
	}
	if dd := tr.DiffDist(c, bb); math.Abs(dd-1) > 1e-9 {
		t.Errorf("DiffDist(c,b) = %g, want 1", dd)
	}
	if pl := tr.PathLen(r, r); pl != 0 {
		t.Errorf("PathLen(r,r) = %g", pl)
	}
}

func TestPathLenSymmetryProperty(t *testing.T) {
	g := mustMesh(t, 4, 4)
	tr, err := HTree(g)
	if err != nil {
		t.Fatal(err)
	}
	f := func(a, b uint8) bool {
		x := comm.CellID(int(a) % g.NumCells())
		y := comm.CellID(int(b) % g.NumCells())
		return math.Abs(tr.CellPathLen(x, y)-tr.CellPathLen(y, x)) < 1e-12 &&
			tr.CellPathLen(x, y) >= tr.DiffDist(tr.mustCellNode(x), tr.mustCellNode(y))-1e-12
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestBufferedPreservesDistances(t *testing.T) {
	g := mustMesh(t, 4, 4)
	tr, err := HTree(g)
	if err != nil {
		t.Fatal(err)
	}
	buf, err := Buffered(tr, 0.75)
	if err != nil {
		t.Fatal(err)
	}
	if err := buf.Validate(); err != nil {
		t.Fatal(err)
	}
	if !buf.Covers(g) {
		t.Fatal("buffered tree lost cells")
	}
	if buf.BufferCount() == 0 {
		t.Error("no buffers inserted")
	}
	if seg := maxSegmentLength(buf); seg > 0.75+1e-9 {
		t.Errorf("max segment %g exceeds spacing", seg)
	}
	// Electrical distances are preserved by subdivision.
	for id := comm.CellID(0); int(id) < g.NumCells(); id++ {
		c := g.Cell(id)
		if d1, d2 := tr.CellRootDist(c.ID), buf.CellRootDist(c.ID); math.Abs(d1-d2) > 1e-6 {
			t.Errorf("cell %d root dist changed %g → %g", c.ID, d1, d2)
		}
	}
	ix := g.PairIndex()
	for i := int64(0); i < 5; i++ {
		a, b := ix.Pair(i)
		if d1, d2 := tr.CellPathLen(a, b), buf.CellPathLen(a, b); math.Abs(d1-d2) > 1e-6 {
			t.Errorf("pair (%d,%d) path len changed %g → %g", a, b, d1, d2)
		}
	}
}

func TestBufferedRejectsBadSpacing(t *testing.T) {
	g := mustLinear(t, 3)
	tr, _ := Spine(g)
	if _, err := Buffered(tr, 0); err == nil {
		t.Error("spacing 0 accepted")
	}
	if _, err := Buffered(tr, -1); err == nil {
		t.Error("negative spacing accepted")
	}
}

func TestBuilderPanics(t *testing.T) {
	b := NewBuilder("x")
	func() {
		defer func() {
			if recover() == nil {
				t.Error("Child before Root should panic")
			}
		}()
		b.Child(0, geom.Pt(0, 0), comm.Host)
	}()
	b.Root(geom.Pt(0, 0), comm.Host)
	func() {
		defer func() {
			if recover() == nil {
				t.Error("second Root should panic")
			}
		}()
		b.Root(geom.Pt(1, 1), comm.Host)
	}()
	func() {
		defer func() {
			if recover() == nil {
				t.Error("double-clocked cell should panic")
			}
		}()
		b.Child(0, geom.Pt(1, 0), 5)
		b.Child(0, geom.Pt(2, 0), 5)
	}()
}

func TestValidateRejectsTernary(t *testing.T) {
	b := NewBuilder("ternary")
	r := b.Root(geom.Pt(0, 0), comm.Host)
	b.Child(r, geom.Pt(1, 0), 0)
	b.Child(r, geom.Pt(0, 1), 1)
	b.Child(r, geom.Pt(-1, 0), 2)
	if _, err := b.Finalize(); err == nil {
		t.Error("ternary root accepted (violates A4)")
	}
}

// TestValidateRejectsNonPreorder builds the tree of TestLCAAndPathLen
// breadth-first — r, a, b, then a's children c and d — so c's parent a
// is not on b's root path, and Finalize must refuse it: every tree is
// numbered in DFS preorder.
func TestValidateRejectsNonPreorder(t *testing.T) {
	b := NewBuilder("bfs")
	r := b.Root(geom.Pt(0, 0), comm.Host)
	a := b.Child(r, geom.Pt(-2, 0), 0)
	b.Child(r, geom.Pt(3, 0), 1)
	b.Child(a, geom.Pt(-2, 2), 2)
	b.Child(a, geom.Pt(-2, -1), 3)
	_, err := b.Finalize()
	if err == nil || !strings.Contains(err.Error(), "node 3 breaks DFS preorder") {
		t.Fatalf("breadth-first tree: got %v, want a DFS preorder error at node 3", err)
	}
}

// TestAlongCommTreeIsPreorder pins the data-path clock's numbering: it
// validates, its node IDs follow the DFS preorder of the heap-indexed
// cells (children in ascending cell order), and each cell's parent and
// wire length are those of the COMM tree.
func TestAlongCommTreeIsPreorder(t *testing.T) {
	g, err := comm.CompleteBinaryTree(7)
	if err != nil {
		t.Fatal(err)
	}
	tr, err := AlongCommTree(g)
	if err != nil {
		t.Fatal(err)
	}
	if err := tr.Validate(); err != nil {
		t.Fatal(err)
	}
	var order []comm.CellID
	var walk func(c int)
	walk = func(c int) {
		order = append(order, comm.CellID(c))
		for _, ch := range []int{2*c + 1, 2*c + 2} {
			if ch < g.NumCells() {
				walk(ch)
			}
		}
	}
	walk(0)
	if len(order) != tr.NumNodes() {
		t.Fatalf("%d nodes for %d cells", tr.NumNodes(), len(order))
	}
	for id, c := range order {
		v := NodeID(id)
		if got := tr.Node(v).Cell; got != c {
			t.Fatalf("node %d clocks cell %d, want %d", id, got, c)
		}
		if c == 0 {
			continue
		}
		p, _ := tr.CellNode((c - 1) / 2)
		if tr.Parent(v) != p {
			t.Fatalf("cell %d's node has parent %d, want cell %d's node %d", c, tr.Parent(v), (c-1)/2, p)
		}
		if want := g.Cell(c).Pos.ManhattanDist(g.Cell((c - 1) / 2).Pos); tr.EdgeLen(v) != want {
			t.Fatalf("cell %d: edge length %g, want %g", c, tr.EdgeLen(v), want)
		}
	}
}

func TestCellRootDistPanicsOnUnknownCell(t *testing.T) {
	g := mustLinear(t, 2)
	tr, _ := Spine(g)
	defer func() {
		if recover() == nil {
			t.Error("unknown cell should panic")
		}
	}()
	tr.CellRootDist(99)
}

func TestCombSpineBoundedNeighborWire(t *testing.T) {
	g := mustLinear(t, 30)
	combed, err := comm.CombLinear(g, 5)
	if err != nil {
		t.Fatal(err)
	}
	tr, err := Spine(combed)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i+1 < combed.NumCells(); i++ {
		if d := tr.CellPathLen(comm.CellID(i), comm.CellID(i+1)); d > 2+1e-9 {
			t.Errorf("comb neighbor %d path len %g > 2", i, d)
		}
	}
	// Comb layout has aspect ratio ≈ cols/rows, not 30:1.
	if ar := combed.Bounds().AspectRatio(); ar > 4 {
		t.Errorf("comb aspect ratio %g, want ≤ 4", ar)
	}
}

func TestLadderRingConstantSkew(t *testing.T) {
	for _, n := range []int{4, 9, 40, 101} {
		g, err := comm.Ring(n)
		if err != nil {
			t.Fatal(err)
		}
		tr, err := Ladder(g)
		if err != nil {
			t.Fatal(err)
		}
		if err := tr.Validate(); err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		if !tr.Covers(g) {
			t.Fatalf("n=%d: ladder not covering", n)
		}
		// Every ring pair — wrap-around included — within constant tree
		// distance.
		c := g.PairIndex().Cursor(0)
		for a, b, ok := c.Next(); ok; a, b, ok = c.Next() {
			if d := tr.CellPathLen(a, b); d > 4.5 {
				t.Errorf("n=%d: pair (%d,%d) tree distance %g > 4.5", n, a, b, d)
			}
		}
	}
}

func TestLadderRejectsTallLayouts(t *testing.T) {
	g := mustMesh(t, 3, 3)
	if _, err := Ladder(g); err == nil {
		t.Error("3-row layout accepted")
	}
}

func TestLadderOnLinear(t *testing.T) {
	// Single-row layouts are fine: the ladder degenerates to a spine
	// with unit rungs.
	g := mustLinear(t, 10)
	tr, err := Ladder(g)
	if err != nil {
		t.Fatal(err)
	}
	if err := tr.Validate(); err != nil {
		t.Fatal(err)
	}
	c := g.PairIndex().Cursor(0)
	for a, b, ok := c.Next(); ok; a, b, ok = c.Next() {
		if d := tr.CellPathLen(a, b); d > 2.1 {
			t.Errorf("pair (%d,%d) distance %g", a, b, d)
		}
	}
}

func TestAlongCommTreeSkewTracksWireLength(t *testing.T) {
	g, err := comm.CompleteBinaryTree(6)
	if err != nil {
		t.Fatal(err)
	}
	tr, err := AlongCommTree(g)
	if err != nil {
		t.Fatal(err)
	}
	if err := tr.Validate(); err != nil {
		t.Fatal(err)
	}
	if !tr.Covers(g) {
		t.Fatal("not covering")
	}
	// Every communicating pair is a COMM tree edge, and the clock path
	// between them IS that edge: tree distance == physical distance.
	c := g.PairIndex().Cursor(0)
	for a, b, ok := c.Next(); ok; a, b, ok = c.Next() {
		want := g.Cell(a).Pos.Dist(g.Cell(b).Pos)
		if got := tr.CellPathLen(a, b); math.Abs(got-want) > 1e-9 {
			t.Errorf("pair (%d,%d): clock distance %g != wire %g", a, b, got, want)
		}
	}
}

func TestAlongCommTreeRejectsNonTree(t *testing.T) {
	g := mustMesh(t, 3, 3)
	if _, err := AlongCommTree(g); err == nil {
		t.Error("mesh accepted")
	}
}

func TestAlongCommTreeSingleNode(t *testing.T) {
	g, err := comm.CompleteBinaryTree(1)
	if err != nil {
		t.Fatal(err)
	}
	tr, err := AlongCommTree(g)
	if err != nil {
		t.Fatal(err)
	}
	if tr.NumNodes() != 1 {
		t.Errorf("NumNodes = %d", tr.NumNodes())
	}
}

// everyBuilderTree builds one tree with every builder in the package, each
// also buffered.
func everyBuilderTree(t *testing.T) []*Tree {
	t.Helper()
	mesh := mustMesh(t, 5, 7)
	lin := mustLinear(t, 23)
	ring, err := comm.Ring(9)
	if err != nil {
		t.Fatal(err)
	}
	bin, err := comm.CompleteBinaryTree(4)
	if err != nil {
		t.Fatal(err)
	}
	var trees []*Tree
	for _, build := range []func() (*Tree, error){
		func() (*Tree, error) { return HTree(mesh) },
		func() (*Tree, error) { return Spine(lin) },
		func() (*Tree, error) { return spineWithHost(lin, geom.Pt(-1, 0)) },
		func() (*Tree, error) { return Ladder(ring) },
		func() (*Tree, error) { return Serpentine(mesh) },
		func() (*Tree, error) { return RandomBinary(mesh, stats.NewRNG(11)) },
		func() (*Tree, error) { return RandomBinary(lin, stats.NewRNG(5)) },
		func() (*Tree, error) { return AlongCommTree(bin) },
	} {
		tr, err := build()
		if err != nil {
			t.Fatal(err)
		}
		buf, err := Buffered(tr, 0.7)
		if err != nil {
			t.Fatal(err)
		}
		trees = append(trees, tr, buf)
	}
	return trees
}

// naiveLCA marks every ancestor of a, then climbs from b to the first
// marked node.
func naiveLCA(tr *Tree, a, b NodeID) NodeID {
	anc := map[NodeID]bool{}
	for v := a; v >= 0; v = tr.Parent(v) {
		anc[v] = true
	}
	for v := b; ; v = tr.Parent(v) {
		if anc[v] {
			return v
		}
	}
}

// The batch PathLens and the per-pair queries must give bit-identical
// path lengths on every node pair of every tree shape the package
// builds, and the jump-pointer search must agree with a naive
// ancestor-set LCA.
func TestBatchLCAMatchesWalk(t *testing.T) {
	for _, tr := range everyBuilderTree(t) {
		n := tr.NumNodes()
		var as, bs []int32
		for a := 0; a < n; a++ {
			for b := a; b < n; b++ {
				// Alternate the orientation so both query-list orders occur.
				if (a+b)%2 == 0 {
					as, bs = append(as, int32(a)), append(bs, int32(b))
				} else {
					as, bs = append(as, int32(b)), append(bs, int32(a))
				}
			}
		}
		s := make([]float64, len(as))
		tr.PathLens(as, bs, s)
		for i := range as {
			a, b := NodeID(as[i]), NodeID(bs[i])
			if l, want := tr.LCA(a, b), naiveLCA(tr, a, b); l != want {
				t.Fatalf("tree %q: LCA(%d,%d) = %d, want %d", tr.Name, a, b, l, want)
			}
			if got, want := s[i], tr.PathLen(a, b); math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("tree %q: batch PathLen(%d,%d) = %v, walk %v", tr.Name, a, b, got, want)
			}
		}
	}
}

func TestLCASingleNodeTree(t *testing.T) {
	b := NewBuilder("solo")
	r := b.Root(geom.Pt(0, 0), 0)
	tr, err := b.Finalize()
	if err != nil {
		t.Fatal(err)
	}
	if got := tr.LCA(r, r); got != r {
		t.Errorf("LCA(root,root) = %d", got)
	}
	s := []float64{-1}
	tr.PathLens([]int32{0}, []int32{0}, s)
	if s[0] != 0 {
		t.Errorf("batch PathLen(root,root) = %g", s[0])
	}
}

// TestLCAMatchesNaiveOnBufferedRandomTrees checks LCA, PathLen and
// PathLens against naiveLCA on random trees buffered at random
// spacings, whose long unary buffer chains the jump pointers skip.
func TestLCAMatchesNaiveOnBufferedRandomTrees(t *testing.T) {
	rng := stats.NewRNG(29)
	for trial := 0; trial < 24; trial++ {
		g, err := comm.Mesh(2+rng.Intn(6), 2+rng.Intn(6))
		if err != nil {
			t.Fatal(err)
		}
		tr, err := RandomBinary(g, rng.Fork(int64(trial)))
		if err != nil {
			t.Fatal(err)
		}
		spacing := 0.05 + rng.Float64()
		if tr, err = Buffered(tr, spacing); err != nil {
			t.Fatal(err)
		}
		n := tr.NumNodes()
		as, bs := make([]int32, 512), make([]int32, 512)
		for i := range as {
			as[i], bs[i] = int32(rng.Intn(n)), int32(rng.Intn(n))
		}
		s := make([]float64, len(as))
		tr.PathLens(as, bs, s)
		for i := range as {
			a, b := NodeID(as[i]), NodeID(bs[i])
			l := naiveLCA(tr, a, b)
			if got := tr.LCA(a, b); got != l {
				t.Fatalf("%s at spacing %g: LCA(%d,%d) = %d, want %d", tr.Name, spacing, a, b, got, l)
			}
			want := tr.RootDist(a) + tr.RootDist(b) - 2*tr.RootDist(l)
			if got := tr.PathLen(a, b); math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("%s: PathLen(%d,%d) = %v, want %v", tr.Name, a, b, got, want)
			}
			if math.Float64bits(s[i]) != math.Float64bits(want) {
				t.Fatalf("%s: PathLens[%d] = %v, want %v", tr.Name, i, s[i], want)
			}
		}
	}
}

// TestLCAJumpsLogarithmically builds a 2^20-node chain, the deepest
// tree that many nodes make, and requires every LCA search on it,
// end to end included, to take O(log n) steps: the parent walk would
// take up to 2^20.
func TestLCAJumpsLogarithmically(t *testing.T) {
	const n = 1 << 20
	b := newBuilder("chain", n, 0)
	v := b.Root(geom.Pt(0, 0), comm.Host)
	for i := 1; i < n; i++ {
		v = b.Child(v, geom.Pt(float64(i), 0), comm.Host)
	}
	tr, err := b.Finalize()
	if err != nil {
		t.Fatal(err)
	}
	const maxSteps = 3 * 20 // 3·log2(n)
	worst := 0
	for _, q := range [][2]NodeID{
		{0, n - 1}, {n - 1, 0}, {1, n - 1}, {n / 3, n - 1}, {n/2 - 1, n/2 + 1},
		{n - 2, n - 1}, {12345, 987654}, {n - 1, n - 1},
	} {
		l, steps := tr.lca(q[0], q[1])
		if want := min(q[0], q[1]); l != want {
			t.Fatalf("LCA(%d,%d) = %d on a chain, want %d", q[0], q[1], l, want)
		}
		worst = max(worst, steps)
		if steps > maxSteps {
			t.Errorf("LCA(%d,%d) took %d steps, want ≤ %d", q[0], q[1], steps, maxSteps)
		}
	}
	t.Logf("worst LCA search on a %d-node chain: %d steps", n, worst)
}

func benchHTree(b *testing.B, n int) (*comm.Graph, *Tree) {
	b.Helper()
	g, err := comm.Mesh(n, n)
	if err != nil {
		b.Fatal(err)
	}
	tr, err := HTree(g)
	if err != nil {
		b.Fatal(err)
	}
	return g, tr
}

func BenchmarkLCAWalk32(b *testing.B) {
	_, tr := benchHTree(b, 32)
	n := NodeID(tr.NumNodes())
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tr.LCA(NodeID(i)%n, NodeID(i*7+3)%n)
	}
}

// BenchmarkPathLensBatch32 resolves every communicating pair of a 32×32
// mesh in one batch, the way skew.NewKernel does.
func BenchmarkPathLensBatch32(b *testing.B) {
	g, tr := benchHTree(b, 32)
	as, bs := tr.PairNodes(g.PairIndex())
	s := make([]float64, len(as))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tr.PathLens(as, bs, s)
	}
}

// BenchmarkLCABufferedSpine queries the LCA of cells spread along a
// spine over 1024 cells buffered at 1/16, a chain over 16k nodes deep:
// the deep unary chains buffering makes, which the jump pointers skip.
func BenchmarkLCABufferedSpine(b *testing.B) {
	g, err := comm.Linear(1024)
	if err != nil {
		b.Fatal(err)
	}
	sp, err := Spine(g)
	if err != nil {
		b.Fatal(err)
	}
	tr, err := Buffered(sp, 1.0/16)
	if err != nil {
		b.Fatal(err)
	}
	var nodes [64]NodeID
	rng := stats.NewRNG(1)
	for i := range nodes {
		nodes[i], _ = tr.CellNode(comm.CellID(rng.Intn(g.NumCells())))
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tr.LCA(nodes[i%64], nodes[(i*7+3)%64])
	}
}

func BenchmarkHTree128(b *testing.B) {
	g, err := comm.Mesh(128, 128)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := HTree(g); err != nil {
			b.Fatal(err)
		}
	}
}
