package clocktree

// Native fuzz targets for the tree builders: arbitrary byte strings
// decode into planar cell layouts (degenerate ones included — a single
// cell, collinear cells, coincident coordinates on one axis producing
// zero-length wire segments), and every layout the builders accept must
// yield a structurally valid tree whose distance queries satisfy the
// metric identities the skew models rely on. Seed corpus lives in
// testdata/fuzz/; CI runs each target briefly as a smoke test.

import (
	"fmt"
	"math"
	"testing"

	"repro/internal/comm"
	"repro/internal/geom"
)

// layoutFromBytes decodes data as consecutive (x, y) int8 pairs into a
// linear-array graph at those positions (at most 32 cells, so fuzzing
// stays fast). It returns nil for layouts comm rejects — an empty byte
// string or duplicate cell positions.
func layoutFromBytes(data []byte) *comm.Graph {
	n := len(data) / 2
	if n == 0 {
		return nil
	}
	if n > 32 {
		n = 32
	}
	var cells []comm.Cell
	for i := 0; i < n; i++ {
		cells = append(cells, comm.Cell{
			ID:  comm.CellID(i),
			Pos: geom.Pt(float64(int8(data[2*i])), float64(int8(data[2*i+1]))),
		})
	}
	edges := []comm.Edge{{From: comm.Host, To: 0, Label: "x"}}
	for i := 0; i+1 < n; i++ {
		edges = append(edges, comm.Edge{From: comm.CellID(i), To: comm.CellID(i + 1), Label: "x"})
	}
	edges = append(edges, comm.Edge{From: comm.CellID(n - 1), To: comm.Host, Label: "x"})
	g, err := comm.New(comm.KindLinear, fmt.Sprintf("fuzz-%d", n), 0, 0, cells, edges)
	if err != nil {
		return nil
	}
	return g
}

// checkTreeMetrics asserts the structural and metric invariants every
// built tree must satisfy: it validates, it clocks every cell, the root
// is at distance zero, and for every cell pair the tree-path length is
// symmetric, at least the difference distance (A9 vs A10 consistency),
// and equals the two root-path segments beyond the pair's LCA.
func checkTreeMetrics(t *testing.T, g *comm.Graph, tree *Tree) {
	t.Helper()
	if err := tree.Validate(); err != nil {
		t.Fatalf("built tree fails validation: %v", err)
	}
	if !tree.Covers(g) {
		t.Fatalf("tree %q does not cover its own graph", tree.Name)
	}
	if d := tree.RootDist(tree.Root()); d != 0 {
		t.Fatalf("root at distance %g from itself", d)
	}
	for a := comm.CellID(0); int(a) < g.NumCells(); a++ {
		if d := tree.CellRootDist(a); d < 0 || math.IsNaN(d) {
			t.Fatalf("cell %d has root distance %g", a, d)
		}
		for b := a + 1; int(b) < g.NumCells(); b++ {
			s, sRev := tree.CellPathLen(a, b), tree.CellPathLen(b, a)
			if s != sRev {
				t.Fatalf("path length asymmetric: %g vs %g", s, sRev)
			}
			d := tree.DiffDist(tree.mustCellNode(a), tree.mustCellNode(b))
			if d < 0 || s < 0 || math.IsNaN(s) || math.IsNaN(d) {
				t.Fatalf("negative or NaN distances: d=%g s=%g", d, s)
			}
			if s < d-1e-9 {
				t.Fatalf("tree path %g below difference distance %g (cells %d,%d)", s, d, a, b)
			}
		}
	}
}

func addLayoutSeeds(f *testing.F) {
	f.Add([]byte{0, 0})                         // single cell
	f.Add([]byte{0, 0, 10, 0, 20, 0, 30, 0})    // collinear cells (one row)
	f.Add([]byte{0, 0, 0, 5, 0, 10})            // shared x: zero-length horizontal wire segments
	f.Add([]byte{0, 0, 1, 1, 2, 0, 3, 1, 4, 0}) // zig-zag
	f.Add([]byte{255, 255, 0, 0, 127, 127})     // extreme int8 corners
}

// FuzzSpine checks that the chain builder accepts any distinct-position
// layout and that adjacent cells end up exactly one wire apart: on a
// spine the tree path between successive cells is the rectilinear wire
// between them, the property Theorem 3 depends on.
func FuzzSpine(f *testing.F) {
	addLayoutSeeds(f)
	f.Fuzz(func(t *testing.T, data []byte) {
		g := layoutFromBytes(data)
		if g == nil {
			t.Skip("layout rejected by comm")
		}
		tree, err := Spine(g)
		if err != nil {
			t.Fatalf("Spine rejected a valid layout: %v", err)
		}
		checkTreeMetrics(t, g, tree)
		for i := 0; i+1 < g.NumCells(); i++ {
			a, b := g.Cell(comm.CellID(i)), g.Cell(comm.CellID(i+1))
			want := geom.Rectilinear(a.Pos, b.Pos).Length()
			if got := tree.CellPathLen(a.ID, b.ID); math.Abs(got-want) > 1e-9 {
				t.Fatalf("spine distance %d↔%d is %g, want wire length %g", a.ID, b.ID, got, want)
			}
		}
	})
}

// FuzzHTree checks the recursive builder on arbitrary layouts, node for
// node against the sort-per-region reference, and then the Theorem 2
// mechanism on each: every cell node of an H-tree is a leaf, so Equalize
// must drive every cell's root distance to the common maximum, leaving a
// tree with zero difference skew.
func FuzzHTree(f *testing.F) {
	addLayoutSeeds(f)
	f.Fuzz(func(t *testing.T, data []byte) {
		g := layoutFromBytes(data)
		if g == nil {
			t.Skip("layout rejected by comm")
		}
		tree, err := HTree(g)
		if err != nil {
			t.Fatalf("HTree rejected a valid layout: %v", err)
		}
		checkTreeMetrics(t, g, tree)
		ref, err := htreeRef(g)
		if err != nil {
			t.Fatalf("reference H-tree: %v", err)
		}
		if fingerprint(tree) != fingerprint(ref) {
			t.Fatalf("HTree differs from the sort-per-region reference")
		}
		added, err := tree.Equalize()
		if err != nil {
			t.Fatalf("Equalize rejected an H-tree: %v", err)
		}
		if added < 0 || math.IsNaN(added) {
			t.Fatalf("Equalize added %g", added)
		}
		if err := tree.Validate(); err != nil {
			t.Fatalf("equalized tree fails validation: %v", err)
		}
		max := tree.MaxRootDist()
		for id := comm.CellID(0); int(id) < g.NumCells(); id++ {
			c := g.Cell(id)
			if d := tree.CellRootDist(c.ID); math.Abs(d-max) > 1e-9 {
				t.Fatalf("cell %d not equalized: root distance %g, want %g", c.ID, d, max)
			}
		}
	})
}

// FuzzBuffered checks buffer insertion on arbitrary layouts, spacings and
// equalized or raw trees: the buffered tree validates, every original
// node keeps its root distance, no segment's electrical length exceeds
// the spacing, and every regenerated wire joins its parent's position to
// its node's.
func FuzzBuffered(f *testing.F) {
	f.Add([]byte{0, 0}, uint8(0), false)
	f.Add([]byte{0, 0, 10, 0, 20, 0, 30, 0}, uint8(3), false)
	f.Add([]byte{0, 0, 0, 5, 0, 10}, uint8(1), true)
	f.Add([]byte{0, 0, 1, 1, 2, 0, 3, 1, 4, 0}, uint8(2), true)
	f.Add([]byte{255, 255, 0, 0, 127, 127}, uint8(7), true)
	f.Fuzz(func(t *testing.T, data []byte, sp uint8, equalize bool) {
		g := layoutFromBytes(data)
		if g == nil {
			t.Skip("layout rejected by comm")
		}
		spacing := 1 + float64(sp)/8
		build := HTree
		if !equalize && sp%2 == 1 {
			build = Spine
		}
		tree, err := build(g)
		if err != nil {
			t.Fatalf("builder rejected a valid layout: %v", err)
		}
		if equalize {
			if _, err := tree.Equalize(); err != nil {
				t.Fatalf("Equalize rejected an H-tree: %v", err)
			}
		}
		buf, err := Buffered(tree, spacing)
		if err != nil {
			t.Fatalf("Buffered: %v", err)
		}
		if err := buf.Validate(); err != nil {
			t.Fatalf("buffered tree fails validation: %v", err)
		}
		for id := comm.CellID(0); int(id) < g.NumCells(); id++ {
			c := g.Cell(id)
			if d1, d2 := tree.CellRootDist(c.ID), buf.CellRootDist(c.ID); math.Abs(d1-d2) > 1e-9 {
				t.Fatalf("cell %d root distance %g → %g", c.ID, d1, d2)
			}
		}
		if got, want := buf.MaxRootDist(), tree.MaxRootDist(); math.Abs(got-want) > 1e-9 {
			t.Fatalf("max root distance %g → %g", want, got)
		}
		for v := 1; v < buf.NumNodes(); v++ {
			id := NodeID(v)
			if l := buf.EdgeLen(id); l > spacing+1e-9 {
				t.Fatalf("segment into node %d has length %g > spacing %g", v, l, spacing)
			}
			w := buf.Wire(id)
			if !w[0].Eq(buf.Node(buf.Parent(id)).Pos, 0) || !w[len(w)-1].Eq(buf.Node(id).Pos, 0) {
				t.Fatalf("wire of node %d does not join its parent's position to its own", v)
			}
		}
	})
}
