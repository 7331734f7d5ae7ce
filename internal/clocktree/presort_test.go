package clocktree

import (
	"encoding/json"
	"math"
	"sort"
	"testing"

	"repro/internal/comm"
	"repro/internal/geom"
	"repro/internal/stats"
)

// splitCellsRef halves a cell set the way H-tree construction is
// specified: copy, sort along the longer axis of the cells' bounding box
// (ties broken by the other coordinate), and cut at len/2.
func splitCellsRef(cells []comm.Cell) (lo, hi []comm.Cell) {
	byX := boxRef(cells).Width() >= boxRef(cells).Height()
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
	m := len(sorted) / 2
	return sorted[:m], sorted[m:]
}

// boxRef is the geom.Rect.Union fold of the cells' positions.
func boxRef(cells []comm.Cell) geom.Rect {
	r := geom.EmptyRect()
	for _, c := range cells {
		r = r.Union(geom.Rect{Min: c.Pos, Max: c.Pos})
	}
	return r
}

func centerRef(cells []comm.Cell) geom.Point {
	r := boxRef(cells)
	return geom.Pt((r.Min.X+r.Max.X)/2, (r.Min.Y+r.Max.Y)/2)
}

// htreeRef is the sort-per-region H-tree: the specification HTree's
// presorted split must reproduce node for node.
func htreeRef(g *comm.Graph) (*Tree, error) {
	cells := make([]comm.Cell, g.NumCells())
	for i := range cells {
		cells[i] = g.Cell(comm.CellID(i))
	}
	b := NewBuilder("htree/" + g.Name)
	if len(cells) == 1 {
		b.Root(cells[0].Pos, cells[0].ID)
		return b.Finalize()
	}
	var build func(parent NodeID, cells []comm.Cell)
	build = func(parent NodeID, cells []comm.Cell) {
		lo, hi := splitCellsRef(cells)
		for _, half := range [][]comm.Cell{lo, hi} {
			if len(half) == 1 {
				b.Child(parent, half[0].Pos, half[0].ID)
				continue
			}
			build(b.Child(parent, centerRef(half), comm.Host), half)
		}
	}
	build(b.Root(centerRef(cells), comm.Host), cells)
	return b.Finalize()
}

// negZeroLayouts decodes graphs whose cells share coordinates and sit at
// both signed zeros, so a region's first and last cell on an axis can be
// at −0 while a cell between them is at +0.
func negZeroLayouts(t *testing.T) map[string]*comm.Graph {
	t.Helper()
	docs := map[string]string{
		"column": `{"kind":"linear","name":"column","cells":[
			{"id":0,"x":-0,"y":0},{"id":1,"x":0,"y":1},{"id":2,"x":-0,"y":2},
			{"id":3,"x":0,"y":3},{"id":4,"x":-0,"y":4}],"edges":[{"from":0,"to":1}]}`,
		"mixed": `{"kind":"linear","name":"mixed","cells":[
			{"id":0,"x":-0,"y":-0},{"id":1,"x":0,"y":1},{"id":2,"x":-0,"y":2},
			{"id":3,"x":1,"y":-0},{"id":4,"x":2,"y":0},{"id":5,"x":3,"y":-0},
			{"id":6,"x":-0,"y":3},{"id":7,"x":2,"y":2},{"id":8,"x":-1,"y":2},
			{"id":9,"x":1,"y":-1},{"id":10,"x":3,"y":3},{"id":11,"x":-0,"y":-2},
			{"id":12,"x":0,"y":-3},{"id":13,"x":-0,"y":5}],"edges":[{"from":0,"to":1}]}`,
	}
	out := map[string]*comm.Graph{}
	for name, doc := range docs {
		g := new(comm.Graph)
		if err := json.Unmarshal([]byte(doc), g); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		out[name] = g
	}
	return out
}

// TestHTreeFingerprints pins HTree bit for bit on lattices of several
// shapes and on decoded layouts with shared and signed-zero coordinates.
// The values were computed with the quickselect construction that the
// presorted split replaced.
func TestHTreeFingerprints(t *testing.T) {
	zero := negZeroLayouts(t)
	for _, tc := range []struct {
		name  string
		g     *comm.Graph
		nodes int
		want  uint64
	}{
		{"mesh16x16", mustMesh(t, 16, 16), 511, 0x93469e708925678c},
		{"mesh37x53", mustMesh(t, 37, 53), 3921, 0x9007bb6352b80b1c},
		{"mesh128x128", mustMesh(t, 128, 128), 32767, 0xca8d498d8ebc67ef},
		{"mesh1x33", mustMesh(t, 1, 33), 65, 0xeab9593a013b7c9},
		{"mesh33x1", mustMesh(t, 33, 1), 65, 0xe24e1bf0c3f05c9},
		{"column", zero["column"], 9, 0xe09d06652fc5ca90},
		{"mixed", zero["mixed"], 27, 0xeb2c96bb45626acd},
	} {
		tr, err := HTree(tc.g)
		if err != nil {
			t.Fatal(err)
		}
		if got := fingerprint(tr); tr.NumNodes() != tc.nodes || got != tc.want {
			t.Errorf("%s: %d nodes, fingerprint %#x; want %d nodes, %#x", tc.name, tr.NumNodes(), got, tc.nodes, tc.want)
		}
		ref, err := htreeRef(tc.g)
		if err != nil {
			t.Fatal(err)
		}
		if fingerprint(ref) != fingerprint(tr) {
			t.Errorf("%s: HTree differs from the sort-per-region reference", tc.name)
		}
	}
}

// TestHTreeSignedZeroCenter checks the case the array ends alone cannot
// decide: every cell of the column is at x = ±0 and the first and last
// are at −0, so the root's x is +0, as math.Max's tie rule makes it.
func TestHTreeSignedZeroCenter(t *testing.T) {
	tr, err := HTree(negZeroLayouts(t)["column"])
	if err != nil {
		t.Fatal(err)
	}
	if x := tr.Node(tr.Root()).Pos.X; x != 0 || math.Signbit(x) {
		t.Fatalf("root x = %g (signbit %v), want +0", x, math.Signbit(x))
	}
}

// TestRandomBinaryFingerprints pins seeded random trees bit for bit, so
// the presorted split keeps every RNG draw and every split of the
// sort-per-level construction it replaced.
func TestRandomBinaryFingerprints(t *testing.T) {
	g := mustMesh(t, 37, 53)
	for _, tc := range []struct {
		seed int64
		want uint64
	}{
		{1, 0x3e64270a5be74ef6},
		{2, 0x2adda046ef756938},
		{3, 0xcb9481a3e47ffe1c},
	} {
		tr, err := RandomBinary(g, stats.NewRNG(tc.seed))
		if err != nil {
			t.Fatal(err)
		}
		if got := fingerprint(tr); tr.NumNodes() != 2*g.NumCells()-1 || got != tc.want {
			t.Errorf("seed %d: %d nodes, fingerprint %#x; want %d nodes, %#x", tc.seed, tr.NumNodes(), got, 2*g.NumCells()-1, tc.want)
		}
	}
	zero := negZeroLayouts(t)["mixed"]
	tr, err := RandomBinary(zero, stats.NewRNG(5))
	if err != nil {
		t.Fatal(err)
	}
	if got, want := fingerprint(tr), uint64(0x934fa5759f5fbf35); got != want {
		t.Errorf("mixed seed 5: fingerprint %#x, want %#x", got, want)
	}
}

// TestBufferedPiecesFingerprints pins buffer insertion bit for bit on
// equalized H-trees (slack shared across pieces), a ladder and a
// serpentine, at spacings that cut wires inside and across their
// corners. The values were computed with geom.Path.Split cutting each
// piece.
func TestBufferedPiecesFingerprints(t *testing.T) {
	ring, err := comm.Ring(40)
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name    string
		g       *comm.Graph
		build   func(*comm.Graph) (*Tree, error)
		eq      bool
		spacing float64
		nodes   int
		want    uint64
	}{
		{"htree37x53eq/0.6", mustMesh(t, 37, 53), HTree, true, 0.6, 6862, 0x62b6f5bb00d1464b},
		{"htree37x53eq/1.3", mustMesh(t, 37, 53), HTree, true, 1.3, 4546, 0x1768772a3e1261de},
		{"ladder40/0.4", ring, Ladder, false, 0.4, 158, 0xf65cbbf9c89b07c2},
		{"serpentine9/0.35", mustMesh(t, 9, 9), Serpentine, false, 0.35, 241, 0x651cb5aa14e79ac2},
	} {
		tr, err := tc.build(tc.g)
		if err != nil {
			t.Fatal(err)
		}
		if tc.eq {
			if _, err := tr.Equalize(); err != nil {
				t.Fatal(err)
			}
		}
		buf, err := Buffered(tr, tc.spacing)
		if err != nil {
			t.Fatal(err)
		}
		if got := fingerprint(buf); buf.NumNodes() != tc.nodes || got != tc.want {
			t.Errorf("%s: %d nodes, fingerprint %#x; want %d nodes, %#x", tc.name, buf.NumNodes(), got, tc.nodes, tc.want)
		}
	}
}

// TestWireCutMatchesPathSplit checks the allocation-free wire cut against
// geom.Path.Split on random rectilinear routes: cutting a route into
// equal pieces must give bit-identical cut points and piece lengths, and
// the same remainder length.
func TestWireCutMatchesPathSplit(t *testing.T) {
	rng := stats.NewRNG(11)
	coord := func() float64 {
		switch rng.Intn(4) {
		case 0:
			return float64(rng.Intn(5))
		case 1:
			return -float64(rng.Intn(5)) / 3
		default:
			return rng.Float64()*20 - 10
		}
	}
	for trial := 0; trial < 2000; trial++ {
		a, b := geom.Pt(coord(), coord()), geom.Pt(coord(), coord())
		length := a.ManhattanDist(b)
		nseg := 1 + rng.Intn(7)
		var w wire
		w.route(a, b)
		rest := geom.Rectilinear(a, b)
		for i := 1; i < nseg; i++ {
			var piece geom.Path
			piece, rest = rest.Split(length / float64(nseg))
			end, l := w.cut(length / float64(nseg))
			same := func(x, y float64) bool { return math.Float64bits(x) == math.Float64bits(y) }
			pieceEnd := piece[len(piece)-1]
			if !same(end.X, pieceEnd.X) || !same(end.Y, pieceEnd.Y) || !same(l, piece.Length()) {
				t.Fatalf("%v→%v piece %d/%d: cut (%v, %v), Split (%v, %v)", a, b, i, nseg, end, l, pieceEnd, piece.Length())
			}
		}
		if got, want := w.length(w.n), rest.Length(); math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("%v→%v: remainder length %v, Split's %v", a, b, got, want)
		}
	}
}
