package comm

import (
	"encoding/json"
	"testing"
)

func TestJSONRoundTrip(t *testing.T) {
	builders := []func() (*Graph, error){
		func() (*Graph, error) { return Linear(7) },
		func() (*Graph, error) { return Mesh(3, 5) },
		func() (*Graph, error) { return Hex(3) },
		func() (*Graph, error) { return Ring(9) },
		func() (*Graph, error) { return CompleteBinaryTree(4) },
		func() (*Graph, error) { return MeshWithBoundaryIO(3, 3) },
		func() (*Graph, error) { return HexWithBandIO(3) },
	}
	for _, build := range builders {
		orig, err := build()
		if err != nil {
			t.Fatal(err)
		}
		data, err := json.Marshal(orig)
		if err != nil {
			t.Fatal(err)
		}
		got := new(Graph)
		if err := json.Unmarshal(data, got); err != nil {
			t.Fatalf("%s: %v", orig.Name, err)
		}
		if got.Name != orig.Name || got.Kind() != orig.Kind() ||
			got.Rows() != orig.Rows() || got.Cols() != orig.Cols() {
			t.Errorf("%s: metadata changed", orig.Name)
		}
		if got.NumCells() != orig.NumCells() || got.NumEdges() != orig.NumEdges() {
			t.Fatalf("%s: size changed", orig.Name)
		}
		for i := CellID(0); int(i) < orig.NumCells(); i++ {
			if c := orig.Cell(i); got.Cell(i) != c {
				t.Fatalf("%s: cell %d changed: %+v vs %+v", orig.Name, i, got.Cell(i), c)
			}
		}
		for i := 0; i < orig.NumEdges(); i++ {
			if got.Edge(i) != orig.Edge(i) {
				t.Fatalf("%s: edge %d changed", orig.Name, i)
			}
		}
		// Grid index must survive the round trip.
		if orig.Kind() == KindMesh {
			a, okA := orig.CellAt(1, 2)
			b, okB := got.CellAt(1, 2)
			if okA != okB || a.ID != b.ID {
				t.Errorf("%s: CellAt broken after round trip", orig.Name)
			}
		}
	}
}

// decodeGraph decodes a graph the way a service request carries one.
func decodeGraph(doc string) (*Graph, error) {
	g := new(Graph)
	return g, json.Unmarshal([]byte(doc), g)
}

func TestReadJSONRejectsGarbage(t *testing.T) {
	if _, err := decodeGraph("{nonsense"); err == nil {
		t.Error("garbage accepted")
	}
	// Non-dense IDs.
	bad := `{"kind":"linear","name":"x","cells":[{"id":3,"x":0,"y":0}],"edges":[]}`
	if _, err := decodeGraph(bad); err == nil {
		t.Error("non-dense IDs accepted")
	}
	// Dangling edge.
	bad2 := `{"kind":"linear","name":"x","cells":[{"id":0,"x":0,"y":0}],"edges":[{"from":0,"to":9}]}`
	if _, err := decodeGraph(bad2); err == nil {
		t.Error("dangling edge accepted")
	}
	// Trailing data after the value.
	if _, err := decodeGraph(`{"kind":"linear","name":"x","cells":[{"id":0,"x":0,"y":0}],"edges":[]} {}`); err == nil {
		t.Error("trailing data accepted")
	}
	// Duplicate positions.
	bad3 := `{"kind":"linear","name":"x","cells":[{"id":0,"x":0,"y":0},{"id":1,"x":0,"y":0}],"edges":[]}`
	if _, err := decodeGraph(bad3); err == nil {
		t.Error("duplicate positions accepted")
	}
}

// TestCellAtHugeDeclaredGrid decodes a graph whose declared grid is far
// larger than its cells (large enough to overflow rows·cols): CellAt
// must answer from the cells without allocating or indexing that grid.
func TestCellAtHugeDeclaredGrid(t *testing.T) {
	in := `{"kind":"mesh","name":"sparse","rows":4294967296,"cols":4294967296,` +
		`"cells":[{"id":0,"x":0,"y":0},{"id":1,"x":1,"y":0,"col":1}],"edges":[{"from":0,"to":1}]}`
	g, err := decodeGraph(in)
	if err != nil {
		t.Fatal(err)
	}
	if c, ok := g.CellAt(0, 1); !ok || c.ID != 1 {
		t.Fatalf("CellAt(0,1) = %v %v, want cell 1", c, ok)
	}
	if _, ok := g.CellAt(5, 5); ok {
		t.Fatal("CellAt(5,5) found a cell in an empty slot")
	}
}
