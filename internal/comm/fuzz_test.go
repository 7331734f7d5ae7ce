package comm

// Native fuzz target for the graph interchange format. The service layer
// ingests graphs posted by untrusted clients, so the contract is strict:
// malformed input must come back as an error — never a panic — and any
// graph that decodes must re-encode and re-decode to the same graph
// (round-trip stability), because the serving cache keys on encoded
// bytes. Seed corpus lives in testdata/fuzz/; CI runs the target briefly
// as a smoke test.

import (
	"bytes"
	"encoding/json"
	"math"
	"testing"

	"repro/internal/geom"
)

func FuzzGraphJSONRoundTrip(f *testing.F) {
	// Inline seeds alongside the committed corpus: one valid graph per
	// topology family, graphs that exercise the label table (two
	// streams, host edges, one distinct label per edge including an
	// empty and a non-ASCII one), plus characteristic malformed inputs.
	for _, build := range []func() (*Graph, error){
		func() (*Graph, error) { return Linear(4) },
		func() (*Graph, error) { return Ring(6) },
		func() (*Graph, error) { return Mesh(2, 3) },
		func() (*Graph, error) { return Hex(2) },
		func() (*Graph, error) { return LinearDual(3) },
		func() (*Graph, error) { return MeshWithBoundaryIO(2, 2) },
		func() (*Graph, error) {
			return New(KindRing, "labels", 0, 0,
				[]Cell{{ID: 0}, {ID: 1, Pos: geom.Pt(1, 0), Col: 1}, {ID: 2, Pos: geom.Pt(0, 1), Row: 1}},
				[]Edge{{From: 0, To: 1, Label: "a"}, {From: 1, To: 2}, {From: 2, To: 0, Label: "Δτ-時"},
					{From: Host, To: 0, Label: "in"}, {From: 1, To: 0, Label: "b"}})
		},
	} {
		g, err := build()
		if err != nil {
			f.Fatal(err)
		}
		data, err := g.MarshalJSON()
		if err != nil {
			f.Fatal(err)
		}
		f.Add(data)
	}
	f.Add([]byte(`{"kind":"mesh","cells":[{"id":5}]}`))
	f.Add([]byte(`{"kind":"linear","cells":[{"id":0,"x":1e308,"y":-1e308}],"edges":[{"from":-1,"to":0}]}`))
	f.Add([]byte(`[]`))
	f.Add([]byte(`{"edges":[{"from":0,"to":99}]}`))

	f.Fuzz(func(t *testing.T, data []byte) {
		var g Graph
		if err := g.UnmarshalJSON(data); err != nil {
			return // malformed input must error, and it did
		}
		first, err := g.MarshalJSON()
		if err != nil {
			t.Fatalf("accepted graph fails to encode: %v", err)
		}
		var g2 Graph
		if err := g2.UnmarshalJSON(first); err != nil {
			t.Fatalf("emitted JSON does not decode: %v\n%s", err, first)
		}
		second, err := g2.MarshalJSON()
		if err != nil {
			t.Fatalf("re-encoding decoded graph: %v", err)
		}
		if !bytes.Equal(first, second) {
			t.Fatalf("round trip is not stable:\nfirst:\n%s\nsecond:\n%s", first, second)
		}
		// The encoding/json path a service request takes must agree.
		g3 := new(Graph)
		if err := json.Unmarshal(data, g3); err != nil {
			t.Fatalf("UnmarshalJSON accepted input that json.Unmarshal rejects: %v", err)
		}
		if g3.NumCells() != g.NumCells() || g3.NumEdges() != g.NumEdges() {
			t.Fatalf("json.Unmarshal decoded %d cells/%d edges, UnmarshalJSON %d/%d",
				g3.NumCells(), g3.NumEdges(), g.NumCells(), g.NumEdges())
		}
		// Every decoded cell and edge equals the record it came from.
		var in graphJSON
		if err := json.Unmarshal(data, &in); err != nil {
			t.Fatalf("accepted input does not decode as records: %v", err)
		}
		if len(in.Cells) != g.NumCells() || len(in.Edges) != g.NumEdges() {
			t.Fatalf("records: %d cells/%d edges, graph %d/%d",
				len(in.Cells), len(in.Edges), g.NumCells(), g.NumEdges())
		}
		for i, rec := range in.Cells {
			c := g.Cell(CellID(i))
			if c.ID != rec.ID || math.Float64bits(c.Pos.X) != math.Float64bits(rec.X) ||
				math.Float64bits(c.Pos.Y) != math.Float64bits(rec.Y) || c.Row != rec.Row || c.Col != rec.Col {
				t.Fatalf("cell %d = %+v, record %+v", i, c, rec)
			}
		}
		for i, rec := range in.Edges {
			if e := g.Edge(i); e.From != rec.From || e.To != rec.To || e.Label != rec.Label {
				t.Fatalf("edge %d = %+v, record %+v", i, e, rec)
			}
		}
	})
}
