package comm

import (
	"encoding/json"
	"fmt"

	"repro/internal/geom"
)

// graphJSON is the interchange representation of a Graph.
type graphJSON struct {
	Kind  Kind       `json:"kind"`
	Name  string     `json:"name"`
	Rows  int        `json:"rows,omitempty"`
	Cols  int        `json:"cols,omitempty"`
	Cells []cellJSON `json:"cells"`
	Edges []edgeJSON `json:"edges"`
}

type cellJSON struct {
	ID  CellID  `json:"id"`
	X   float64 `json:"x"`
	Y   float64 `json:"y"`
	Row int     `json:"row,omitempty"`
	Col int     `json:"col,omitempty"`
}

type edgeJSON struct {
	From  CellID `json:"from"` // -1 encodes the host
	To    CellID `json:"to"`
	Label string `json:"label,omitempty"`
}

// toJSON converts g to the interchange representation.
func (g *Graph) toJSON() graphJSON {
	out := graphJSON{
		Kind: g.kind, Name: g.Name, Rows: g.rows, Cols: g.cols,
		Cells: make([]cellJSON, len(g.pos)),
		Edges: make([]edgeJSON, len(g.edges)),
	}
	for i, p := range g.pos {
		out.Cells[i] = cellJSON{ID: CellID(i), X: p.X, Y: p.Y, Row: g.row[i], Col: g.col[i]}
	}
	for i, e := range g.edges {
		out.Edges[i] = edgeJSON{From: CellID(e.from), To: CellID(e.to), Label: g.labels[e.label]}
	}
	return out
}

// fromJSON rebuilds and validates a graph from the interchange
// representation.
func fromJSON(in graphJSON) (*Graph, error) {
	cells := make([]Cell, len(in.Cells))
	for i, c := range in.Cells {
		if int(c.ID) != i {
			return nil, fmt.Errorf("comm: cell %d has ID %d; IDs must be dense and ordered", i, c.ID)
		}
		cells[i] = Cell{ID: c.ID, Pos: geom.Pt(c.X, c.Y), Row: c.Row, Col: c.Col}
	}
	edges := make([]Edge, len(in.Edges))
	for i, e := range in.Edges {
		edges[i] = Edge{From: e.From, To: e.To, Label: e.Label}
	}
	g, err := New(in.Kind, in.Name, in.Rows, in.Cols, cells, edges)
	if err != nil {
		return nil, fmt.Errorf("comm: decoded graph invalid: %w", err)
	}
	return g, nil
}

// MarshalJSON encodes the graph in its interchange format, so a *Graph
// embeds directly in larger JSON payloads (service requests). The format
// is stable: kind, name, grid dims, cells with positions, and directed
// edges with -1 as the host sentinel.
func (g *Graph) MarshalJSON() ([]byte, error) {
	return json.Marshal(g.toJSON())
}

// UnmarshalJSON decodes and validates a graph in the interchange format.
// A graph that fails New's checks is rejected, so no malformed graph
// ever enters the analysis engines; trailing data after the JSON value
// is an error.
func (g *Graph) UnmarshalJSON(data []byte) error {
	var in graphJSON
	if err := json.Unmarshal(data, &in); err != nil {
		return fmt.Errorf("comm: decoding graph: %w", err)
	}
	dec, err := fromJSON(in)
	if err != nil {
		return err
	}
	*g = *dec
	return nil
}
