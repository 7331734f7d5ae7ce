package comm

import (
	"fmt"

	"repro/internal/geom"
)

// FoldLinear returns a copy of a linear (or bidirectional) array with its
// cells repositioned in the folded layout of Fig. 5: the array is bent in
// the middle so that both ends sit next to the host. Cell i keeps its
// topological position in the chain; successive cells remain at distance
// ≤ √2, and cells 0 and n−1 end up one pitch apart.
func FoldLinear(g *Graph) (*Graph, error) {
	if g.kind != KindLinear {
		return nil, fmt.Errorf("comm: FoldLinear needs a linear array, got %q", g.kind)
	}
	n := len(g.cells)
	half := (n + 1) / 2
	cells := make([]Cell, n)
	for i := range cells {
		if i < half {
			cells[i] = Cell{ID: CellID(i), Pos: geom.Pt(float64(i), 0), Row: 0, Col: i}
		} else {
			cells[i] = Cell{ID: CellID(i), Pos: geom.Pt(float64(n-1-i), 1), Row: 1, Col: n - 1 - i}
		}
	}
	// The edges are shared with g rather than copied: both graphs are
	// immutable.
	return newGraph(g.kind, "folded-"+g.Name, 2, half, cells, g.edges)
}

// CombLinear returns a copy of a linear array with its cells repositioned
// in the comb layout of Fig. 6: the chain runs up and down vertical teeth
// of the given height, letting a one-dimensional array fill a layout of
// any desired aspect ratio. Successive cells remain at distance ≤ 2.
func CombLinear(g *Graph, toothHeight int) (*Graph, error) {
	if g.kind != KindLinear {
		return nil, fmt.Errorf("comm: CombLinear needs a linear array, got %q", g.kind)
	}
	if toothHeight < 1 {
		return nil, fmt.Errorf("comm: CombLinear toothHeight must be ≥ 1, got %d", toothHeight)
	}
	cells := make([]Cell, len(g.cells))
	for i := range cells {
		tooth := i / toothHeight
		within := i % toothHeight
		y := within
		if tooth%2 == 1 {
			y = toothHeight - 1 - within
		}
		// Teeth are two pitches apart so the comb's gaps are visible in
		// the layout (and wires between teeth have length 2).
		cells[i] = Cell{ID: CellID(i), Pos: geom.Pt(float64(2*tooth), float64(y)), Row: y, Col: 2 * tooth}
	}
	cols := (len(g.cells)+toothHeight-1)/toothHeight*2 - 1
	return newGraph(g.kind, fmt.Sprintf("comb%d-%s", toothHeight, g.Name), toothHeight, cols, cells, g.edges)
}
