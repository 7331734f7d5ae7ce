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
	n := len(g.pos)
	half := (n + 1) / 2
	return build(g.kind, "folded-"+g.Name, 2, half, n, 0, func(f *Graph) {
		// The edges are shared with g rather than copied: both graphs
		// are immutable.
		f.edges, f.labels = g.edges, g.labels
		for i := range f.pos {
			if i < half {
				f.pos[i], f.col[i] = geom.Pt(float64(i), 0), i
			} else {
				f.pos[i], f.row[i], f.col[i] = geom.Pt(float64(n-1-i), 1), 1, n-1-i
			}
		}
	})
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
	n := len(g.pos)
	cols := (n+toothHeight-1)/toothHeight*2 - 1
	return build(g.kind, fmt.Sprintf("comb%d-%s", toothHeight, g.Name), toothHeight, cols, n, 0, func(f *Graph) {
		f.edges, f.labels = g.edges, g.labels
		for i := range f.pos {
			tooth := i / toothHeight
			within := i % toothHeight
			y := within
			if tooth%2 == 1 {
				y = toothHeight - 1 - within
			}
			// Teeth are two pitches apart so the comb's gaps are visible in
			// the layout (and wires between teeth have length 2).
			f.pos[i], f.row[i], f.col[i] = geom.Pt(float64(2*tooth), float64(y)), y, 2*tooth
		}
	})
}
