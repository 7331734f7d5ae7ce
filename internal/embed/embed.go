// Package embed provides grid-folding embeddings in support of Theorem 2,
// which extends H-tree clocking from square layouts to any layout of
// bounded aspect ratio by citing the Aleliunas–Rosenberg result [1] that
// a rectangular grid embeds in a square grid with constant area and edge
// stretch.
//
// This package implements the *interleaved fold*: an n1×n2 grid maps to a
// 2·n1 × ⌈n2/2⌉ grid with no area growth and dilation exactly 2 —
// vertical neighbors land two rows apart, and neighbors across the fold
// land within distance 2. Iterating the fold halves the aspect ratio each
// time at the cost of doubling the vertical dilation, so FoldToSquare
// reaches aspect ratio ≤ 2 with dilation O(√(n2/n1)) and constant area.
//
// That is weaker than the full Aleliunas–Rosenberg theorem (constant
// dilation independent of the aspect ratio), whose construction is
// substantially more intricate; DESIGN.md records the substitution. For
// this repository's purposes the fold is sufficient: the generalized
// kd-split H-tree (clocktree.HTree + Equalize) already clocks arbitrary
// bounded-aspect layouts directly, so Theorem 2's conclusion is exercised
// end to end without needing the embedding on the critical path.
package embed

import (
	"fmt"
)

// Embedding maps the vertices of an n1×n2 source grid into a target grid.
type Embedding struct {
	SrcRows, SrcCols int
	DstRows, DstCols int
	// Pos[r*SrcCols+c] is the target (row, col) of source vertex (r, c).
	Pos [][2]int
}

// Identity returns the trivial embedding of a grid into itself.
func Identity(rows, cols int) (*Embedding, error) {
	if rows < 1 || cols < 1 {
		return nil, fmt.Errorf("embed: need positive dims, got %d×%d", rows, cols)
	}
	e := &Embedding{SrcRows: rows, SrcCols: cols, DstRows: rows, DstCols: cols,
		Pos: make([][2]int, rows*cols)}
	for r := 0; r < rows; r++ {
		for c := 0; c < cols; c++ {
			e.Pos[r*cols+c] = [2]int{r, c}
		}
	}
	return e, nil
}

// Fold applies one interleaved fold to an embedding whose target is
// r×c, producing a target of 2r×⌈c/2⌉: target column j < ⌈c/2⌉ keeps the
// left half on even rows and receives the reversed right half on odd
// rows. Each fold multiplies vertical dilation by 2 and leaves horizontal
// dilation at 1 (plus 1 at the crease).
func Fold(e *Embedding) (*Embedding, error) {
	if e.DstCols < 2 {
		return nil, fmt.Errorf("embed: cannot fold a %d-column target", e.DstCols)
	}
	half := (e.DstCols + 1) / 2
	out := &Embedding{
		SrcRows: e.SrcRows, SrcCols: e.SrcCols,
		DstRows: 2 * e.DstRows, DstCols: half,
		Pos: make([][2]int, len(e.Pos)),
	}
	for i, p := range e.Pos {
		r, c := p[0], p[1]
		if c < half {
			out.Pos[i] = [2]int{2 * r, c}
		} else {
			out.Pos[i] = [2]int{2*r + 1, e.DstCols - 1 - c}
		}
	}
	return out, nil
}

// FoldToSquare folds an n1×n2 grid (n1 ≤ n2) until the target's aspect
// ratio is at most 2.
func FoldToSquare(rows, cols int) (*Embedding, error) {
	if rows > cols {
		return nil, fmt.Errorf("embed: need rows ≤ cols, got %d×%d", rows, cols)
	}
	e, err := Identity(rows, cols)
	if err != nil {
		return nil, err
	}
	for e.DstCols > 2*e.DstRows && e.DstCols >= 2 {
		e, err = Fold(e)
		if err != nil {
			return nil, err
		}
	}
	return e, nil
}

// Metrics reports the quality of an embedding.
type Metrics struct {
	// Dilation is the largest target Manhattan distance between images
	// of adjacent source vertices.
	Dilation int
	// AreaFactor is target area divided by source area.
	AreaFactor float64
	// AspectRatio is the target grid's max(r,c)/min(r,c).
	AspectRatio float64
}

// Measure validates injectivity and computes the embedding's metrics. It
// returns an error if two source vertices share a target position or a
// position falls outside the target grid.
func Measure(e *Embedding) (Metrics, error) {
	seen := make(map[[2]int]int, len(e.Pos))
	for i, p := range e.Pos {
		if p[0] < 0 || p[0] >= e.DstRows || p[1] < 0 || p[1] >= e.DstCols {
			return Metrics{}, fmt.Errorf("embed: vertex %d maps outside target: %v", i, p)
		}
		if j, dup := seen[p]; dup {
			return Metrics{}, fmt.Errorf("embed: vertices %d and %d collide at %v", j, i, p)
		}
		seen[p] = i
	}
	var m Metrics
	dist := func(a, b [2]int) int {
		dr, dc := a[0]-b[0], a[1]-b[1]
		if dr < 0 {
			dr = -dr
		}
		if dc < 0 {
			dc = -dc
		}
		return dr + dc
	}
	for r := 0; r < e.SrcRows; r++ {
		for c := 0; c < e.SrcCols; c++ {
			i := r*e.SrcCols + c
			if c+1 < e.SrcCols {
				if d := dist(e.Pos[i], e.Pos[i+1]); d > m.Dilation {
					m.Dilation = d
				}
			}
			if r+1 < e.SrcRows {
				if d := dist(e.Pos[i], e.Pos[i+e.SrcCols]); d > m.Dilation {
					m.Dilation = d
				}
			}
		}
	}
	src := float64(e.SrcRows * e.SrcCols)
	dst := float64(e.DstRows * e.DstCols)
	m.AreaFactor = dst / src
	lo, hi := float64(e.DstRows), float64(e.DstCols)
	if lo > hi {
		lo, hi = hi, lo
	}
	m.AspectRatio = hi / lo
	return m, nil
}
