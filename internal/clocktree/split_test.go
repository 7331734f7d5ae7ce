package clocktree

import (
	"math"
	"sort"
	"testing"

	"repro/internal/comm"
	"repro/internal/geom"
	"repro/internal/stats"
)

// splitCellsRef is the pre-quickselect reference implementation of
// splitCells (full copy + sort), kept verbatim for the differential test
// below: selection must produce the same halves as sorting did.
func splitCellsRef(cells []comm.Cell) (lo, hi []comm.Cell) {
	r := geom.EmptyRect()
	for _, c := range cells {
		r = r.Union(geom.Rect{Min: c.Pos, Max: c.Pos})
	}
	byX := r.Width() >= r.Height()
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

func cellSet(cells []comm.Cell) map[geom.Point]comm.CellID {
	s := make(map[geom.Point]comm.CellID, len(cells))
	for _, c := range cells {
		s[c.Pos] = c.ID
	}
	return s
}

func sameCellSet(a, b []comm.Cell) bool {
	if len(a) != len(b) {
		return false
	}
	sa, sb := cellSet(a), cellSet(b)
	for p, id := range sa {
		if sb[p] != id {
			return false
		}
	}
	return true
}

// TestSplitCellsMatchesSortReference checks the quickselect split
// produces the same half-sets as the old full-sort implementation, on
// grid layouts, columns with shared coordinates, and random point sets.
// Set equality is the exact property H-tree construction depends on: the
// halves are only ever consumed as sets (bounding boxes, further splits).
func TestSplitCellsMatchesSortReference(t *testing.T) {
	rng := stats.NewRNG(7)
	var inputs [][]comm.Cell
	// Grid layouts of assorted shapes, including degenerate 1×n strips.
	for _, dims := range [][2]int{{1, 2}, {2, 2}, {1, 9}, {3, 4}, {7, 7}, {16, 3}, {5, 32}} {
		var cells []comm.Cell
		id := comm.CellID(0)
		for r := 0; r < dims[0]; r++ {
			for c := 0; c < dims[1]; c++ {
				cells = append(cells, comm.Cell{ID: id, Pos: geom.Pt(float64(c), float64(r))})
				id++
			}
		}
		inputs = append(inputs, cells)
	}
	// Random distinct points (grid-snapped so ties in one axis are common).
	for trial := 0; trial < 50; trial++ {
		n := 2 + rng.Intn(200)
		seen := map[geom.Point]bool{}
		var cells []comm.Cell
		for len(cells) < n {
			p := geom.Pt(float64(rng.Intn(20)), float64(rng.Intn(20)))
			if seen[p] {
				continue
			}
			seen[p] = true
			cells = append(cells, comm.Cell{ID: comm.CellID(len(cells)), Pos: p})
		}
		inputs = append(inputs, cells)
	}
	for i, cells := range inputs {
		wantLo, wantHi := splitCellsRef(cells)
		work := append([]comm.Cell(nil), cells...)
		gotLo, gotHi := splitCells(work, cellBox(work))
		if !sameCellSet(gotLo, wantLo) || !sameCellSet(gotHi, wantHi) {
			t.Fatalf("input %d (n=%d): quickselect halves differ from sort reference", i, len(cells))
		}
	}
}

// TestSelectCellsBudgetFallback drives selectCells into its sort
// fallback with a pathological input and checks correctness holds.
func TestSelectCellsBudgetFallback(t *testing.T) {
	// Many collinear points: every pivot partition is maximally lopsided
	// along one axis order only after ties, stressing the budget path.
	var cells []comm.Cell
	n := 1 << 12
	for i := 0; i < n; i++ {
		cells = append(cells, comm.Cell{ID: comm.CellID(i), Pos: geom.Pt(float64(i%3), float64(i))})
	}
	want, _ := splitCellsRef(cells)
	got, _ := splitCells(cells, cellBox(cells))
	if !sameCellSet(got, want) {
		t.Fatal("fallback path produced wrong halves")
	}
	if math.Abs(float64(len(got)-n/2)) > 0 {
		t.Fatalf("lo half has %d cells, want %d", len(got), n/2)
	}
}
