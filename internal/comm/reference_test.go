package comm

import "sort"

// referencePairs is the test oracle for PairIndex: the original
// map-and-sort enumeration of the communicating pairs — collect every
// non-host edge's endpoints as a < b in a set, then sort a-major,
// b-ascending. It shares no code with buildPairIndex.
func referencePairs(g *Graph) [][2]CellID {
	seen := make(map[[2]CellID]bool)
	for i := 0; i < g.NumEdges(); i++ {
		e := g.Edge(i)
		if e.From == Host || e.To == Host || e.From == e.To {
			continue
		}
		a, b := e.From, e.To
		if a > b {
			a, b = b, a
		}
		seen[[2]CellID{a, b}] = true
	}
	out := make([][2]CellID, 0, len(seen))
	for p := range seen {
		out = append(out, p)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i][0] != out[j][0] {
			return out[i][0] < out[j][0]
		}
		return out[i][1] < out[j][1]
	})
	return out
}

// indexPairs lists the pairs a PairIndex cursor yields from the start.
func indexPairs(ix *PairIndex) [][2]CellID {
	var out [][2]CellID
	c := ix.Cursor(0)
	for a, b, ok := c.Next(); ok; a, b, ok = c.Next() {
		out = append(out, [2]CellID{a, b})
	}
	return out
}

// cellsOf returns a fresh slice of g's cells, in ID order.
func cellsOf(g *Graph) []Cell {
	cells := make([]Cell, g.NumCells())
	for i := range cells {
		cells[i] = g.Cell(CellID(i))
	}
	return cells
}

// edgesOf returns a fresh slice of g's edges, in construction order.
func edgesOf(g *Graph) []Edge {
	edges := make([]Edge, g.NumEdges())
	for i := range edges {
		edges[i] = g.Edge(i)
	}
	return edges
}
