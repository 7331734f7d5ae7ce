package comm

import (
	"fmt"
	"sort"
)

// PairIndex is a compressed-sparse-row view of a graph's communicating
// pairs: for each cell a, the ascending list of partners b > a such that
// {a, b} share at least one communication edge (host edges excluded).
// Enumerating rows in order visits each unordered pair once, a-major and
// b-ascending, at 4 bytes per pair plus 8 per cell. A cursor walks any
// contiguous range of that order, so the streamed analysis path can
// iterate shards without holding all pairs as values.
type PairIndex struct {
	rowStart []int64 // per-cell offsets into adj; len NumCells+1
	adj      []int32 // partner b of each pair (a, b); b ascending within a row
}

// NumPairs returns the total number of communicating pairs indexed.
func (ix *PairIndex) NumPairs() int64 { return int64(len(ix.adj)) }

// NumCells returns the number of cells (rows) the index was built over.
func (ix *PairIndex) NumCells() int { return len(ix.rowStart) - 1 }

// Pair returns the i-th pair in canonical order (a-major, b-ascending).
// It is O(log cells) — fine for spot checks and sampling, not for bulk
// iteration; use Cursor for that.
func (ix *PairIndex) Pair(i int64) (a, b CellID) {
	if i < 0 || i >= int64(len(ix.adj)) {
		panic(fmt.Sprintf("comm: pair index %d out of range [0,%d)", i, len(ix.adj)))
	}
	// Smallest row whose end offset exceeds i owns the pair.
	row := sort.Search(ix.NumCells(), func(r int) bool { return ix.rowStart[r+1] > i })
	return CellID(row), CellID(ix.adj[i])
}

// PairCursor iterates a contiguous range of the canonical pair order.
// The zero value is not useful; obtain cursors from PairIndex.Cursor.
type PairCursor struct {
	ix  *PairIndex
	i   int64
	row int
}

// Cursor returns a cursor positioned at pair index start (0 ≤ start ≤
// NumPairs). A cursor at NumPairs yields no pairs.
func (ix *PairIndex) Cursor(start int64) PairCursor {
	if start < 0 || start > int64(len(ix.adj)) {
		panic(fmt.Sprintf("comm: cursor start %d out of range [0,%d]", start, len(ix.adj)))
	}
	// Last row whose start offset is ≤ start; empty trailing rows are
	// skipped lazily by Next.
	row := sort.Search(len(ix.rowStart), func(r int) bool { return ix.rowStart[r] > start }) - 1
	return PairCursor{ix: ix, i: start, row: row}
}

// Index reports the canonical index of the pair the next Next call will
// return (equal to NumPairs once exhausted).
func (c *PairCursor) Index() int64 { return c.i }

// Next returns the next pair in canonical order, or ok=false when the
// index is exhausted. Callers iterating a shard [lo, hi) bound the loop
// themselves with Index() or a countdown.
func (c *PairCursor) Next() (a, b CellID, ok bool) {
	if c.i >= int64(len(c.ix.adj)) {
		return 0, 0, false
	}
	for c.i >= c.ix.rowStart[c.row+1] {
		c.row++
	}
	a, b = CellID(c.row), CellID(c.ix.adj[c.i])
	c.i++
	return a, b, true
}

// PairIndex returns the graph's CSR communicating-pair index: every
// unordered pair of distinct cells joined by at least one communication
// edge (host edges excluded), each pair once, a-major and b-ascending.
// These are exactly the pairs whose clock skew matters (A5), and the
// index is the one enumeration every analysis engine iterates. It is
// built on first use and shared; the graph is immutable, so it never
// goes stale.
func (g *Graph) PairIndex() *PairIndex {
	if g.lazy == nil {
		return buildPairIndex(0, nil) // the zero Graph: no cells, no pairs
	}
	g.lazy.pairsOnce.Do(func() { g.lazy.pairs = buildPairIndex(len(g.pos), g.edges) })
	return g.lazy.pairs
}

// buildPairIndex builds the CSR index over n cells in O(cells + edges)
// with neither a map nor a sort. Pass one buckets each edge's smaller
// endpoint a under its larger endpoint b. Pass two walks the buckets in
// ascending b, so each row a receives its partners already in ascending
// order, and a duplicate (a parallel or reversed edge) is always the
// entry just written to its row; a per-row stamp of the last b seen
// skips it, once while counting row sizes and once while filling.
func buildPairIndex(n int, edges []edge) *PairIndex {
	// byHigh is a counting-sort offset table: after the scatter, bucket b
	// is lows[byHigh[b]:byHigh[b+1]].
	byHigh := make([]int64, n+2)
	for _, e := range edges {
		if _, b, ok := pairOf(e); ok {
			byHigh[b+2]++
		}
	}
	for i := 2; i < len(byHigh); i++ {
		byHigh[i] += byHigh[i-1]
	}
	lows := make([]int32, byHigh[n+1])
	for _, e := range edges {
		if a, b, ok := pairOf(e); ok {
			lows[byHigh[b+1]] = a
			byHigh[b+1]++
		}
	}

	// rowStart uses the same offset trick: count row a's distinct
	// partners into rowStart[a+2], and fill through rowStart[a+1], which
	// leaves row a at adj[rowStart[a]:rowStart[a+1]].
	rowStart := make([]int64, n+2)
	last := make([]int32, n) // b+1 while counting, -(b+1) while filling
	for b := 0; b < n; b++ {
		for _, a := range lows[byHigh[b]:byHigh[b+1]] {
			if last[a] != int32(b+1) {
				last[a] = int32(b + 1)
				rowStart[a+2]++
			}
		}
	}
	for i := 2; i < len(rowStart); i++ {
		rowStart[i] += rowStart[i-1]
	}
	adj := make([]int32, rowStart[n+1])
	for b := 0; b < n; b++ {
		for _, a := range lows[byHigh[b]:byHigh[b+1]] {
			if last[a] != -int32(b+1) {
				last[a] = -int32(b + 1)
				adj[rowStart[a+1]] = int32(b)
				rowStart[a+1]++
			}
		}
	}
	return &PairIndex{rowStart: rowStart[:n+1], adj: adj}
}

// pairOf returns e's endpoints as a < b, or ok=false for host edges.
// Self-loops never reach here: validation rejects them.
func pairOf(e edge) (a, b int32, ok bool) {
	if e.from == int32(Host) || e.to == int32(Host) {
		return 0, 0, false
	}
	if e.from < e.to {
		return e.from, e.to, true
	}
	return e.to, e.from, true
}
