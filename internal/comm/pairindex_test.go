package comm

import (
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
)

// pairIndexGraphs is the constructor matrix shared by the PairIndex
// equivalence tests: every topology family, including ones with host
// edges, duplicate parallel channels, and wrap-around (b < a) edges, the
// folded and comb re-layouts, and every graph in the JSON fuzz corpus
// that decodes.
func pairIndexGraphs(t *testing.T) []*Graph {
	t.Helper()
	line, err := Linear(9)
	if err != nil {
		t.Fatal(err)
	}
	var out []*Graph
	for _, build := range []func() (*Graph, error){
		func() (*Graph, error) { return Linear(1) },
		func() (*Graph, error) { return Linear(7) },
		func() (*Graph, error) { return Bidirectional(5) },
		func() (*Graph, error) { return LinearDual(4) },
		func() (*Graph, error) { return Ring(6) },
		func() (*Graph, error) { return Mesh(4, 5) },
		func() (*Graph, error) { return MeshWithBoundaryIO(3, 4) },
		func() (*Graph, error) { return Hex(3) },
		func() (*Graph, error) { return HexWithBandIO(3) },
		func() (*Graph, error) { return Torus(3, 4) },
		func() (*Graph, error) { return CompleteBinaryTree(4) },
		func() (*Graph, error) { return FoldLinear(line) },
		func() (*Graph, error) { return CombLinear(line, 2) },
	} {
		g, err := build()
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, g)
	}
	return append(out, decodedCorpus(t)...)
}

// decodedCorpus decodes each FuzzGraphJSONRoundTrip corpus entry that is
// a valid graph.
func decodedCorpus(t *testing.T) []*Graph {
	t.Helper()
	files, err := filepath.Glob(filepath.Join("testdata", "fuzz", "FuzzGraphJSONRoundTrip", "*"))
	if err != nil || len(files) == 0 {
		t.Fatalf("no JSON fuzz corpus: %v", err)
	}
	var out []*Graph
	for _, f := range files {
		raw, err := os.ReadFile(f)
		if err != nil {
			t.Fatal(err)
		}
		// Corpus files hold a version line and one []byte("...") value.
		lines := strings.SplitN(string(raw), "\n", 2)
		quoted := strings.TrimSuffix(strings.TrimPrefix(strings.TrimSpace(lines[1]), "[]byte("), ")")
		data, err := strconv.Unquote(quoted)
		if err != nil {
			t.Fatalf("%s: %v", f, err)
		}
		if g, err := decodeGraph(data); err == nil {
			out = append(out, g)
		}
	}
	return out
}

// TestPairIndexMatchesCommunicatingPairs checks the CSR index against
// the map-and-sort reference enumeration: the same pairs in the same
// order on every topology.
func TestPairIndexMatchesCommunicatingPairs(t *testing.T) {
	for _, g := range pairIndexGraphs(t) {
		pairs := referencePairs(g)
		ix := g.PairIndex()
		if got, want := ix.NumPairs(), int64(len(pairs)); got != want {
			t.Fatalf("%s: NumPairs = %d, want %d", g.Name, got, want)
		}
		if got, want := ix.NumCells(), g.NumCells(); got != want {
			t.Fatalf("%s: NumCells = %d, want %d", g.Name, got, want)
		}
		c := ix.Cursor(0)
		for i, want := range pairs {
			if got, wantIdx := c.Index(), int64(i); got != wantIdx {
				t.Fatalf("%s: cursor Index = %d before pair %d", g.Name, got, i)
			}
			a, b, ok := c.Next()
			if !ok {
				t.Fatalf("%s: cursor exhausted at pair %d of %d", g.Name, i, len(pairs))
			}
			if a != want[0] || b != want[1] {
				t.Fatalf("%s: pair %d = (%d,%d), want (%d,%d)", g.Name, i, a, b, want[0], want[1])
			}
			if pa, pb := ix.Pair(int64(i)); pa != want[0] || pb != want[1] {
				t.Fatalf("%s: Pair(%d) = (%d,%d), want (%d,%d)", g.Name, i, pa, pb, want[0], want[1])
			}
		}
		if _, _, ok := c.Next(); ok {
			t.Fatalf("%s: cursor yields pairs past NumPairs", g.Name)
		}
	}
}

// TestPairIndexShardedCursor walks the index in shards of several sizes,
// including ones that straddle row boundaries, and checks the
// concatenation reproduces the canonical order exactly.
func TestPairIndexShardedCursor(t *testing.T) {
	for _, g := range pairIndexGraphs(t) {
		pairs := referencePairs(g)
		ix := g.PairIndex()
		for _, shard := range []int64{1, 2, 3, 7, 13, ix.NumPairs() + 1} {
			if shard <= 0 {
				continue
			}
			var got [][2]CellID
			for lo := int64(0); lo < ix.NumPairs(); lo += shard {
				hi := lo + shard
				if hi > ix.NumPairs() {
					hi = ix.NumPairs()
				}
				c := ix.Cursor(lo)
				for c.Index() < hi {
					a, b, ok := c.Next()
					if !ok {
						t.Fatalf("%s shard=%d: cursor exhausted at %d before hi=%d", g.Name, shard, c.Index(), hi)
					}
					got = append(got, [2]CellID{a, b})
				}
			}
			if len(got) != len(pairs) {
				t.Fatalf("%s shard=%d: %d pairs, want %d", g.Name, shard, len(got), len(pairs))
			}
			for i := range got {
				if got[i] != pairs[i] {
					t.Fatalf("%s shard=%d: pair %d = %v, want %v", g.Name, shard, i, got[i], pairs[i])
				}
			}
		}
		// A cursor at the end yields nothing.
		c := ix.Cursor(ix.NumPairs())
		if _, _, ok := c.Next(); ok {
			t.Fatalf("%s: Cursor(NumPairs) yields a pair", g.Name)
		}
	}
}

func TestPairIndexEmptyAndUncached(t *testing.T) {
	g, err := Linear(1) // one cell: host edges only, zero pairs
	if err != nil {
		t.Fatal(err)
	}
	ix := g.PairIndex()
	if ix.NumPairs() != 0 {
		t.Fatalf("Linear(1) NumPairs = %d, want 0", ix.NumPairs())
	}
	c := ix.Cursor(0)
	if _, _, ok := c.Next(); ok {
		t.Fatal("empty index cursor yields a pair")
	}

	// The zero Graph has no lazy state: each call builds a fresh empty
	// index rather than panicking.
	var zero Graph
	ix1, ix2 := zero.PairIndex(), zero.PairIndex()
	if ix1 == ix2 {
		t.Fatal("zero Graph unexpectedly memoized its PairIndex")
	}
	if ix1.NumPairs() != 0 || ix1.NumCells() != 0 {
		t.Fatalf("zero Graph index has %d pairs over %d cells, want none", ix1.NumPairs(), ix1.NumCells())
	}
}

// TestPairIndexMemoizedAndFrozen checks the index is built once and that
// the graph it indexes cannot change under it: Edge and Cell hand out
// copies, so editing them leaves the graph and its index as they were.
func TestPairIndexMemoizedAndFrozen(t *testing.T) {
	g, err := Mesh(3, 3)
	if err != nil {
		t.Fatal(err)
	}
	ix := g.PairIndex()
	if ix != g.PairIndex() {
		t.Fatal("PairIndex not memoized for constructor-built graph")
	}
	want := referencePairs(g)
	e := g.Edge(0)
	e.From, e.To = 0, 8
	c := g.Cell(0)
	c.Pos.X = 42
	if got := g.Edge(0); got == e {
		t.Fatal("editing a copy from Edge changed the graph")
	}
	if g.Cell(0).Pos.X == 42 {
		t.Fatal("editing a copy from Cell changed the graph")
	}
	got := indexPairs(g.PairIndex())
	if len(got) != len(want) {
		t.Fatalf("index changed: %d pairs, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("index changed at pair %d: %v, want %v", i, got[i], want[i])
		}
	}
}
