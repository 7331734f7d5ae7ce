package comm

// Native fuzz target for shard-boundary pair enumeration: the streamed
// analysis path splits the canonical pair order into fixed-size shards
// and walks each with a PairIndex cursor, so an off-by-one at any shard
// boundary (a row edge, an empty row run, the final partial shard)
// would silently corrupt exact-max results. The fuzzer builds arbitrary
// small graphs — host edges, duplicate and reversed edges included — and
// checks that sharded cursor walks reproduce the reference enumeration
// exactly for an arbitrary shard size. Seed corpus
// lives in testdata/fuzz/; CI runs the target briefly as a smoke test.

import (
	"testing"

	"repro/internal/geom"
)

// fuzzGraph decodes a byte string into a small graph: the first byte
// picks the cell count, each following byte pair is one directed edge
// whose endpoints may also be the host pseudo-cell.
func fuzzGraph(t *testing.T, data []byte) *Graph {
	n := 1 + int(data[0]%16)
	var cells []Cell
	for i := 0; i < n; i++ {
		cells = append(cells, Cell{ID: CellID(i), Pos: geom.Pt(float64(i), 0), Col: i})
	}
	var edges []Edge
	rest := data[1:]
	for i := 0; i+1 < len(rest); i += 2 {
		// Map bytes into [-1, n): -1 is Host. Equal endpoints are
		// dropped, since graphs reject self-loops.
		from := CellID(int(rest[i])%(n+1)) - 1
		to := CellID(int(rest[i+1])%(n+1)) - 1
		if from != to {
			edges = append(edges, Edge{From: from, To: to, Label: "f"})
		}
	}
	g, err := New(KindMesh, "fuzz", 0, 0, cells, edges)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func FuzzPairIndexShards(f *testing.F) {
	// Seeds: a mesh-like lattice, wrap-around (b < a) edges, duplicates,
	// host edges, self-loops, an empty edge set, and a dense clique.
	f.Add([]byte{4, 1, 2, 2, 3, 3, 4, 2, 1}, uint16(2))
	f.Add([]byte{8, 8, 1, 1, 8, 5, 5, 0, 3, 3, 0}, uint16(1))
	f.Add([]byte{15}, uint16(7))
	f.Add([]byte{3, 1, 2, 1, 2, 1, 2, 2, 1, 0, 1, 0, 2}, uint16(3))
	f.Add([]byte{6, 1, 1, 2, 2, 3, 3, 4, 4, 5, 5, 6, 6}, uint16(5))

	f.Fuzz(func(t *testing.T, data []byte, shardSize uint16) {
		if len(data) == 0 {
			return
		}
		g := fuzzGraph(t, data)
		pairs := referencePairs(g)
		ix := g.PairIndex()
		if ix.NumPairs() != int64(len(pairs)) {
			t.Fatalf("NumPairs = %d, the reference has %d", ix.NumPairs(), len(pairs))
		}
		shard := int64(shardSize%64) + 1
		var idx int64
		for lo := int64(0); lo < ix.NumPairs(); lo += shard {
			hi := lo + shard
			if hi > ix.NumPairs() {
				hi = ix.NumPairs()
			}
			c := ix.Cursor(lo)
			for c.Index() < hi {
				a, b, ok := c.Next()
				if !ok {
					t.Fatalf("cursor exhausted at %d, shard [%d,%d)", c.Index(), lo, hi)
				}
				want := pairs[idx]
				if a != want[0] || b != want[1] {
					t.Fatalf("pair %d = (%d,%d), want (%d,%d); shard [%d,%d)", idx, a, b, want[0], want[1], lo, hi)
				}
				if pa, pb := ix.Pair(idx); pa != a || pb != b {
					t.Fatalf("Pair(%d) = (%d,%d), cursor yielded (%d,%d)", idx, pa, pb, a, b)
				}
				idx++
			}
		}
		if idx != int64(len(pairs)) {
			t.Fatalf("sharded walk visited %d pairs, want %d", idx, len(pairs))
		}
	})
}
