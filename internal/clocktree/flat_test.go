package clocktree

import (
	"encoding/binary"
	"hash/fnv"
	"math"
	"runtime"
	"testing"

	"repro/internal/comm"
	"repro/internal/stats"
)

// fingerprint hashes (FNV-64a) the bits of every node's position, edge
// length, root distance, parent and buffer flag, in node order.
func fingerprint(tr *Tree) uint64 {
	h := fnv.New64a()
	var b [8]byte
	put := func(u uint64) {
		binary.LittleEndian.PutUint64(b[:], u)
		h.Write(b[:])
	}
	for v := 0; v < tr.NumNodes(); v++ {
		id := NodeID(v)
		n := tr.Node(id)
		put(math.Float64bits(n.Pos.X))
		put(math.Float64bits(n.Pos.Y))
		put(math.Float64bits(tr.EdgeLen(id)))
		put(math.Float64bits(tr.RootDist(id)))
		put(uint64(int64(tr.Parent(id))))
		if n.Buffer {
			h.Write([]byte{1})
		} else {
			h.Write([]byte{0})
		}
	}
	return h.Sum64()
}

// TestBufferedFingerprints pins zero-slack buffered trees bit for bit to
// the fingerprints the pointer-and-stored-wire tree produced before the
// flat representation replaced it.
func TestBufferedFingerprints(t *testing.T) {
	for _, tc := range []struct {
		name    string
		build   func(*comm.Graph) (*Tree, error)
		side    int
		spacing float64
		nodes   int
		want    uint64
	}{
		{"htree16", HTree, 16, 0.75, 685, 0xb89c0397d7990078},
		{"spine8", Spine, 8, 0.5, 225, 0x1016c9d267e64247},
	} {
		tr, err := tc.build(mustMesh(t, tc.side, tc.side))
		if err != nil {
			t.Fatal(err)
		}
		buf, err := Buffered(tr, tc.spacing)
		if err != nil {
			t.Fatal(err)
		}
		if got := fingerprint(buf); buf.NumNodes() != tc.nodes || got != tc.want {
			t.Errorf("%s: %d nodes, fingerprint %#x; want %d nodes, %#x", tc.name, buf.NumNodes(), got, tc.nodes, tc.want)
		}
	}
}

// retainedBytes returns the heap growth, after GC, of keeping build's
// result alive. Callers keep build's inputs alive past the call.
func retainedBytes(build func() *Tree) (int64, *Tree) {
	var before, after runtime.MemStats
	runtime.GC()
	runtime.GC()
	runtime.ReadMemStats(&before)
	tr := build()
	runtime.GC()
	runtime.GC()
	runtime.ReadMemStats(&after)
	return int64(after.HeapAlloc) - int64(before.HeapAlloc), tr
}

func TestRetainedBytesPerNode(t *testing.T) {
	g := mustMesh(t, 128, 128)
	by, tr := retainedBytes(func() *Tree {
		tr, err := HTree(g)
		if err != nil {
			t.Fatal(err)
		}
		return tr
	})
	perNode := float64(by) / float64(tr.NumNodes())
	buffered, bt := retainedBytes(func() *Tree {
		bt, err := Buffered(tr, 0.5)
		if err != nil {
			t.Fatal(err)
		}
		return bt
	})
	bufferedPerNode := float64(buffered) / float64(bt.NumNodes())
	t.Logf("128² H-tree: %.1f B/node over %d nodes; buffered at 0.5: %.1f B/node over %d nodes",
		perNode, tr.NumNodes(), bufferedPerNode, bt.NumNodes())
	// The node arrays hold 49 B/node (position 16, edge length and root
	// distance 8 each, cell, parent, subtree end and jump pointer 4 each,
	// buffer flag 1) and the cell index about 2 more; both trees measure
	// about 51. The ceiling of 56 leaves 10% for allocator size classes.
	for _, m := range []struct {
		name    string
		perNode float64
	}{{"unbuffered", perNode}, {"buffered", bufferedPerNode}} {
		if m.perNode > 56 {
			t.Errorf("%s 128² H-tree retains %.1f B/node, want ≤ 56", m.name, m.perNode)
		}
	}
	runtime.KeepAlive(g)
	runtime.KeepAlive(tr)
	runtime.KeepAlive(bt)
}

func TestFootprintBytesMatchesHeap(t *testing.T) {
	tr, err := HTree(mustMesh(t, 64, 64))
	if err != nil {
		t.Fatal(err)
	}
	heap, bt := retainedBytes(func() *Tree {
		bt, err := Buffered(tr, 0.5)
		if err != nil {
			t.Fatal(err)
		}
		return bt
	})
	fp := bt.FootprintBytes()
	if rel := math.Abs(float64(fp-heap)) / float64(heap); rel > 0.15 {
		t.Errorf("FootprintBytes = %d, heap growth %d: off by %.1f%%, want ≤ 15%%", fp, heap, 100*rel)
	}
	runtime.KeepAlive(tr)
	runtime.KeepAlive(bt)
}

// TestEqualizeDeterministic: the returned slack total is summed in cell
// ID order, so it is the same bits on every run.
func TestEqualizeDeterministic(t *testing.T) {
	g, err := comm.Hex(14)
	if err != nil {
		t.Fatal(err)
	}
	var first uint64
	for run := 0; run < 200; run++ {
		tr, err := RandomBinary(g, stats.NewRNG(7))
		if err != nil {
			t.Fatal(err)
		}
		added, err := tr.Equalize()
		if err != nil {
			t.Fatal(err)
		}
		if bits := math.Float64bits(added); run == 0 {
			first = bits
		} else if bits != first {
			t.Fatalf("run %d: Equalize returned %v, first run %v", run, added, math.Float64frombits(first))
		}
	}
}

// TestEqualizeRejectsInternalCells: slack on a chain's internal edges
// cannot even out its root distances, so Equalize refuses and leaves the
// tree as it was.
func TestEqualizeRejectsInternalCells(t *testing.T) {
	tr, err := Spine(mustMesh(t, 6, 6))
	if err != nil {
		t.Fatal(err)
	}
	wire := tr.TotalWireLength()
	if _, err := tr.Equalize(); err == nil {
		t.Fatal("Equalize accepted a spine")
	}
	if got := tr.TotalWireLength(); got != wire {
		t.Errorf("rejected Equalize changed total wire %g → %g", wire, got)
	}
}

// TestBufferedKeepsEqualizeSlack: buffering an equalized tree counts each
// edge's segments on its electrical length, so every cell keeps its root
// distance and the segments stay within the spacing.
func TestBufferedKeepsEqualizeSlack(t *testing.T) {
	g, err := comm.Hex(5)
	if err != nil {
		t.Fatal(err)
	}
	tr, err := HTree(g)
	if err != nil {
		t.Fatal(err)
	}
	added, err := tr.Equalize()
	if err != nil {
		t.Fatal(err)
	}
	if added == 0 {
		t.Fatal("hex H-tree needed no slack; the test needs a tree that does")
	}
	buf, err := Buffered(tr, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	for id := comm.CellID(0); int(id) < g.NumCells(); id++ {
		c := g.Cell(id)
		if d1, d2 := tr.CellRootDist(c.ID), buf.CellRootDist(c.ID); math.Abs(d1-d2) > 1e-9 {
			t.Errorf("cell %d root distance %g → %g", c.ID, d1, d2)
		}
	}
	if seg := maxSegmentLength(buf); seg > 0.5+1e-9 {
		t.Errorf("max segment %g exceeds spacing 0.5", seg)
	}
	if got, want := buf.TotalWireLength(), tr.TotalWireLength(); math.Abs(got-want) > 1e-9 {
		t.Errorf("total wire %g → %g", want, got)
	}
}
