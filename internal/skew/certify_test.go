package skew

import (
	"fmt"
	"math"
	"testing"

	"repro/internal/clocktree"
	"repro/internal/comm"
	"repro/internal/stats"
)

// certifyTrees returns HTree, Serpentine and seeded RandomBinary trees
// over g, by name.
func certifyTrees(t testing.TB, g *comm.Graph) map[string]*clocktree.Tree {
	t.Helper()
	out := map[string]*clocktree.Tree{}
	for name, build := range map[string]func() (*clocktree.Tree, error){
		"htree":      func() (*clocktree.Tree, error) { return clocktree.HTree(g) },
		"serpentine": func() (*clocktree.Tree, error) { return clocktree.Serpentine(g) },
		"random4":    func() (*clocktree.Tree, error) { return clocktree.RandomBinary(g, stats.NewRNG(4)) },
	} {
		tr, err := build()
		if err != nil {
			t.Fatal(err)
		}
		out[name] = tr
	}
	return out
}

// TestMeshCertifiedLowerBoundPinned pins the certified bound, its
// separator child and side A's size bit for bit on square and
// rectangular meshes. The values were computed with the scan-per-step
// bisection and the parent-array separator that the sweeps replaced.
func TestMeshCertifiedLowerBoundPinned(t *testing.T) {
	want := map[string]string{
		"8x8/htree":        "0x3fde8ec8a3800000 sep=1 A=32 B=32",
		"8x8/serpentine":   "0x3fd976fc88000000 sep=22 A=42 B=22",
		"8x8/random4":      "0x3fde8ec8a3800000 sep=1 A=36 B=28",
		"13x9/htree":       "0x3fe45f306da00000 sep=116 A=59 B=58",
		"13x9/serpentine":  "0x3fe1d34a5fec0000 sep=39 A=78 B=39",
		"13x9/random4":     "0x3fe1d34a5fec0000 sep=1 A=68 B=49",
		"32x32/htree":      "0x3ffd48d59dc00000 sep=1 A=512 B=512",
		"32x32/serpentine": "0x3ff8310982400000 sep=342 A=682 B=342",
		"32x32/random4":    "0x3ffc02e296e00000 sep=936 A=556 B=468",
		"1x6/htree":        "0x0 sep=1 A=3 B=3",
		"1x6/serpentine":   "0x0 sep=2 A=4 B=2",
		"1x6/random4":      "0x0 sep=3 A=3 B=3",
	}
	for _, dims := range [][2]int{{8, 8}, {13, 9}, {32, 32}, {1, 6}} {
		g, err := comm.Mesh(dims[0], dims[1])
		if err != nil {
			t.Fatal(err)
		}
		for name, tr := range certifyTrees(t, g) {
			key := fmt.Sprintf("%dx%d/%s", dims[0], dims[1], name)
			cert, err := MeshCertifiedLowerBound(g, tr, 0.5)
			if err != nil {
				t.Fatal(err)
			}
			got := fmt.Sprintf("%#x sep=%d A=%d B=%d", math.Float64bits(cert.Bound), cert.SeparatorChild, cert.SideA, cert.SideB)
			if w, ok := want[key]; !ok || got != w {
				t.Errorf("%q: %q, want %q", key, got, w)
			}
		}
	}
}

// TestMeshCertifiedLowerBoundAllocs gates the certified bound's
// allocation count on a 128² H-tree: a few flat arrays, however many
// cells and bisection steps. It measures 3; the ceiling of 24 leaves
// room for a few more arrays but not for one per cell or per step.
func TestMeshCertifiedLowerBoundAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates")
	}
	g, tr := certifyBench(t, 128)
	allocs := testing.AllocsPerRun(3, func() {
		if _, err := MeshCertifiedLowerBound(g, tr, 0.5); err != nil {
			t.Fatal(err)
		}
	})
	t.Logf("MeshCertifiedLowerBound(128²): %.0f allocations", allocs)
	if allocs > 24 {
		t.Fatalf("MeshCertifiedLowerBound(128²) made %.0f allocations, want ≤ 24", allocs)
	}
}

func certifyBench(t testing.TB, n int) (*comm.Graph, *clocktree.Tree) {
	g, err := comm.Mesh(n, n)
	if err != nil {
		t.Fatal(err)
	}
	tr, err := clocktree.HTree(g)
	if err != nil {
		t.Fatal(err)
	}
	return g, tr
}

func BenchmarkMeshCertifiedLowerBound128(b *testing.B) {
	g, tr := certifyBench(b, 128)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := MeshCertifiedLowerBound(g, tr, 0.5); err != nil {
			b.Fatal(err)
		}
	}
}

func TestMeshCutLowerBound(t *testing.T) {
	cases := []struct{ n, k, want int }{
		{10, 0, 0},
		{10, 1, 1},
		{10, 4, 2},
		{10, 5, 3},
		{10, 9, 3},
		{10, 10, 4},
		{10, 50, 8},
		{10, 1000, 10}, // capped at n
	}
	for _, c := range cases {
		if got := meshCutLowerBound(c.n, c.k); got != c.want {
			t.Errorf("meshCutLowerBound(%d,%d) = %d, want %d", c.n, c.k, got, c.want)
		}
	}
}

func TestMeshCutLowerBoundGrowsLinearly(t *testing.T) {
	// At the paper's balance (neither side above 23/30 of the cells) the
	// smaller side holds 7/30 of them, and the bound min(√(7/30)·n, n) ≈
	// 0.48n grows linearly.
	balanced := func(n int) int { return meshCutLowerBound(n, int(7.0/30*float64(n*n))) }
	b8, b16, b32 := balanced(8), balanced(16), balanced(32)
	if b16 < 2*b8-2 || b32 < 2*b16-2 || b32 <= 0 {
		t.Errorf("balanced bound not ~linear: %d %d %d", b8, b16, b32)
	}
}
