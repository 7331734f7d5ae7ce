package clocktree

import (
	"testing"

	"repro/internal/comm"
)

// TestTreeBuildAllocs gates the allocation counts of H-tree construction
// and buffer insertion on a 128² mesh. Both are a fixed set of presized
// arrays, so neither count may grow with the array: HTree and Buffered
// measure 16 each, and the ceiling of 24 leaves eight of slack.
func TestTreeBuildAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates")
	}
	g := mustMesh(t, 128, 128)
	tr, err := HTree(g)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := tr.Equalize(); err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name string
		run  func() (*Tree, error)
	}{
		{"HTree", func() (*Tree, error) { return HTree(g) }},
		{"Buffered", func() (*Tree, error) { return Buffered(tr, 1) }},
	} {
		allocs := testing.AllocsPerRun(3, func() {
			if _, err := tc.run(); err != nil {
				t.Fatal(err)
			}
		})
		t.Logf("%s(128²): %.0f allocations", tc.name, allocs)
		if allocs > 24 {
			t.Errorf("%s(128²) made %.0f allocations, want ≤ 24", tc.name, allocs)
		}
	}
}

func benchMesh(b *testing.B, n int) *comm.Graph {
	g, err := comm.Mesh(n, n)
	if err != nil {
		b.Fatal(err)
	}
	return g
}

func BenchmarkHTree1024(b *testing.B) {
	g := benchMesh(b, 1024)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := HTree(g); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkBuffered128 buffers an equalized 128² H-tree at unit
// spacing, the tree a difference-model plan serves.
func BenchmarkBuffered128(b *testing.B) {
	tr, err := HTree(benchMesh(b, 128))
	if err != nil {
		b.Fatal(err)
	}
	if _, err := tr.Equalize(); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Buffered(tr, 1); err != nil {
			b.Fatal(err)
		}
	}
}
