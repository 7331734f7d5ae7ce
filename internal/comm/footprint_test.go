package comm

import (
	"runtime"
	"testing"
)

// TestBuildMeshAllocs gates graph construction's allocation count: a
// 128² mesh is a handful of presized slices, so the count must not grow
// with the array.
func TestBuildMeshAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates")
	}
	allocs := testing.AllocsPerRun(3, func() {
		if _, err := Build("mesh", 0, 128, 128); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 16 {
		t.Fatalf("Build(mesh 128²) made %.0f allocations, want ≤ 16", allocs)
	}
}

// TestMeshRetainedBytesPerCell gates the resident size of a built 128²
// mesh together with its pair index.
func TestMeshRetainedBytesPerCell(t *testing.T) {
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	g, err := Mesh(128, 128)
	if err != nil {
		t.Fatal(err)
	}
	g.PairIndex()
	runtime.GC()
	runtime.ReadMemStats(&after)
	perCell := float64(int64(after.HeapAlloc)-int64(before.HeapAlloc)) / float64(g.NumCells())
	runtime.KeepAlive(g)
	t.Logf("retained %.1f B/cell", perCell)
	if perCell > 200 {
		t.Fatalf("128² mesh with pair index retains %.1f B/cell, want ≤ 200", perCell)
	}
}

func BenchmarkBuildMesh128(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := Build("mesh", 0, 128, 128); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkPairIndex128(b *testing.B) {
	g, err := Mesh(128, 128)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		buildPairIndex(len(g.cells), g.edges)
	}
}
