package comm

import (
	"math"
	"reflect"
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
	if perCell > 110 {
		t.Fatalf("128² mesh with pair index retains %.1f B/cell, want ≤ 110", perCell)
	}
}

// TestGraphColumnsHoldNoPointers keeps the garbage collector out of a
// graph's bulk: no column of Graph may have an element type that holds
// a pointer. The label table, a handful of strings, is the one
// exception.
func TestGraphColumnsHoldNoPointers(t *testing.T) {
	typ := reflect.TypeOf(Graph{})
	columns := 0
	for i := 0; i < typ.NumField(); i++ {
		f := typ.Field(i)
		if f.Type.Kind() != reflect.Slice || f.Name == "labels" {
			continue
		}
		columns++
		if holdsPointer(f.Type.Elem()) {
			t.Errorf("Graph.%s is a []%v, whose elements hold a pointer", f.Name, f.Type.Elem())
		}
	}
	if columns < 4 {
		t.Fatalf("found %d columns in Graph, want the cell columns and the edge column", columns)
	}
}

// holdsPointer reports whether a value of type t contains a pointer the
// garbage collector must scan.
func holdsPointer(t reflect.Type) bool {
	switch t.Kind() {
	case reflect.Bool, reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64,
		reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64, reflect.Uintptr,
		reflect.Float32, reflect.Float64, reflect.Complex64, reflect.Complex128:
		return false
	case reflect.Array:
		return t.Len() > 0 && holdsPointer(t.Elem())
	case reflect.Struct:
		for i := 0; i < t.NumField(); i++ {
			if holdsPointer(t.Field(i).Type) {
				return true
			}
		}
		return false
	}
	return true // pointers, slices, maps, strings, interfaces, chans, funcs
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
		buildPairIndex(g.NumCells(), g.edges)
	}
}

// BenchmarkGraphWalk128 reads every cell and edge of a 128² mesh
// through the accessors, which assemble Cell and Edge values from the
// columns; CI requires 0 allocs/op.
func BenchmarkGraphWalk128(b *testing.B) {
	g, err := Mesh(128, 128)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	var sum float64
	var labelBytes int
	for i := 0; i < b.N; i++ {
		for id := CellID(0); int(id) < g.NumCells(); id++ {
			c := g.Cell(id)
			sum += c.Pos.X + float64(c.Row+c.Col)
		}
		for j := 0; j < g.NumEdges(); j++ {
			e := g.Edge(j)
			sum += float64(e.From - e.To)
			labelBytes += len(e.Label)
		}
	}
	if math.IsNaN(sum) || labelBytes == 0 {
		b.Fatal("walk read nothing")
	}
}
