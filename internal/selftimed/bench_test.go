package selftimed

import (
	"testing"

	"repro/internal/comm"
	"repro/internal/stats"
)

// The benchmarks here are the perf suite behind BENCH_selftimed.json:
// the Reference* group measures the retained pre-kernel token game
// (per-call adjacency construction, per-wave row allocation, one
// Bernoulli call per firing) and the kernel group the flat-array
// fast path every caller now gets.

func benchGraph(b *testing.B) *comm.Graph {
	b.Helper()
	g, err := comm.Mesh(32, 32)
	if err != nil {
		b.Fatal(err)
	}
	return g
}

func benchDelays() Delays {
	return Delays{Fast: 1, Worst: 3, PWorst: 0.3, Handshake: 0.25}
}

func BenchmarkReferenceRunElastic32x32(b *testing.B) {
	g := benchGraph(b)
	rng := stats.NewRNG(7)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := ReferenceRunElastic(g, 32, benchDelays(), 2, rng); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkKernelRunElastic32x32(b *testing.B) {
	k := NewKernel(benchGraph(b))
	rng := stats.NewRNG(7)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := k.RunElasticFaulty(32, benchDelays(), 2, rng, nil); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkReferenceRunRigid32x32(b *testing.B) {
	g := benchGraph(b)
	rng := stats.NewRNG(7)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := ReferenceRunRigid(g, 32, benchDelays(), rng); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkRunRigid32x32(b *testing.B) {
	g := benchGraph(b)
	rng := stats.NewRNG(7)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := RunRigid(g, 32, benchDelays(), rng); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkSelftimedKernelBuild32x32(b *testing.B) {
	g := benchGraph(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = NewKernel(g)
	}
}

// BenchmarkKernelElasticSteadyState is the inner loop the CI
// bench-smoke job gates on: RunElastic on a prebuilt kernel with a
// warm arena pool must report 0 allocs/op.
func BenchmarkKernelElasticSteadyState(b *testing.B) {
	k := NewKernel(benchGraph(b))
	rng := stats.NewRNG(7)
	if _, err := k.RunElasticFaulty(32, benchDelays(), 2, rng, nil); err != nil { // warm the arena pool
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := k.RunElasticFaulty(32, benchDelays(), 2, rng, nil); err != nil {
			b.Fatal(err)
		}
	}
}
