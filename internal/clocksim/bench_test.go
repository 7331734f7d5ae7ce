package clocksim

import (
	"testing"

	"repro/internal/clocktree"
	"repro/internal/comm"
	"repro/internal/stats"
)

// The benchmarks here are the perf suite behind BENCH_clocksim.json:
// the Reference* group measures the retained pre-kernel implementations
// (the "before" column, and what the package functions run), and the
// Kernel* group the amortized regime the serving path lives in, where
// one Kernel is built once and queried per trial. The kernel's build is
// skew's BenchmarkKernelBuild32.

func benchSetup(b *testing.B, n int) (*comm.Graph, *clocktree.Tree) {
	b.Helper()
	g, err := comm.Mesh(n, n)
	if err != nil {
		b.Fatal(err)
	}
	tree, err := clocktree.HTree(g)
	if err != nil {
		b.Fatal(err)
	}
	return g, tree
}

func benchParams() Params {
	return Params{M: 1, Eps: 0.2, BufferDelay: 0.1, MinSeparation: 2, RiseFallBias: 0.05}
}

func BenchmarkReferenceRandomSkew32(b *testing.B) {
	g, tree := benchSetup(b, 32)
	p := benchParams()
	rng := stats.NewRNG(7)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		arr, err := ReferenceRandom(tree, p, rng)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := arr.MaxCommSkew(g); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkReferenceMaxEventDrift32(b *testing.B) {
	_, tree := benchSetup(b, 32)
	bt, err := clocktree.Buffered(tree, 1.5)
	if err != nil {
		b.Fatal(err)
	}
	p := benchParams()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = ReferenceMaxEventDrift(bt, p)
	}
}

func BenchmarkKernelRandomSkew32(b *testing.B) {
	g, tree := benchSetup(b, 32)
	k, err := NewKernel(g, tree)
	if err != nil {
		b.Fatal(err)
	}
	p := benchParams()
	rng := stats.NewRNG(7)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := k.RandomSkew(p, rng); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkKernelSkewSteadyState is the inner loop the CI bench-smoke
// job gates on: one random-regime skew query from a warm arena pool must
// report 0 allocs/op.
func BenchmarkKernelSkewSteadyState(b *testing.B) {
	g, tree := benchSetup(b, 32)
	k, err := NewKernel(g, tree)
	if err != nil {
		b.Fatal(err)
	}
	p := benchParams()
	rng := stats.NewRNG(7)
	if _, err := k.RandomSkew(p, rng); err != nil { // warm the arena pool
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := k.RandomSkew(p, rng); err != nil {
			b.Fatal(err)
		}
	}
}
