package skew

import (
	"context"
	"testing"

	"repro/internal/clocktree"
	"repro/internal/comm"
	"repro/internal/stats"
)

// The benchmarks here are the perf suite behind BENCH_skew.json: the
// first five keep their pre-kernel names and measure the same work
// (a kernel build included) so before/after numbers are
// apples-to-apples, and the Kernel* group measures the
// amortized regime the serving path lives in, where one Kernel is built
// once and queried many times.

func benchMeshHTree(b *testing.B, n int) (*comm.Graph, *clocktree.Tree) {
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

func BenchmarkAnalyze32(b *testing.B) {
	g, tree := benchMeshHTree(b, 32)
	m := Linear{M: 1, Eps: 0.1}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Analyze(g, tree, m); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkGuaranteedMinSkew32(b *testing.B) {
	g, tree := benchMeshHTree(b, 32)
	m := Linear{M: 1, Eps: 0.1}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		GuaranteedMinSkew(g, tree, m)
	}
}

func BenchmarkMonteCarlo32x4(b *testing.B) {
	g, tree := benchMeshHTree(b, 32)
	m := Linear{M: 1, Eps: 0.1}
	rng := stats.NewRNG(7)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := MonteCarlo(g, tree, m, 4, rng); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkMonteCarloParallel32x64 is a cold parallel Monte Carlo:
// kernel build plus 64 trials on 4 workers.
func BenchmarkMonteCarloParallel32x64(b *testing.B) {
	g, tree := benchMeshHTree(b, 32)
	m := Linear{M: 1, Eps: 0.1}
	rng := stats.NewRNG(7)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		k, err := NewKernel(g, tree)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := k.MonteCarloParallel(context.Background(), 4, m, 64, rng); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkCellPathLen32(b *testing.B) {
	g, tree := benchMeshHTree(b, 32)
	var as, bs []comm.CellID
	c := g.PairIndex().Cursor(0)
	for pa, pb, ok := c.Next(); ok; pa, pb, ok = c.Next() {
		as, bs = append(as, pa), append(bs, pb)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var sum float64
		for j := range as {
			sum += tree.CellPathLen(as[j], bs[j])
		}
		_ = sum
	}
}

// BenchmarkKernelBuild32 measures the one-time precomputation a cache
// miss pays on the serving path.
func BenchmarkKernelBuild32(b *testing.B) {
	g, tree := benchMeshHTree(b, 32)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := NewKernel(g, tree); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkKernelAnalyze32 measures Analyze once the kernel exists:
// a single pass over cached per-pair distances, no tree traversal.
func BenchmarkKernelAnalyze32(b *testing.B) {
	g, tree := benchMeshHTree(b, 32)
	k, err := NewKernel(g, tree)
	if err != nil {
		b.Fatal(err)
	}
	m := Linear{M: 1, Eps: 0.1}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = k.Analyze(m)
	}
}

func BenchmarkKernelMonteCarlo32x4(b *testing.B) {
	g, tree := benchMeshHTree(b, 32)
	k, err := NewKernel(g, tree)
	if err != nil {
		b.Fatal(err)
	}
	m := Linear{M: 1, Eps: 0.1}
	rng := stats.NewRNG(7)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := k.MonteCarlo(m, 4, rng); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkKernelMonteCarloParallel32x64(b *testing.B) {
	g, tree := benchMeshHTree(b, 32)
	k, err := NewKernel(g, tree)
	if err != nil {
		b.Fatal(err)
	}
	m := Linear{M: 1, Eps: 0.1}
	rng := stats.NewRNG(7)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := k.MonteCarloParallel(context.Background(), 4, m, 64, rng); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkKernelTrialSteadyState is the inner loop the CI bench-smoke
// job gates on: one Monte-Carlo trial from a warm arena pool must report
// 0 allocs/op.
func BenchmarkKernelTrialSteadyState(b *testing.B) {
	g, tree := benchMeshHTree(b, 32)
	k, err := NewKernel(g, tree)
	if err != nil {
		b.Fatal(err)
	}
	m := Linear{M: 1, Eps: 0.1}
	rng := stats.NewRNG(7)
	k.Trial(m, rng) // warm the arena pool
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = k.Trial(m, rng)
	}
}

// BenchmarkKernelMonteCarloSteadyState is the per-request Monte-Carlo
// loop the CI bench-smoke job gates on: a 16-trial MonteCarlo on a warm
// 128² kernel must report 0 allocs/op, so no per-trial allocation (a
// freshly seeded generator per fork, say) can come back.
func BenchmarkKernelMonteCarloSteadyState(b *testing.B) {
	g, tree := benchMeshHTree(b, 128)
	k, err := NewKernel(g, tree)
	if err != nil {
		b.Fatal(err)
	}
	m := Linear{M: 1, Eps: 0.1}
	rng := stats.NewRNG(7)
	if _, err := k.MonteCarlo(m, 16, rng); err != nil { // warm the arena pool
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := k.MonteCarlo(m, 16, rng); err != nil {
			b.Fatal(err)
		}
	}
}
