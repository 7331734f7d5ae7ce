package skew

import (
	"context"
	"errors"
	"math"
	"runtime"
	"runtime/debug"
	"sort"
	"testing"

	"repro/internal/clocktree"
	"repro/internal/comm"
	"repro/internal/stats"
)

// streamedTier builds the streamed-tier kernel for (g, tree): a one-byte
// budget trips on any array.
func streamedTier(t testing.TB, g *comm.Graph, tree *clocktree.Tree) *Kernel {
	t.Helper()
	k, err := NewKernelWithLimits(g, tree, Limits{MaxBytes: 1})
	if err != nil {
		t.Fatal(err)
	}
	if k.SizeError() == nil {
		t.Fatal("a one-byte budget built a resident kernel")
	}
	return k
}

// analyzeStreamed builds a kernel for (g, tree) and runs one streamed
// scan.
func analyzeStreamed(ctx context.Context, g *comm.Graph, tree *clocktree.Tree, model Model, opt StreamOptions) (StreamAnalysis, error) {
	k, err := NewKernel(g, tree)
	if err != nil {
		return StreamAnalysis{}, err
	}
	return k.Stream(ctx, model, opt)
}

func streamTestGraphs(t *testing.T) []*comm.Graph {
	t.Helper()
	var out []*comm.Graph
	for _, build := range []func() (*comm.Graph, error){
		func() (*comm.Graph, error) { return comm.Linear(1) },
		func() (*comm.Graph, error) { return comm.Linear(9) },
		func() (*comm.Graph, error) { return comm.Mesh(5, 7) },
		func() (*comm.Graph, error) { return comm.Mesh(8, 8) },
		func() (*comm.Graph, error) { return comm.Hex(4) },
		func() (*comm.Graph, error) { return comm.Torus(3, 5) },
		func() (*comm.Graph, error) { return comm.CompleteBinaryTree(4) },
	} {
		g, err := build()
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, g)
	}
	return out
}

// TestStreamedMatchesKernelExact is the tentpole's bit-identity oracle:
// over a matrix of graphs × tree representations × models × shard sizes ×
// worker counts, every exact field of the streamed analysis — MaxSkew,
// the argmax pair, its d and s, MaxD, MaxS, Pairs — must equal
// Kernel.Analyze at tolerance zero. The resident kernel resolves its
// path lengths in one offline LCA pass, Stream with per-pair parent
// walks.
func TestStreamedMatchesKernelExact(t *testing.T) {
	models := []Model{
		Linear{M: 1, Eps: 0.1},
		Linear{M: 2.5, Eps: 0.01},
	}
	for _, g := range streamTestGraphs(t) {
		tree, err := clocktree.HTree(g)
		if err != nil {
			t.Fatal(err)
		}
		k, err := NewKernel(g, tree)
		if err != nil {
			t.Fatalf("%s: NewKernel: %v", g.Name, err)
		}
		nPairs := int64(k.Pairs())
		for _, m := range models {
			want := k.Analyze(m)
			for _, shardSize := range []int64{1, 3, 7, nPairs, nPairs + 1, DefaultShardSize} {
				if shardSize <= 0 {
					continue
				}
				for _, workers := range []int{1, 4} {
					got, err := k.Stream(context.Background(), m, StreamOptions{
						ShardSize: shardSize,
						Workers:   workers,
					})
					if err != nil {
						t.Fatalf("%s: streamed Analyze: %v", g.Name, err)
					}
					if got.Analysis != want {
						t.Fatalf("%s tree=%s shard=%d workers=%d:\n got %+v\nwant %+v",
							g.Name, tree.Name, shardSize, workers, got.Analysis, want)
					}
					if got.GuaranteedMinSkew != k.GuaranteedMinSkew(m) {
						t.Fatalf("%s shard=%d: GuaranteedMinSkew %v, want %v",
							g.Name, shardSize, got.GuaranteedMinSkew, k.GuaranteedMinSkew(m))
					}
				}
			}
		}
	}
}

// TestStreamedQuantiles checks the sketch-backed quantiles against exact
// nearest-rank quantiles of the per-pair bound distribution, within the
// sketch's advertised relative error.
func TestStreamedQuantiles(t *testing.T) {
	g, err := comm.Mesh(9, 9)
	if err != nil {
		t.Fatal(err)
	}
	tree, err := clocktree.HTree(g)
	if err != nil {
		t.Fatal(err)
	}
	m := Linear{M: 1, Eps: 0.1}
	var bounds []float64
	c := g.PairIndex().Cursor(0)
	for pa, pb, ok := c.Next(); ok; pa, pb, ok = c.Next() {
		a, _ := tree.CellNode(pa)
		b, _ := tree.CellNode(pb)
		bounds = append(bounds, m.Bound(tree.DiffDist(a, b), tree.PathLen(a, b)))
	}
	sort.Float64s(bounds)
	got, err := analyzeStreamed(context.Background(), g, tree, m, StreamOptions{ShardSize: 64, Workers: 3})
	if err != nil {
		t.Fatal(err)
	}
	tol := got.QuantileRelError
	if tol <= 0 || tol > 0.05 {
		t.Fatalf("QuantileRelError = %v", tol)
	}
	for _, tc := range []struct {
		q   float64
		got float64
	}{{0.50, got.P50}, {0.90, got.P90}, {0.99, got.P99}} {
		rank := int(math.Ceil(tc.q * float64(len(bounds))))
		if rank < 1 {
			rank = 1
		}
		exact := bounds[rank-1]
		if exact == 0 {
			continue
		}
		if rel := math.Abs(tc.got-exact) / exact; rel > tol {
			t.Fatalf("q=%v: streamed %v vs exact %v (rel err %v > %v)", tc.q, tc.got, exact, rel, tol)
		}
	}
}

// TestStreamedProgress checks the partial-stats callback: cumulative
// pair counts reach the total, shard counts agree, and the final
// partial's max equals the exact result.
func TestStreamedProgress(t *testing.T) {
	g, err := comm.Mesh(6, 6)
	if err != nil {
		t.Fatal(err)
	}
	tree, err := clocktree.HTree(g)
	if err != nil {
		t.Fatal(err)
	}
	var partials []StreamPartial
	got, err := analyzeStreamed(context.Background(), g, tree, Linear{M: 1, Eps: 0.1}, StreamOptions{
		ShardSize: 10,
		Workers:   4,
		Progress:  func(p StreamPartial) { partials = append(partials, p) },
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(partials) != got.Shards {
		t.Fatalf("got %d partials, want %d", len(partials), got.Shards)
	}
	last := partials[len(partials)-1]
	if last.PairsDone != last.PairsTotal || int(last.PairsTotal) != got.Pairs {
		t.Fatalf("final partial pairs %d/%d, want %d", last.PairsDone, last.PairsTotal, got.Pairs)
	}
	if last.ShardsDone != got.Shards || last.Shards != got.Shards {
		t.Fatalf("final partial shards %d/%d, want %d", last.ShardsDone, last.Shards, got.Shards)
	}
	if last.MaxSkew != got.MaxSkew {
		t.Fatalf("final partial max %v, want %v", last.MaxSkew, got.MaxSkew)
	}
	for i, p := range partials {
		if p.PairsDone <= 0 || p.PairsDone > p.PairsTotal || p.ShardsDone != i+1 {
			t.Fatalf("partial %d inconsistent: %+v", i, p)
		}
	}
}

// TestSampledMaxExhaustive checks the exactness anchor: a reservoir at
// or above the pair count short-circuits to the exact max with zero
// variance, bit-identically.
func TestSampledMaxExhaustive(t *testing.T) {
	g, err := comm.Mesh(6, 6)
	if err != nil {
		t.Fatal(err)
	}
	tree, err := clocktree.HTree(g)
	if err != nil {
		t.Fatal(err)
	}
	got, err := analyzeStreamed(context.Background(), g, tree, Linear{M: 1, Eps: 0.1}, StreamOptions{
		MCTrials:    8,
		MCSampleCap: 1 << 30,
		Seed:        42,
	})
	if err != nil {
		t.Fatal(err)
	}
	est := got.Sampled
	if est == nil {
		t.Fatal("no sampled estimate")
	}
	if !est.Exhaustive {
		t.Fatal("cap above pair count not marked exhaustive")
	}
	if est.SamplePairs != int64(got.Pairs) {
		t.Fatalf("SamplePairs = %d, want %d", est.SamplePairs, got.Pairs)
	}
	if est.Max != got.MaxSkew || est.Mean != got.MaxSkew || est.CI95 != 0 {
		t.Fatalf("exhaustive estimate %+v does not equal exact max %v", est, got.MaxSkew)
	}
}

// TestSampledMaxProperties checks the subsampled estimator: trials are
// deterministic in the seed at any worker count, never exceed the exact
// max, and the 95% interval around the trial mean behaves sanely.
func TestSampledMaxProperties(t *testing.T) {
	g, err := comm.Mesh(12, 12)
	if err != nil {
		t.Fatal(err)
	}
	tree, err := clocktree.HTree(g)
	if err != nil {
		t.Fatal(err)
	}
	m := Linear{M: 1, Eps: 0.1}
	opt := StreamOptions{
		ShardSize:   50,
		MCTrials:    16,
		MCSampleCap: 40, // well below the pair count: genuinely subsampled
		Seed:        7,
	}
	a, err := analyzeStreamed(context.Background(), g, tree, m, opt)
	if err != nil {
		t.Fatal(err)
	}
	opt.Workers = 4
	b, err := analyzeStreamed(context.Background(), g, tree, m, opt)
	if err != nil {
		t.Fatal(err)
	}
	if a.Sampled == nil || b.Sampled == nil {
		t.Fatal("missing sampled estimates")
	}
	if *a.Sampled != *b.Sampled {
		t.Fatalf("worker count changed the sampled estimate: %+v vs %+v", *a.Sampled, *b.Sampled)
	}
	est := a.Sampled
	if est.Exhaustive {
		t.Fatal("subsampled run marked exhaustive")
	}
	if est.SamplePairs != 40 || est.Trials != 16 {
		t.Fatalf("estimate shape wrong: %+v", est)
	}
	if est.Max > a.MaxSkew {
		t.Fatalf("sampled max %v exceeds exact max %v", est.Max, a.MaxSkew)
	}
	if est.Mean > est.Max || est.Mean <= 0 {
		t.Fatalf("mean %v outside (0, max=%v]", est.Mean, est.Max)
	}
	if est.CI95 < 0 || math.IsNaN(est.CI95) {
		t.Fatalf("CI95 = %v", est.CI95)
	}
	// A different seed draws different reservoirs.
	opt.Seed = 8
	c, err := analyzeStreamed(context.Background(), g, tree, m, opt)
	if err != nil {
		t.Fatal(err)
	}
	if *c.Sampled == *a.Sampled {
		t.Fatal("different seeds produced identical estimates")
	}
}

// TestStreamedZeroPairs checks the degenerate single-cell array: zero
// shards, zero statistics, no crash.
func TestStreamedZeroPairs(t *testing.T) {
	g, err := comm.Linear(1)
	if err != nil {
		t.Fatal(err)
	}
	tree, err := clocktree.HTree(g)
	if err != nil {
		t.Fatal(err)
	}
	got, err := analyzeStreamed(context.Background(), g, tree, Linear{M: 1, Eps: 0.1}, StreamOptions{
		MCTrials: 4,
	})
	if err != nil {
		t.Fatal(err)
	}
	if got.Pairs != 0 || got.Shards != 0 || got.MaxSkew != 0 || got.P99 != 0 {
		t.Fatalf("zero-pair analysis not zero: %+v", got)
	}
	if got.Sampled == nil || !got.Sampled.Exhaustive || got.Sampled.Max != 0 {
		t.Fatalf("zero-pair sampled estimate wrong: %+v", got.Sampled)
	}
}

// TestStreamedContextCancel checks a cancelled context aborts the scan
// with an error instead of returning partial results.
func TestStreamedContextCancel(t *testing.T) {
	g, err := comm.Mesh(8, 8)
	if err != nil {
		t.Fatal(err)
	}
	tree, err := clocktree.HTree(g)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := analyzeStreamed(ctx, g, tree, Linear{M: 1, Eps: 0.1}, StreamOptions{ShardSize: 4}); err == nil {
		t.Fatal("cancelled context did not error")
	}
}

// TestKernelTiersAgree is the two-tier oracle: over every differential
// layout and model, a resident kernel and a streamed-tier kernel built
// over the same graph and tree give bit-identical Analyze and
// GuaranteedMinSkew answers, Stream's exact fields equal both, and the
// streamed tier refuses Monte Carlo with its *SizeError.
func TestKernelTiersAgree(t *testing.T) {
	for _, c := range diffCases(t) {
		res, err := NewKernel(c.g, c.tr)
		if err != nil {
			t.Fatal(err)
		}
		if res.SizeError() != nil {
			t.Fatalf("%s: default limits streamed: %v", c.name, res.SizeError())
		}
		st := streamedTier(t, c.g, c.tr)
		if st.Pairs() != res.Pairs() {
			t.Fatalf("%s: streamed tier has %d pairs, resident %d", c.name, st.Pairs(), res.Pairs())
		}
		for _, m := range diffModels() {
			want := res.Analyze(m)
			if got := st.Analyze(m); got != want {
				t.Errorf("%s/%s: streamed tier %+v != resident %+v", c.name, m.Name(), got, want)
			}
			if got, want := st.GuaranteedMinSkew(m), res.GuaranteedMinSkew(m); got != want {
				t.Errorf("%s/%s: streamed-tier guaranteed min %v != resident %v", c.name, m.Name(), got, want)
			}
			for _, k := range []*Kernel{res, st} {
				got, err := k.Stream(context.Background(), m, StreamOptions{ShardSize: 5, Workers: 2})
				if err != nil {
					t.Fatal(err)
				}
				if got.Analysis != want || got.GuaranteedMinSkew != res.GuaranteedMinSkew(m) {
					t.Errorf("%s/%s: Stream %+v (min %v) != Analyze %+v", c.name, m.Name(), got.Analysis, got.GuaranteedMinSkew, want)
				}
			}
		}
		var se *SizeError
		if _, err := st.MonteCarlo(Linear{M: 1, Eps: 0.1}, 4, stats.NewRNG(1)); !errors.As(err, &se) {
			t.Errorf("%s: streamed-tier MonteCarlo returned %v, want *SizeError", c.name, err)
		}
		if _, err := st.MonteCarloParallel(context.Background(), 2, Linear{M: 1, Eps: 0.1}, 4, stats.NewRNG(1)); !errors.As(err, &se) {
			t.Errorf("%s: streamed-tier MonteCarloParallel returned %v, want *SizeError", c.name, err)
		}
	}
}

// TestNewStreamerCoverage checks the coverage precondition holds on the
// streamed tier too: a budget that trips on any array must not let a
// tree missing cells through to a streamed-tier kernel.
func TestNewStreamerCoverage(t *testing.T) {
	small, err := comm.Mesh(2, 2)
	if err != nil {
		t.Fatal(err)
	}
	big, err := comm.Mesh(3, 3)
	if err != nil {
		t.Fatal(err)
	}
	tree, err := clocktree.HTree(small)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := NewKernelWithLimits(big, tree, Limits{MaxBytes: 1}); err == nil {
		t.Fatal("streamed tier accepted a tree missing cells")
	}
}

// TestStreamedTierFootprint checks the streamed tier's footprint is the
// tree alone, far below the resident kernel's for the same pair.
func TestStreamedTierFootprint(t *testing.T) {
	g, err := comm.Mesh(16, 16)
	if err != nil {
		t.Fatal(err)
	}
	tree, err := clocktree.HTree(g)
	if err != nil {
		t.Fatal(err)
	}
	st := streamedTier(t, g, tree)
	// Both footprints count the tree the engine retains.
	kb := KernelBytes(tree.NumNodes(), st.Pairs()) + tree.FootprintBytes()
	if fp := st.FootprintBytes(); fp <= 0 || fp >= kb {
		t.Fatalf("FootprintBytes = %d, want in (0, %d)", fp, kb)
	}
	if st.pairA != nil || st.s != nil || st.draw != nil {
		t.Fatal("streamed-tier kernel holds per-pair or per-node arrays")
	}
}

// TestEnginesChargeNothingForPairIndex checks that kernels built over
// one graph charge none of its CSR pair index: the graph owns the index
// and every engine shares it, so a resident kernel charges its own
// arrays and tree, and a streamed-tier kernel only its tree, however
// many of them there are.
func TestEnginesChargeNothingForPairIndex(t *testing.T) {
	g, err := comm.Mesh(16, 16)
	if err != nil {
		t.Fatal(err)
	}
	tree, err := clocktree.HTree(g)
	if err != nil {
		t.Fatal(err)
	}
	k, err := NewKernel(g, tree)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := k.FootprintBytes(), KernelBytes(tree.NumNodes(), k.Pairs())+tree.FootprintBytes(); got != want {
		t.Errorf("kernel FootprintBytes = %d, want %d", got, want)
	}
	for i := 0; i < 2; i++ {
		if got, want := streamedTier(t, g, tree).FootprintBytes(), tree.FootprintBytes(); got != want {
			t.Errorf("streamed-tier kernel %d FootprintBytes = %d, want %d (the tree alone)", i, got, want)
		}
	}
}

// TestStreamReusesPooledSketches checks that a warm Stream takes every
// sketch it needs, the merged one included, from the kernel's pool: a
// repeated call must allocate far less than one 32 KiB sketch.
func TestStreamReusesPooledSketches(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops items at random under the race detector")
	}
	g, err := comm.Mesh(32, 32)
	if err != nil {
		t.Fatal(err)
	}
	tree, err := clocktree.HTree(g)
	if err != nil {
		t.Fatal(err)
	}
	k := streamedTier(t, g, tree)
	var m Model = Linear{M: 1, Eps: 0.1}
	stream := func() {
		if _, err := k.Stream(context.Background(), m, StreamOptions{}); err != nil {
			t.Fatal(err)
		}
	}
	stream() // fill the pool
	// A collection would empty the pool; keep it off while measuring.
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	const calls = 20
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < calls; i++ {
		stream()
	}
	runtime.ReadMemStats(&after)
	perCall := float64(after.TotalAlloc-before.TotalAlloc) / calls
	t.Logf("warm Stream allocates %.0f B/call", perCall)
	if perCall >= 8<<10 {
		t.Fatalf("warm Stream allocates %.0f B/call, want < 8 KiB", perCall)
	}
}

// BenchmarkStreamedShardSteadyState is the streamed hot loop the CI
// bench-smoke job gates on: one warm-arena shard pass must report
// 0 allocs/op.
func BenchmarkStreamedShardSteadyState(b *testing.B) {
	g, err := comm.Mesh(32, 32)
	if err != nil {
		b.Fatal(err)
	}
	tree, err := clocktree.HTree(g)
	if err != nil {
		b.Fatal(err)
	}
	k := streamedTier(b, g, tree)
	// Convert to the interface once: the hot loop itself must not allocate.
	var m Model = Linear{M: 1, Eps: 0.1}
	n := k.ix.NumPairs()
	lb, _ := m.(LowerBounder)
	sketch := k.sketches.Get().(*stats.LogSketch)
	sketch.Reset()
	_ = k.processShard(m, lb, 0, n, sketch) // warm
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sketch.Reset()
		_ = k.processShard(m, lb, 0, n, sketch)
	}
	b.StopTimer()
	k.sketches.Put(sketch)
}

// BenchmarkStreamedAnalyze32 measures the full streamed scan at the
// size the kernel benchmarks use, for apples-to-apples comparison with
// BenchmarkKernelAnalyze32 + BenchmarkKernelBuild32.
func BenchmarkStreamedAnalyze32(b *testing.B) {
	g, err := comm.Mesh(32, 32)
	if err != nil {
		b.Fatal(err)
	}
	tree, err := clocktree.HTree(g)
	if err != nil {
		b.Fatal(err)
	}
	k := streamedTier(b, g, tree)
	m := Linear{M: 1, Eps: 0.1}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := k.Stream(context.Background(), m, StreamOptions{}); err != nil {
			b.Fatal(err)
		}
	}
}
