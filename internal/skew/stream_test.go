package skew

import (
	"context"
	"math"
	"sort"
	"sync/atomic"
	"testing"

	"repro/internal/clocktree"
	"repro/internal/comm"
	"repro/internal/stats"
)

// analyzeStreamed builds a Streamer for (g, tree) and runs one streamed
// scan.
func analyzeStreamed(ctx context.Context, g *comm.Graph, tree *clocktree.Tree, model Model, opt StreamOptions) (StreamAnalysis, error) {
	st, err := NewStreamer(g, tree)
	if err != nil {
		return StreamAnalysis{}, err
	}
	return st.Analyze(ctx, model, opt)
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
// Kernel.Analyze at tolerance zero. The kernel resolves its path lengths
// in one offline LCA pass, the streamer with per-pair parent walks.
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
					got, err := analyzeStreamed(context.Background(), g, tree, m, StreamOptions{
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

// TestStreamedShardFn checks the cluster-spill hook: serving every shard
// from precomputed ShardStats (as a remote peer would, after a JSON
// round trip) yields a bit-identical analysis and quantiles.
func TestStreamedShardFn(t *testing.T) {
	g, err := comm.Torus(5, 6)
	if err != nil {
		t.Fatal(err)
	}
	tree, err := clocktree.HTree(g)
	if err != nil {
		t.Fatal(err)
	}
	m := Linear{M: 1, Eps: 0.1}
	st, err := NewStreamer(g, tree)
	if err != nil {
		t.Fatal(err)
	}
	local, err := st.Analyze(context.Background(), m, StreamOptions{ShardSize: 17, Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	var remoteShards atomic.Int64 // both shard workers call ShardFn
	spilled, err := st.Analyze(context.Background(), m, StreamOptions{
		ShardSize: 17,
		Workers:   2,
		ShardFn: func(ctx context.Context, lo, hi int64) (ShardStats, bool) {
			ss, err := st.ShardStats(m, lo, hi)
			if err != nil {
				t.Errorf("ShardStats(%d,%d): %v", lo, hi, err)
				return ShardStats{}, false
			}
			// Round-trip the sketch as cluster transport would.
			data, err := ss.Sketch.MarshalJSON()
			if err != nil {
				t.Error(err)
				return ShardStats{}, false
			}
			var back stats.LogSketch
			if err := back.UnmarshalJSON(data); err != nil {
				t.Error(err)
				return ShardStats{}, false
			}
			ss.Sketch = &back
			remoteShards.Add(1)
			return ss, true
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if got := remoteShards.Load(); got != int64(local.Shards) {
		t.Fatalf("ShardFn served %d shards, want %d", got, local.Shards)
	}
	if spilled.Analysis != local.Analysis {
		t.Fatalf("spilled analysis differs:\n got %+v\nwant %+v", spilled.Analysis, local.Analysis)
	}
	if spilled.P50 != local.P50 || spilled.P90 != local.P90 || spilled.P99 != local.P99 {
		t.Fatalf("spilled quantiles differ: %v/%v/%v vs %v/%v/%v",
			spilled.P50, spilled.P90, spilled.P99, local.P50, local.P90, local.P99)
	}
}

// TestStreamedShardFnFallback checks a ShardFn that declines every shard
// degrades to the local path.
func TestStreamedShardFnFallback(t *testing.T) {
	g, err := comm.Mesh(5, 5)
	if err != nil {
		t.Fatal(err)
	}
	tree, err := clocktree.HTree(g)
	if err != nil {
		t.Fatal(err)
	}
	m := Linear{M: 1, Eps: 0.1}
	want, err := analyzeStreamed(context.Background(), g, tree, m, StreamOptions{ShardSize: 8})
	if err != nil {
		t.Fatal(err)
	}
	got, err := analyzeStreamed(context.Background(), g, tree, m, StreamOptions{
		ShardSize: 8,
		ShardFn:   func(ctx context.Context, lo, hi int64) (ShardStats, bool) { return ShardStats{}, false },
	})
	if err != nil {
		t.Fatal(err)
	}
	if got.Analysis != want.Analysis || got.P50 != want.P50 {
		t.Fatal("declining ShardFn changed the result")
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

// TestStreamerShardStatsErrors checks shard-range validation.
func TestStreamerShardStatsErrors(t *testing.T) {
	g, err := comm.Mesh(3, 3)
	if err != nil {
		t.Fatal(err)
	}
	tree, err := clocktree.HTree(g)
	if err != nil {
		t.Fatal(err)
	}
	st, err := NewStreamer(g, tree)
	if err != nil {
		t.Fatal(err)
	}
	n := st.NumPairs()
	for _, r := range [][2]int64{{-1, 0}, {0, n + 1}, {3, 2}} {
		if _, err := st.ShardStats(Linear{M: 1}, r[0], r[1]); err == nil {
			t.Fatalf("ShardStats(%d,%d) accepted", r[0], r[1])
		}
	}
}

// TestNewStreamerCoverage checks the tree-covers-graph precondition.
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
	if _, err := NewStreamer(big, tree); err == nil {
		t.Fatal("NewStreamer accepted a tree missing cells")
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

// TestStreamerFootprint checks the streamed footprint estimate is far
// below the kernel's for the same pair — the inequality the 413 fallback
// depends on.
func TestStreamerFootprint(t *testing.T) {
	g, err := comm.Mesh(16, 16)
	if err != nil {
		t.Fatal(err)
	}
	tree, err := clocktree.HTree(g)
	if err != nil {
		t.Fatal(err)
	}
	st, err := NewStreamer(g, tree)
	if err != nil {
		t.Fatal(err)
	}
	// Both footprints count the tree the engine retains.
	kb := KernelBytes(tree.NumNodes(), int(st.NumPairs())) + tree.FootprintBytes()
	if fp := st.FootprintBytes(); fp <= 0 || fp >= kb {
		t.Fatalf("FootprintBytes = %d, want in (0, %d)", fp, kb)
	}
}

// TestEnginesChargeNothingForPairIndex checks that engines built over one
// graph charge none of its CSR pair index: the graph owns the index and
// every engine shares it, so a kernel charges its own arrays and tree,
// and a streamer only its tree, however many of them there are.
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
		st, err := NewStreamer(g, tree)
		if err != nil {
			t.Fatal(err)
		}
		if got, want := st.FootprintBytes(), tree.FootprintBytes(); got != want {
			t.Errorf("streamer %d FootprintBytes = %d, want %d (the tree alone)", i, got, want)
		}
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
	st, err := NewStreamer(g, tree)
	if err != nil {
		b.Fatal(err)
	}
	// Convert to the interface once: the hot loop itself must not allocate.
	var m Model = Linear{M: 1, Eps: 0.1}
	n := st.NumPairs()
	lb, _ := m.(LowerBounder)
	arena := st.arenas.Get().(*streamArena)
	arena.sketch.Reset()
	_ = st.processShard(m, lb, 0, n, arena) // warm
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		arena.sketch.Reset()
		_ = st.processShard(m, lb, 0, n, arena)
	}
	b.StopTimer()
	st.arenas.Put(arena)
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
	st, err := NewStreamer(g, tree)
	if err != nil {
		b.Fatal(err)
	}
	m := Linear{M: 1, Eps: 0.1}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := st.Analyze(context.Background(), m, StreamOptions{}); err != nil {
			b.Fatal(err)
		}
	}
}
