package skew

import (
	"context"
	"fmt"
	"math"
	"sort"
	"sync"

	"repro/internal/clocktree"
	"repro/internal/comm"
	"repro/internal/obs"
	"repro/internal/runner"
	"repro/internal/stats"
)

// DefaultShardSize is the pairs-per-shard block size of the streamed
// analyzer: big enough that per-shard scheduling and span overhead
// vanish, small enough that an 8192² mesh still yields >100 shards of
// parallelism and progress granularity.
const DefaultShardSize = 1 << 20

// DefaultMCSampleCap is the default per-trial reservoir capacity of the
// sampled Monte-Carlo max estimate.
const DefaultMCSampleCap = 1 << 16

// Streamer is the streamed counterpart of Kernel: a reusable context
// over one (graph, tree) pair that never materializes per-pair arrays.
// It holds the graph's CSR pair index (4 B per pair plus 8 per cell),
// the clock tree (whose cell→node slice resolves each pair's
// endpoints), and a pool of per-worker shard arenas, so the
// resident cost is O(cells), not O(pairs)·24 B like the kernel — this
// is the path that breaks the kernel byte ceiling. Safe for concurrent
// use; the serving stack caches Streamers content-addressed exactly as
// it caches Kernels.
type Streamer struct {
	graph *comm.Graph
	tree  *clocktree.Tree
	ix    *comm.PairIndex

	arenas sync.Pool // *streamArena
}

// streamArena is one worker's shard scratch: the bounded-memory
// quantile sketch the shard folds its per-pair bounds into. It lives in
// a pool so steady-state shard processing allocates nothing.
type streamArena struct {
	sketch stats.LogSketch
}

// NewStreamer validates that tree clocks every cell of g and builds the
// streaming context. Construction is O(cells + edges); no per-pair
// state is allocated.
func NewStreamer(g *comm.Graph, tree *clocktree.Tree) (*Streamer, error) {
	if !tree.Covers(g) {
		return nil, fmt.Errorf("skew: tree %q does not clock every cell of %q", tree.Name, g.Name)
	}
	st := &Streamer{graph: g, tree: tree, ix: g.PairIndex()}
	st.arenas.New = func() any { return &streamArena{} }
	return st, nil
}

// Graph returns the communication graph the streamer was built over.
func (st *Streamer) Graph() *comm.Graph { return st.graph }

// Tree returns the clock tree the streamer was built over.
func (st *Streamer) Tree() *clocktree.Tree { return st.tree }

// NumPairs returns the number of communicating pairs the streamed scan
// covers.
func (st *Streamer) NumPairs() int64 { return st.ix.NumPairs() }

// ShardStats is the exact statistics of one contiguous block of the
// canonical pair order. Shards merge: fold MaxSkew/worst-pair with
// strictly-greater updates in ascending Lo order to reproduce the full
// ascending scan bit-for-bit, and merge sketches by addition. The JSON
// form is what cluster shard spill ships between nodes.
type ShardStats struct {
	Lo      int64   `json:"lo"` // pair index range [Lo, Hi)
	Hi      int64   `json:"hi"`
	MaxSkew float64 `json:"max_skew"`
	WorstA  int     `json:"worst_a"`
	WorstB  int     `json:"worst_b"`
	WorstD  float64 `json:"worst_d"`
	WorstS  float64 `json:"worst_s"`
	MaxD    float64 `json:"max_d"`
	MaxS    float64 `json:"max_s"`
	// MaxLB is the shard's largest model lower bound (0 for models
	// without one).
	MaxLB float64 `json:"max_lb,omitempty"`

	Sketch *stats.LogSketch `json:"sketch,omitempty"`
}

// shardAgg is the arena-free part of a shard's result (the sketch stays
// in the arena and is folded into the global accumulator immediately).
type shardAgg struct {
	maxSkew        float64
	worstA, worstB comm.CellID
	worstD, worstS float64
	maxD, maxS     float64
	maxLB          float64
}

// processShard computes the exact per-pair statistics of pairs
// [lo, hi) into agg and the arena's sketch. It is the streamed
// analyzer's hot loop: one cursor walk, two flat-array lookups and two
// tree distance queries per pair, zero allocations — the benchmark
// BenchmarkStreamedShardSteadyState gates that property in CI.
//
// The per-pair arithmetic is exactly Kernel construction + Analyze:
// d = tree.DiffDist, s = tree.PathLen, bound = model.Bound(d, s), with
// strictly-greater updates in ascending pair order — so folding shard
// maxima in ascending order is bit-identical to the kernel's scan,
// including which pair wins the argmax.
func (st *Streamer) processShard(model Model, lb LowerBounder, lo, hi int64, arena *streamArena) shardAgg {
	var agg shardAgg
	c := st.ix.Cursor(lo)
	for c.Index() < hi {
		a, b, ok := c.Next()
		if !ok {
			break
		}
		na, _ := st.tree.CellNode(a) // NewStreamer checked Covers
		nb, _ := st.tree.CellNode(b)
		d := st.tree.DiffDist(na, nb)
		s := st.tree.PathLen(na, nb)
		sk := model.Bound(d, s)
		arena.sketch.Add(sk)
		if sk > agg.maxSkew {
			agg.maxSkew = sk
			agg.worstA, agg.worstB = a, b
			agg.worstD, agg.worstS = d, s
		}
		if d > agg.maxD {
			agg.maxD = d
		}
		if s > agg.maxS {
			agg.maxS = s
		}
		if lb != nil {
			if v := lb.LowerBound(s); v > agg.maxLB {
				agg.maxLB = v
			}
		}
	}
	return agg
}

// ShardStats computes one shard's exact statistics with a pooled arena
// and returns them in transportable form (sketch copied out of the
// arena). This is what a cluster peer answers /v1/cluster/shard with.
func (st *Streamer) ShardStats(model Model, lo, hi int64) (ShardStats, error) {
	n := st.ix.NumPairs()
	if lo < 0 || hi < lo || hi > n {
		return ShardStats{}, fmt.Errorf("skew: shard [%d,%d) out of range [0,%d]", lo, hi, n)
	}
	lb, _ := model.(LowerBounder)
	arena := st.arenas.Get().(*streamArena)
	arena.sketch.Reset()
	agg := st.processShard(model, lb, lo, hi, arena)
	sk := arena.sketch // copy the fixed-size value out of the arena
	st.arenas.Put(arena)
	return ShardStats{
		Lo: lo, Hi: hi,
		MaxSkew: agg.maxSkew,
		WorstA:  int(agg.worstA), WorstB: int(agg.worstB),
		WorstD: agg.worstD, WorstS: agg.worstS,
		MaxD: agg.maxD, MaxS: agg.maxS, MaxLB: agg.maxLB,
		Sketch: &sk,
	}, nil
}

// StreamOptions tunes Streamer.Analyze. The zero value means: default
// shard size, sequential shards, no sampled Monte Carlo, seed 0.
type StreamOptions struct {
	// ShardSize is the pairs-per-shard block size (DefaultShardSize if
	// zero or negative).
	ShardSize int64
	// Workers bounds concurrent shard processing (sequential if < 2).
	Workers int
	// MCTrials enables the sampled Monte-Carlo max estimate with that
	// many trials when positive.
	MCTrials int
	// MCSampleCap is each trial's reservoir capacity in pairs
	// (DefaultMCSampleCap if zero or negative). A capacity at or above
	// the pair count makes every trial exhaustive — bit-identical to the
	// exact scan's maximum.
	MCSampleCap int64
	// Seed drives the per-trial reservoir forks.
	Seed int64
	// Progress, if non-nil, is invoked after each shard completes (from
	// worker goroutines, serialized) with cumulative partial statistics —
	// the hook /v1/jobs uses to stream partial quantiles.
	Progress func(StreamPartial)
	// ShardFn, if non-nil, may compute a shard remotely: return the
	// shard's stats and true, or false to fall back to local
	// computation. The serving layer uses this to spill shards to
	// cluster peers over a byte budget.
	ShardFn func(ctx context.Context, lo, hi int64) (ShardStats, bool)
}

// StreamPartial is a cumulative snapshot delivered after each completed
// shard. MaxSkew and the quantiles cover the pairs processed so far
// (shards complete in any order, but all fields are order-independent
// aggregates).
type StreamPartial struct {
	PairsDone, PairsTotal int64
	ShardsDone, Shards    int
	MaxSkew               float64
	P50, P90, P99         float64
}

// SampledMaxEstimate is the reservoir-sampled Monte-Carlo estimate of
// the max pair skew: per trial, a Fork-deterministic uniform reservoir
// of pairs is drawn and the model bound maximized over it. Every trial
// underestimates (or hits) the exact streamed max; Exhaustive trials
// (capacity ≥ pairs) equal it bit-for-bit, which is the propcheck
// anchor. CI95 is the half-width 1.96·σ/√T on the trial mean.
type SampledMaxEstimate struct {
	Trials      int     `json:"trials"`
	SamplePairs int64   `json:"sample_pairs"` // per-trial reservoir size used
	Exhaustive  bool    `json:"exhaustive"`   // reservoir covered every pair
	Max         float64 `json:"max"`          // max over trials
	Mean        float64 `json:"mean"`         // mean over trials
	CI95        float64 `json:"ci95_halfwidth"`
	Seed        int64   `json:"seed"`
}

// StreamAnalysis is Streamer.Analyze's result: the exact Analysis a
// Kernel would produce (bit-identical fields), plus the bounded-memory
// distribution summary and optional sampled estimate the streamed path
// adds.
type StreamAnalysis struct {
	Analysis

	Shards    int
	ShardSize int64
	// GuaranteedMinSkew is the model's largest per-pair lower bound,
	// exactly Kernel.GuaranteedMinSkew (0 for models without one).
	GuaranteedMinSkew float64
	// P50/P90/P99 summarize the pair-skew distribution from the merged
	// shard sketches; QuantileRelError is their worst-case relative
	// error (Min/Max/MaxSkew stay exact).
	P50, P90, P99    float64
	QuantileRelError float64

	Sampled *SampledMaxEstimate
}

// Analyze runs the exact streamed scan: shards of the canonical pair
// order processed over a bounded worker pool, folded into online
// statistics. MaxSkew, WorstPair, MaxD, MaxS, and Pairs are
// bit-identical to Kernel.Analyze on the same (graph, tree, model) —
// the fold replays the kernel's ascending strictly-greater scan — while
// memory stays O(cells + workers·sketch), independent of the pair
// count.
func (st *Streamer) Analyze(ctx context.Context, model Model, opt StreamOptions) (StreamAnalysis, error) {
	n := st.ix.NumPairs()
	shardSize := opt.ShardSize
	if shardSize <= 0 {
		shardSize = DefaultShardSize
	}
	nShards := int((n + shardSize - 1) / shardSize)
	out := StreamAnalysis{
		Analysis: Analysis{
			Model: model.Name(), Tree: st.tree.Name, Pairs: int(n),
		},
		Shards:           nShards,
		ShardSize:        shardSize,
		QuantileRelError: stats.RelativeError(),
	}
	lb, _ := model.(LowerBounder)
	ctx, span := obs.Start(ctx, "skew.stream",
		obs.String("graph", st.graph.Name), obs.String("tree", st.tree.Name),
		obs.Int("pairs", n), obs.Int("shards", int64(nShards)),
		obs.Int("workers", int64(max(opt.Workers, 1))))
	defer span.End()

	// Global accumulator: order-independent aggregates folded as shards
	// complete (for Progress), plus the merged sketch. The
	// order-dependent exact argmax is folded after Join, in shard order.
	var mu sync.Mutex
	var global struct {
		sketch     stats.LogSketch
		pairsDone  int64
		shardsDone int
		maxSkew    float64
	}

	results := runner.MapChunks(ctx, opt.Workers, nShards, 1, func(ctx context.Context, s, _ int) (shardAgg, error) {
		if err := ctx.Err(); err != nil {
			return shardAgg{}, err
		}
		lo := int64(s) * shardSize
		hi := lo + shardSize
		if hi > n {
			hi = n
		}
		_, shardSpan := obs.Start(ctx, "skew.stream_shard",
			obs.Int("lo", lo), obs.Int("hi", hi))
		var agg shardAgg
		var sketch *stats.LogSketch
		var remote bool
		if opt.ShardFn != nil {
			if ss, ok := opt.ShardFn(ctx, lo, hi); ok {
				agg = shardAgg{
					maxSkew: ss.MaxSkew,
					worstA:  comm.CellID(ss.WorstA), worstB: comm.CellID(ss.WorstB),
					worstD: ss.WorstD, worstS: ss.WorstS,
					maxD: ss.MaxD, maxS: ss.MaxS, maxLB: ss.MaxLB,
				}
				sketch = ss.Sketch
				remote = true
			}
		}
		var arena *streamArena
		if !remote {
			arena = st.arenas.Get().(*streamArena)
			arena.sketch.Reset()
			agg = st.processShard(model, lb, lo, hi, arena)
			sketch = &arena.sketch
		}
		mu.Lock()
		if sketch != nil {
			global.sketch.Merge(sketch)
		}
		global.pairsDone += hi - lo
		global.shardsDone++
		if agg.maxSkew > global.maxSkew {
			global.maxSkew = agg.maxSkew
		}
		if opt.Progress != nil {
			opt.Progress(StreamPartial{
				PairsDone: global.pairsDone, PairsTotal: n,
				ShardsDone: global.shardsDone, Shards: nShards,
				MaxSkew: global.maxSkew,
				P50:     global.sketch.Quantile(0.50),
				P90:     global.sketch.Quantile(0.90),
				P99:     global.sketch.Quantile(0.99),
			})
		}
		mu.Unlock()
		if arena != nil {
			st.arenas.Put(arena)
		}
		shardSpan.Annotate(obs.Float("max_skew", agg.maxSkew), obs.Int("remote", boolInt(remote)))
		shardSpan.End()
		return agg, nil
	})
	if err := runner.Join(results); err != nil {
		return StreamAnalysis{}, err
	}
	// Exact fold: ascending shard order with strictly-greater updates
	// replays the kernel's single ascending scan, so the argmax pair —
	// the first to attain the maximum — matches bit for bit.
	for _, r := range results {
		agg := r.Value
		if agg.maxSkew > out.MaxSkew {
			out.MaxSkew = agg.maxSkew
			out.WorstPair = PairSkew{A: agg.worstA, B: agg.worstB, D: agg.worstD, S: agg.worstS, Skew: agg.maxSkew}
		}
		if agg.maxD > out.MaxD {
			out.MaxD = agg.maxD
		}
		if agg.maxS > out.MaxS {
			out.MaxS = agg.maxS
		}
		if agg.maxLB > out.GuaranteedMinSkew {
			out.GuaranteedMinSkew = agg.maxLB
		}
	}
	qs := global.sketch.Quantiles(0.50, 0.90, 0.99)
	out.P50, out.P90, out.P99 = qs[0], qs[1], qs[2]

	if opt.MCTrials > 0 {
		est, err := st.SampledMax(ctx, model, opt.MCTrials, opt.MCSampleCap, opt.Seed, out.MaxSkew)
		if err != nil {
			return StreamAnalysis{}, err
		}
		out.Sampled = &est
	}
	span.Annotate(obs.Float("max_skew", out.MaxSkew))
	return out, nil
}

// SampledMax runs the reservoir-sampled Monte-Carlo max estimate: each
// trial draws a uniform reservoir of sampleCap pairs with the
// Fork(trial)-derived generator and maximizes the model bound over it.
// exact is the exact streamed maximum (used verbatim for exhaustive
// trials, where the reservoir provably contains every pair). Results
// are deterministic in (seed, trials, sampleCap) at any worker count.
func (st *Streamer) SampledMax(ctx context.Context, model Model, trials int, sampleCap, seed int64, exact float64) (SampledMaxEstimate, error) {
	n := st.ix.NumPairs()
	if sampleCap <= 0 {
		sampleCap = DefaultMCSampleCap
	}
	est := SampledMaxEstimate{Trials: trials, SamplePairs: sampleCap, Seed: seed}
	if sampleCap >= n {
		// The reservoir admits every pair: each trial's max is the exact
		// max, with zero sampling variance.
		est.SamplePairs = n
		est.Exhaustive = true
		est.Max, est.Mean, est.CI95 = exact, exact, 0
		return est, nil
	}
	_, span := obs.Start(ctx, "skew.stream_sampled",
		obs.Int("trials", int64(trials)), obs.Int("sample_pairs", sampleCap))
	defer span.End()
	rng, fork := stats.NewRNG(seed), stats.NewRNG(0)
	xs := make([]float64, trials)
	for trial := 0; trial < trials; trial++ {
		if err := ctx.Err(); err != nil {
			return SampledMaxEstimate{}, err
		}
		r := rng.ForkInto(int64(trial), fork)
		idxs := uniformPairSample(r, n, sampleCap)
		var worst float64
		for _, i := range idxs {
			a, b := st.ix.Pair(i)
			na, _ := st.tree.CellNode(a)
			nb, _ := st.tree.CellNode(b)
			if sk := model.Bound(st.tree.DiffDist(na, nb), st.tree.PathLen(na, nb)); sk > worst {
				worst = sk
			}
		}
		xs[trial] = worst
	}
	est.Max = stats.Max(xs)
	est.Mean = stats.Mean(xs)
	est.CI95 = 1.96 * stats.StdDev(xs) / math.Sqrt(float64(trials))
	span.Annotate(obs.Float("mean", est.Mean), obs.Float("ci95", est.CI95))
	return est, nil
}

// uniformPairSample draws a uniform k-subset of [0, n) with Floyd's
// algorithm and returns it sorted ascending. A single sequential
// reservoir pass (Algorithm R) over the pair stream has exactly this
// output distribution; the CSR index's random addressing lets the
// sample be drawn in O(k) instead of O(n) per trial.
func uniformPairSample(r *stats.RNG, n, k int64) []int64 {
	chosen := make(map[int64]bool, k)
	out := make([]int64, 0, k)
	for j := n - k; j < n; j++ {
		t := int64(r.Intn(int(j + 1)))
		if chosen[t] {
			t = j
		}
		chosen[t] = true
		out = append(out, t)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// FootprintBytes estimates the streamer's resident size: the clock tree
// it retains. As with Kernel.FootprintBytes, the graph's CSR pair index
// is not charged: the graph owns it, and every engine built over the
// graph shares it. Unlike a kernel the streamer holds no per-pair
// arrays — the gap between the two is exactly what the streamed path
// saves.
func (st *Streamer) FootprintBytes() int64 {
	return st.tree.FootprintBytes()
}

func boolInt(b bool) int64 {
	if b {
		return 1
	}
	return 0
}
