package skew

import (
	"context"
	"math"
	"sort"
	"sync"

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

// shardAgg is the exact statistics of one contiguous block of the
// canonical pair order. Blocks merge: folding them with strictly-greater
// updates in ascending block order reproduces the full ascending scan
// bit for bit.
type shardAgg struct {
	maxSkew        float64
	worstA, worstB comm.CellID
	worstD, worstS float64
	maxD, maxS     float64
	maxLB          float64
}

// merge folds the next block's statistics into agg. The worst pair
// moves only on a strictly greater skew, so the first pair to attain
// the maximum wins, as in one ascending scan.
func (agg *shardAgg) merge(next shardAgg) {
	if next.maxSkew > agg.maxSkew {
		agg.maxSkew = next.maxSkew
		agg.worstA, agg.worstB = next.worstA, next.worstB
		agg.worstD, agg.worstS = next.worstD, next.worstS
	}
	if next.maxD > agg.maxD {
		agg.maxD = next.maxD
	}
	if next.maxS > agg.maxS {
		agg.maxS = next.maxS
	}
	if next.maxLB > agg.maxLB {
		agg.maxLB = next.maxLB
	}
}

// analysis reports agg, the statistics of every pair of k, as the
// Analysis the resident tier computes. A worst pair that never beat 0
// stayed zero, as the resident scan leaves it.
func (agg shardAgg) analysis(model Model, k *Kernel) Analysis {
	return Analysis{
		Model: model.Name(), Tree: k.tree.Name,
		MaxSkew:   agg.maxSkew,
		WorstPair: PairSkew{A: agg.worstA, B: agg.worstB, D: agg.worstD, S: agg.worstS, Skew: agg.maxSkew},
		MaxD:      agg.maxD, MaxS: agg.maxS, Pairs: k.Pairs(),
	}
}

// processShard computes the exact per-pair statistics of pairs
// [lo, hi), folding each pair's bound into sketch when it is non-nil.
// It is the streamed tier's hot loop: one cursor walk, two flat-array
// lookups and two tree distance queries per pair, zero allocations —
// the benchmark BenchmarkStreamedShardSteadyState gates that property
// in CI.
//
// The per-pair arithmetic is exactly the resident tier's construction +
// Analyze: d = tree.DiffDist, s = tree.PathLen, bound =
// model.Bound(d, s), with strictly-greater updates in ascending pair
// order — so folding shard maxima in ascending order is bit-identical
// to the resident scan, including which pair wins the argmax.
func (k *Kernel) processShard(model Model, lb LowerBounder, lo, hi int64, sketch *stats.LogSketch) shardAgg {
	var agg shardAgg
	c := k.ix.Cursor(lo)
	for c.Index() < hi {
		a, b, ok := c.Next()
		if !ok {
			break
		}
		na, _ := k.tree.CellNode(a) // NewKernelWithLimits checked Covers
		nb, _ := k.tree.CellNode(b)
		d := k.tree.DiffDist(na, nb)
		s := k.tree.PathLen(na, nb)
		sk := model.Bound(d, s)
		if sketch != nil {
			sketch.Add(sk)
		}
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

// StreamOptions tunes Kernel.Stream. The zero value means: default
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

// StreamAnalysis is Kernel.Stream's result: the exact Analysis
// (bit-identical to Kernel.Analyze), plus the bounded-memory
// distribution summary and optional sampled estimate the streamed scan
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

// Stream runs the exact streamed scan on either tier: shards of the
// canonical pair order processed over a bounded worker pool, folded
// into online statistics. MaxSkew, WorstPair, MaxD, MaxS, and Pairs are
// bit-identical to Analyze on the same model — the fold replays the
// ascending strictly-greater scan — while the scan's memory stays
// O(workers·sketch), independent of the pair count.
func (k *Kernel) Stream(ctx context.Context, model Model, opt StreamOptions) (StreamAnalysis, error) {
	n := k.ix.NumPairs()
	shardSize := opt.ShardSize
	if shardSize <= 0 {
		shardSize = DefaultShardSize
	}
	nShards := int((n + shardSize - 1) / shardSize)
	out := StreamAnalysis{
		Shards:           nShards,
		ShardSize:        shardSize,
		QuantileRelError: stats.RelativeError(),
	}
	lb, _ := model.(LowerBounder)
	ctx, span := obs.Start(ctx, "skew.stream",
		obs.String("graph", k.graph.Name), obs.String("tree", k.tree.Name),
		obs.Int("pairs", n), obs.Int("shards", int64(nShards)),
		obs.Int("workers", int64(max(opt.Workers, 1))))
	defer span.End()

	// Global accumulator: order-independent aggregates folded as shards
	// complete (for Progress), plus the merged sketch, which comes from
	// the kernel's sketch pool like the shard sketches. The
	// order-dependent exact argmax is folded after Join, in shard order.
	var mu sync.Mutex
	var global struct {
		sketch     *stats.LogSketch
		pairsDone  int64
		shardsDone int
		maxSkew    float64
	}
	global.sketch = k.sketches.Get().(*stats.LogSketch)
	global.sketch.Reset()
	defer k.sketches.Put(global.sketch)

	results := runner.MapChunks(ctx, opt.Workers, nShards, 1, func(ctx context.Context, s, _ int) (shardAgg, error) {
		if err := ctx.Err(); err != nil {
			return shardAgg{}, err
		}
		lo := int64(s) * shardSize
		hi := min(lo+shardSize, n)
		_, shardSpan := obs.Start(ctx, "skew.stream_shard",
			obs.Int("lo", lo), obs.Int("hi", hi))
		sketch := k.sketches.Get().(*stats.LogSketch)
		sketch.Reset()
		agg := k.processShard(model, lb, lo, hi, sketch)
		mu.Lock()
		global.sketch.Merge(sketch)
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
		k.sketches.Put(sketch)
		shardSpan.Annotate(obs.Float("max_skew", agg.maxSkew))
		shardSpan.End()
		return agg, nil
	})
	if err := runner.Join(results); err != nil {
		return StreamAnalysis{}, err
	}
	// Exact fold: ascending shard order with strictly-greater updates
	// replays the single ascending scan, so the argmax pair — the first
	// to attain the maximum — matches bit for bit.
	var total shardAgg
	for _, r := range results {
		total.merge(r.Value)
	}
	out.Analysis = total.analysis(model, k)
	out.GuaranteedMinSkew = total.maxLB
	qs := global.sketch.Quantiles(0.50, 0.90, 0.99)
	out.P50, out.P90, out.P99 = qs[0], qs[1], qs[2]

	if opt.MCTrials > 0 {
		est, err := k.SampledMax(ctx, model, opt.MCTrials, opt.MCSampleCap, opt.Seed, out.MaxSkew)
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
func (k *Kernel) SampledMax(ctx context.Context, model Model, trials int, sampleCap, seed int64, exact float64) (SampledMaxEstimate, error) {
	n := k.ix.NumPairs()
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
			a, b := k.ix.Pair(i)
			na, _ := k.tree.CellNode(a)
			nb, _ := k.tree.CellNode(b)
			if sk := model.Bound(k.tree.DiffDist(na, nb), k.tree.PathLen(na, nb)); sk > worst {
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
