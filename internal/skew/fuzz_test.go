package skew

// Native fuzz target for the Section III analysis pipeline: arbitrary
// (size, topology, model-parameter) triples must always produce a
// finite, internally consistent Analysis — the guaranteed lower bound
// never exceeds the worst-case upper bound, and the Monte-Carlo
// physical experiment never escapes the analytical bound. Seed corpus
// lives in testdata/fuzz/; CI runs the target briefly as a smoke test.

import (
	"context"
	"errors"
	"math"
	"testing"

	"repro/internal/clocktree"
	"repro/internal/comm"
	"repro/internal/stats"
)

// FuzzAnalyze drives Analyze, GuaranteedMinSkew, and MonteCarlo over
// fuzzer-chosen array sizes, clock-tree shapes, and linear-model
// parameters (sanitized into the model's valid region 0 ≤ Eps ≤ M).
func FuzzAnalyze(f *testing.F) {
	f.Add(uint8(1), uint8(0), 1.0, 0.2)  // single cell under a spine
	f.Add(uint8(8), uint8(1), 1.0, 1.0)  // Eps == M boundary, H-tree
	f.Add(uint8(12), uint8(2), 0.5, 0.0) // Eps == 0: pure difference model
	f.Add(uint8(3), uint8(0), 0.0, 0.0)  // zero-delay wires: every bound 0
	f.Fuzz(func(t *testing.T, n, kind uint8, m, eps float64) {
		if math.IsNaN(m) || math.IsInf(m, 0) || math.IsNaN(eps) || math.IsInf(eps, 0) {
			t.Skip("non-finite model parameters")
		}
		model := Linear{M: math.Abs(math.Mod(m, 16)), Eps: math.Abs(math.Mod(eps, 16))}
		if model.Eps > model.M {
			model.M, model.Eps = model.Eps, model.M
		}
		g, err := comm.Bidirectional(int(n%24) + 1)
		if err != nil {
			t.Fatalf("building array: %v", err)
		}
		var tree *clocktree.Tree
		switch kind % 3 {
		case 0:
			tree, err = clocktree.Spine(g)
		case 1:
			tree, err = clocktree.HTree(g)
		default:
			tree, err = clocktree.Serpentine(g)
		}
		if err != nil {
			t.Fatalf("building tree: %v", err)
		}
		an, err := Analyze(g, tree, model)
		if err != nil {
			t.Fatalf("Analyze: %v", err)
		}
		if an.MaxSkew < 0 || math.IsNaN(an.MaxSkew) || math.IsInf(an.MaxSkew, 0) {
			t.Fatalf("MaxSkew %g not finite and non-negative", an.MaxSkew)
		}
		if an.MaxD < 0 || an.MaxS < 0 || an.MaxD > an.MaxS+1e-9 {
			t.Fatalf("distance summary inconsistent: MaxD=%g MaxS=%g", an.MaxD, an.MaxS)
		}
		if lo := GuaranteedMinSkew(g, tree, model); lo > an.MaxSkew+1e-9 {
			t.Fatalf("guaranteed skew %g exceeds worst-case bound %g", lo, an.MaxSkew)
		}
		mc, err := MonteCarlo(g, tree, model, 5, stats.NewRNG(1))
		if err != nil {
			t.Fatalf("MonteCarlo: %v", err)
		}
		if mc > an.MaxSkew+1e-9 {
			t.Fatalf("Monte-Carlo skew %g escapes the analytical bound %g", mc, an.MaxSkew)
		}
	})
}

// FuzzStreamedAnalyze drives both tiers and the streamed scan against
// the resident kernel over fuzzer-chosen array sizes, clock-tree shapes,
// shard sizes, and worker counts. The streamed tier and Stream share no
// arrays with the resident kernel, only the pair order, so agreement
// must be bit for bit: any divergence in the fold, the CSR iteration, or
// the sketch merge surfaces here. Seed corpus lives in testdata/fuzz/;
// CI runs the target briefly as a smoke test.
func FuzzStreamedAnalyze(f *testing.F) {
	f.Add(uint8(8), uint8(1), uint16(7), uint8(2), 1.0, 0.5)     // H-tree mesh, tiny shards, 2 workers
	f.Add(uint8(1), uint8(0), uint16(1), uint8(1), 1.0, 0.2)     // single cell: zero pairs, zero shards
	f.Add(uint8(16), uint8(2), uint16(1024), uint8(4), 2.0, 2.0) // one shard covers everything, Eps == M
	f.Add(uint8(5), uint8(0), uint16(3), uint8(3), 0.0, 0.0)     // zero-delay wires: every statistic 0
	f.Fuzz(func(t *testing.T, n, kind uint8, shard uint16, workers uint8, m, eps float64) {
		if math.IsNaN(m) || math.IsInf(m, 0) || math.IsNaN(eps) || math.IsInf(eps, 0) {
			t.Skip("non-finite model parameters")
		}
		model := Linear{M: math.Abs(math.Mod(m, 16)), Eps: math.Abs(math.Mod(eps, 16))}
		if model.Eps > model.M {
			model.M, model.Eps = model.Eps, model.M
		}
		side := int(n%12) + 1
		g, err := comm.Mesh(side, side)
		if err != nil {
			t.Fatalf("building array: %v", err)
		}
		var tree *clocktree.Tree
		switch kind % 3 {
		case 0:
			tree, err = clocktree.Spine(g)
		case 1:
			tree, err = clocktree.HTree(g)
		default:
			tree, err = clocktree.Serpentine(g)
		}
		if err != nil {
			t.Fatalf("building tree: %v", err)
		}
		want, err := Analyze(g, tree, model)
		if err != nil {
			t.Fatalf("Analyze: %v", err)
		}
		st, err := NewKernelWithLimits(g, tree, Limits{MaxBytes: 1})
		if err != nil {
			t.Fatalf("NewKernelWithLimits: %v", err)
		}
		if st.SizeError() == nil {
			t.Fatal("a one-byte budget built a resident kernel")
		}
		if an := st.Analyze(model); an != want {
			t.Fatalf("streamed tier %+v != resident %+v", an, want)
		}
		if gm, sgm := GuaranteedMinSkew(g, tree, model), st.GuaranteedMinSkew(model); sgm != gm {
			t.Fatalf("streamed-tier guaranteed min %g != resident %g", sgm, gm)
		}
		var se *SizeError
		if _, err := st.MonteCarlo(model, 2, stats.NewRNG(1)); !errors.As(err, &se) {
			t.Fatalf("streamed-tier MonteCarlo returned %v, want *SizeError", err)
		}
		opt := StreamOptions{
			ShardSize: int64(shard%2048) + 1,
			Workers:   int(workers%4) + 1,
		}
		got, err := st.Stream(context.Background(), model, opt)
		if err != nil {
			t.Fatalf("streamed Analyze: %v", err)
		}
		if got.Analysis != want {
			t.Fatalf("shard=%d workers=%d: streamed %+v != kernel %+v", opt.ShardSize, opt.Workers, got.Analysis, want)
		}
		if gm := GuaranteedMinSkew(g, tree, model); got.GuaranteedMinSkew != gm {
			t.Fatalf("streamed guaranteed min %g != kernel %g", got.GuaranteedMinSkew, gm)
		}
		if got.P50 > got.P90 || got.P90 > got.P99 {
			t.Fatalf("quantiles not monotone: p50=%g p90=%g p99=%g", got.P50, got.P90, got.P99)
		}
		if got.P99 > want.MaxSkew*(1+got.QuantileRelError)+1e-9 {
			t.Fatalf("p99 %g escapes exact max %g beyond rel error %g", got.P99, want.MaxSkew, got.QuantileRelError)
		}
	})
}
