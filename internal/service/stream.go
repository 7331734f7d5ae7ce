// The streamed analysis path: when an array exceeds the server's kernel
// size limits, the cached skew kernel is on its streamed tier, and
// /v1/analyze and analyze jobs answer from its sharded scan — exact
// max-skew statistics in bounded memory. The response marks such an
// answer with a machine-readable "streamed": true plus sampling
// metadata, so clients can tell an exact-but-sketch-quantile streamed
// answer from a resident one.
package service

import (
	"context"

	"repro/internal/skew"
)

// streamedAnalysis runs one candidate tree's analysis over k, a
// streamed-tier kernel: it fills out's streamed metadata, Monte-Carlo
// estimate and guaranteed minimum skew, and returns the exact analysis.
func (s *Server) streamedAnalysis(ctx context.Context, k *skew.Kernel, req *AnalyzeRequest, model skew.Model, progress func(skew.StreamPartial), out *TreeAnalysis) (skew.Analysis, error) {
	s.metrics.streamedFallbacks.Add(1)
	res, err := k.Stream(ctx, model, skew.StreamOptions{
		Workers:  s.cfg.Workers,
		MCTrials: req.MonteCarloTrials,
		Seed:     req.Seed,
		Progress: progress,
	})
	if err != nil {
		return skew.Analysis{}, err
	}
	s.metrics.streamedShards.Add(int64(res.Shards))
	out.Streamed = true
	out.GuaranteedMinSkew = res.GuaranteedMinSkew
	out.StreamShards = res.Shards
	out.ShardSize = res.ShardSize
	out.SkewP50, out.SkewP90, out.SkewP99 = res.P50, res.P90, res.P99
	out.QuantileRelError = res.QuantileRelError
	out.Sampled = res.Sampled
	return res.Analysis, nil
}

// kernelBytesInUse estimates the resident bytes of every cached skew
// kernel — the resident tier's 16 B/pair class and every kernel's clock
// tree; the graphs and their shared pair indexes are not charged — the
// gauge operators watch against the configured kernel byte budget.
func (s *Server) kernelBytesInUse() int64 {
	var total int64
	for _, e := range s.kernels.Entries() {
		total += e.Val.FootprintBytes()
	}
	return total
}
