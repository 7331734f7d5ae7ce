// The streamed analysis path: when a kernel build is rejected for size
// (413 array_too_large), /v1/analyze and analyze jobs transparently fall
// back to skew.Streamer — exact max-skew statistics in bounded memory —
// unless the operator opted out. The response marks the fallback with a
// machine-readable "streamed": true plus sampling metadata, so clients
// can tell an exact-but-sketch-quantile streamed answer from a kernel
// one. Cluster mode can additionally spill shards to peers over
// POST /v1/cluster/shard.
package service

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"

	"repro/internal/comm"
	"repro/internal/obs"
	"repro/internal/skew"
)

// streamerFor returns the cached skew.Streamer for id's tree recipe
// over the request's graph, building graph, tree and streamer on a miss.
// A hit adopts the streamer's graph as the request's.
func (s *Server) streamerFor(id engineIdentity, lg *lazyGraph) (*skew.Streamer, error) {
	st, err := s.streamers.get(id, func() (*skew.Streamer, error) {
		g, err := lg.get()
		if err != nil {
			return nil, err
		}
		t, err := buildTree(id.Tree, g, id.Equalize, id.Spacing)
		if err != nil {
			return nil, err
		}
		st, err := skew.NewStreamer(g, t)
		if err != nil {
			return nil, unprocessable(err)
		}
		return st, nil
	})
	if err != nil {
		return nil, err
	}
	lg.adopt(st.Graph())
	return st, nil
}

// streamOptions assembles the server-side StreamOptions for one
// streamed analysis: configured shard size, the request fan-out worker
// budget, the request's Monte-Carlo sampling parameters, and — in
// cluster mode with peer shards enabled — the spill hook.
func (s *Server) streamOptions(treeName string, req *AnalyzeRequest, progress func(skew.StreamPartial)) skew.StreamOptions {
	opt := skew.StreamOptions{
		ShardSize: s.cfg.StreamShardSize,
		Workers:   s.cfg.Workers,
		MCTrials:  req.MonteCarloTrials,
		Seed:      req.Seed,
		Progress:  progress,
	}
	if s.cluster != nil && s.cfg.StreamPeerShards {
		opt.ShardFn = s.peerShardFn(treeName, req)
	}
	return opt
}

// streamedTreeAnalysis runs one candidate tree's analysis over the
// streamed path and reports it in TreeAnalysis form, marked with the
// streamed metadata. It is the 413 fallback: callers reach it only
// after kernelFor rejected the pair count for size.
func (s *Server) streamedTreeAnalysis(ctx context.Context, lg *lazyGraph, treeName string, req *AnalyzeRequest, model skew.Model, progress func(skew.StreamPartial)) (TreeAnalysis, error) {
	out := TreeAnalysis{Tree: treeName, Streamed: true}
	st, err := s.streamerFor(req.engineID(treeName), lg)
	if err != nil {
		// Same inline-vs-typed split as the kernel path: a builder that
		// does not apply reports inline; typed statuses propagate.
		var he *httpError
		if errors.As(err, &he) && he.status >= 500 {
			return out, err
		}
		out.Error = err.Error()
		return out, nil
	}
	s.metrics.streamedFallbacks.Add(1)
	res, err := st.Analyze(ctx, model, s.streamOptions(treeName, req, progress))
	if err != nil {
		return out, err
	}
	s.metrics.streamedShards.Add(int64(res.Shards))
	tree := st.Tree()
	out.Nodes = tree.NumNodes()
	out.Buffers = tree.BufferCount()
	out.TotalWireLength = tree.TotalWireLength()
	out.MaxSkew = res.MaxSkew
	out.WorstPair = [2]int{int(res.WorstPair.A), int(res.WorstPair.B)}
	out.MaxD, out.MaxS = res.MaxD, res.MaxS
	out.Pairs = res.Pairs
	out.GuaranteedMinSkew = res.GuaranteedMinSkew
	out.StreamShards = res.Shards
	out.StreamShardSize = res.ShardSize
	out.SkewP50, out.SkewP90, out.SkewP99 = res.P50, res.P90, res.P99
	out.QuantileRelError = res.QuantileRelError
	out.Sampled = res.Sampled
	if g := st.Graph(); req.CertifiedLowerBound && g.Kind() == comm.KindMesh {
		cert, err := skew.MeshCertifiedLowerBound(g, tree, req.Model.Eps)
		if err != nil {
			out.Error = err.Error()
		} else {
			out.CertifiedLowerBound = cert.Bound
		}
	}
	return out, nil
}

// ------------------------------------------------------- cluster spill

// shardRequest is the body of POST /v1/cluster/shard: one shard of a
// streamed analysis computed on behalf of a peer. The graph and tree
// recipe identify the (cached) streamer; [lo, hi) names the pair block.
type shardRequest struct {
	GraphInput
	Tree     string    `json:"tree"`
	Equalize bool      `json:"equalize,omitempty"`
	Spacing  float64   `json:"spacing,omitempty"`
	Model    ModelSpec `json:"model"`
	Lo       int64     `json:"lo"`
	Hi       int64     `json:"hi"`
}

// handleClusterShard serves one shard's exact statistics. Peers call it
// to spill streamed-shard work across the ring; the response is a
// skew.ShardStats document whose sketch merges bit-identically into the
// caller's fold.
func (s *Server) handleClusterShard(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		w.Header().Set("Allow", http.MethodPost)
		writeError(w, http.StatusMethodNotAllowed, "method not allowed; use POST", ReasonMethodNotAllowed)
		return
	}
	_, span := obs.Start(r.Context(), "serve.cluster_shard",
		obs.String("request_id", requestIDFrom(r.Context())))
	defer span.End()
	var req shardRequest
	if err := json.NewDecoder(http.MaxBytesReader(w, r.Body, s.cfg.MaxBodyBytes)).Decode(&req); err != nil {
		writeError(w, http.StatusBadRequest, fmt.Sprintf("decoding shard request: %v", err), ReasonBadRequest)
		return
	}
	req.Model.applyDefaults()
	lg := &lazyGraph{in: req.GraphInput}
	model, err := req.Model.build()
	if err != nil {
		err = lg.failWith(err)
		writeError(w, statusOf(err), err.Error(), reasonOf(err))
		return
	}
	if req.Tree == "" {
		req.Tree = "htree"
	}
	st, err := s.streamerFor(engineIdentity{Input: req.GraphInput, Tree: req.Tree, Equalize: req.Equalize, Spacing: req.Spacing}, lg)
	if err != nil {
		writeError(w, statusOf(err), err.Error(), reasonOf(err))
		return
	}
	ss, err := st.ShardStats(model, req.Lo, req.Hi)
	if err != nil {
		writeError(w, http.StatusBadRequest, err.Error(), ReasonBadRequest)
		return
	}
	span.Annotate(obs.Int("lo", req.Lo), obs.Int("hi", req.Hi))
	s.metrics.streamedShards.Add(1)
	b, err := json.Marshal(ss)
	if err != nil {
		writeError(w, http.StatusInternalServerError, err.Error(), ReasonInternal)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.Write(append(b, '\n'))
}

// peerShardFn returns the StreamOptions.ShardFn that spills shards to
// their ring owners: each shard routes by (engine route key, shard
// index), shards owned by this node — or whose owner is down, or whose
// call fails — return false and compute locally. Best-effort by design:
// spill never changes results, only where the arithmetic runs.
func (s *Server) peerShardFn(treeName string, req *AnalyzeRequest) func(ctx context.Context, lo, hi int64) (skew.ShardStats, bool) {
	body := shardRequest{
		GraphInput: req.GraphInput,
		Tree:       treeName, Equalize: req.Equalize, Spacing: req.BufferSpacing,
		Model: req.Model,
	}
	base, ok := req.engineID(treeName).routeKey()
	if !ok {
		return nil
	}
	return func(ctx context.Context, lo, hi int64) (skew.ShardStats, bool) {
		owner := s.cluster.ring.Owner(fmt.Sprintf("%s/shard/%d", base, lo))
		if owner == s.cluster.self || !s.cluster.health.Alive(owner) {
			return skew.ShardStats{}, false
		}
		// Shard workers call this concurrently: each marshals its own
		// copy of the request body.
		shard := body
		shard.Lo, shard.Hi = lo, hi
		raw, err := json.Marshal(shard)
		if err != nil {
			return skew.ShardStats{}, false
		}
		hreq, err := http.NewRequestWithContext(ctx, http.MethodPost, owner+"/v1/cluster/shard", bytes.NewReader(raw))
		if err != nil {
			return skew.ShardStats{}, false
		}
		hreq.Header.Set("Content-Type", "application/json")
		if sc := obs.SpanContextOf(ctx); sc.Valid() {
			hreq.Header.Set(obs.TraceHeader, sc.String())
		}
		resp, err := s.cluster.client.Do(hreq)
		if err != nil {
			return skew.ShardStats{}, false
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			return skew.ShardStats{}, false
		}
		var ss skew.ShardStats
		if err := json.NewDecoder(resp.Body).Decode(&ss); err != nil {
			return skew.ShardStats{}, false
		}
		if ss.Lo != lo || ss.Hi != hi || ss.Sketch == nil {
			return skew.ShardStats{}, false
		}
		s.metrics.streamedSpills.Add(1)
		return ss, true
	}
}

// kernelBytesInUse estimates the resident bytes of every cached engine
// precomputation on the skew path — kernels (24 B/pair class) and
// streamers, each with the clock tree it retains; the graphs and their
// shared pair indexes are not charged — the gauge operators watch
// against the configured kernel byte budget.
func (s *Server) kernelBytesInUse() int64 {
	var total int64
	for _, e := range s.kernels.Entries() {
		total += e.Val.FootprintBytes()
	}
	for _, e := range s.streamers.Entries() {
		total += e.Val.FootprintBytes()
	}
	return total
}
