// Request and response schemas for the four v1 endpoints, and the
// computations behind them. Every compute is a pure function of its
// decoded request (all randomness is seeded from request fields), which
// is what makes content-addressed caching and request coalescing sound.
package service

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"slices"
	"sort"
	"strings"
	"sync"
	"time"

	"repro/internal/clocktree"
	"repro/internal/comm"
	"repro/internal/core"
	"repro/internal/faults"
	"repro/internal/hybrid"
	"repro/internal/obs"
	"repro/internal/runner"
	"repro/internal/skew"
	"repro/internal/stats"
	"repro/internal/viz"
)

// httpError carries a status code chosen by the compute layer, and
// optionally a machine-readable reason token exposed alongside the
// human-readable message in the error body.
type httpError struct {
	status int
	msg    string
	reason string
}

func (e *httpError) Error() string { return e.msg }

func badRequest(format string, args ...any) error {
	return &httpError{status: 400, msg: fmt.Sprintf(format, args...), reason: ReasonBadRequest}
}

func unprocessable(err error) error {
	return &httpError{status: 422, msg: err.Error(), reason: ReasonUnprocessable}
}

// tooLarge maps a skew.SizeError onto the wire: 413 with the
// machine-readable reason "array_too_large", so clients can
// distinguish "shrink your array or raise the server's limits" from
// an ordinary malformed request.
func tooLarge(err error) error {
	return &httpError{status: http.StatusRequestEntityTooLarge, msg: err.Error(), reason: ReasonArrayTooLarge}
}

// TopologySpec names a standard topology to construct server-side, as an
// alternative to posting a full graph.
type TopologySpec struct {
	Kind string `json:"kind"`
	N    int    `json:"n,omitempty"`
	Rows int    `json:"rows,omitempty"`
	Cols int    `json:"cols,omitempty"`
}

// GraphInput is the polymorphic graph field of every request: either a
// topology spec (built server-side via comm.Build) or a full inline
// graph in the comm interchange format (validated on decode).
type GraphInput struct {
	Topology *TopologySpec `json:"topology,omitempty"`
	Graph    *comm.Graph   `json:"graph,omitempty"`
}

func (in GraphInput) build() (*comm.Graph, error) {
	switch {
	case in.Topology != nil && in.Graph != nil:
		return nil, badRequest("give exactly one of topology and graph, not both")
	case in.Topology != nil:
		g, err := comm.Build(in.Topology.Kind, in.Topology.N, in.Topology.Rows, in.Topology.Cols)
		if err != nil {
			return nil, badRequest("%v", err)
		}
		return g, nil
	case in.Graph != nil:
		return in.Graph, nil
	}
	return nil, badRequest("request needs a topology or a graph")
}

// lazyGraph is one request's graph, built from its input at most once
// and only when something needs it: an engine-cache miss (inside the
// cache's build closure) or an answer no engine supplied. An engine hit adopts the engine's own graph instead —
// engines are keyed by the same input, so it is the graph the input
// describes — which keeps a warm request free of O(cells) work.
type lazyGraph struct {
	in   GraphInput
	once sync.Once
	g    *comm.Graph
	err  error
}

// get returns the request's graph, building it on first use.
func (l *lazyGraph) get() (*comm.Graph, error) {
	l.once.Do(func() { l.g, l.err = l.in.build() })
	return l.g, l.err
}

// adopt makes g, an engine's graph, the request's graph unless one has
// been built already.
func (l *lazyGraph) adopt(g *comm.Graph) { l.once.Do(func() { l.g = g }) }

// failWith returns the error a request that fails with err answers: the
// graph's own error if the graph cannot be built — a bad graph fails a
// request before any other check, as it always has — and err otherwise.
// Only error paths call it, so a warm hit never builds the graph here.
func (l *lazyGraph) failWith(err error) error {
	if _, gerr := l.get(); gerr != nil {
		return gerr
	}
	return err
}

// treeBuilders maps builder names accepted by the API to constructions.
var treeBuilders = map[string]func(*comm.Graph) (*clocktree.Tree, error){
	"htree":      clocktree.HTree,
	"spine":      clocktree.Spine,
	"ladder":     clocktree.Ladder,
	"serpentine": clocktree.Serpentine,
	"comm":       clocktree.AlongCommTree,
}

func treeBuilderNames() []string {
	names := make([]string, 0, len(treeBuilders))
	for n := range treeBuilders {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// buildTree constructs, optionally equalizes, and optionally buffers one
// named clock tree over g.
func buildTree(name string, g *comm.Graph, equalize bool, spacing float64) (*clocktree.Tree, error) {
	build, ok := treeBuilders[name]
	if !ok {
		return nil, badRequest("unknown tree builder %q (want one of %s)", name, strings.Join(treeBuilderNames(), ", "))
	}
	t, err := build(g)
	if err != nil {
		return nil, unprocessable(err)
	}
	if equalize {
		if _, err := t.Equalize(); err != nil {
			return nil, unprocessable(err)
		}
	}
	if spacing > 0 {
		t, err = clocktree.Buffered(t, spacing)
		if err != nil {
			return nil, unprocessable(err)
		}
	}
	return t, nil
}

// kernelFor returns the cached skew kernel for id's tree recipe over the
// request's graph, building graph, tree and kernel on a miss: resident
// within the server's kernel limits, streamed past them. A hit builds
// nothing and adopts the kernel's graph as the request's.
func (s *Server) kernelFor(id engineIdentity, lg *lazyGraph) (*skew.Kernel, error) {
	k, err := s.kernels.get(id, func() (*skew.Kernel, error) {
		g, err := lg.get()
		if err != nil {
			return nil, err
		}
		t, err := buildTree(id.Tree, g, id.Equalize, id.Spacing)
		if err != nil {
			return nil, err
		}
		k, err := skew.NewKernelWithLimits(g, t, s.cfg.KernelLimits)
		if err != nil {
			return nil, unprocessable(err)
		}
		return k, nil
	})
	if err != nil {
		return nil, err
	}
	lg.adopt(k.Graph())
	return k, nil
}

// hybridSystemFor returns a hybrid system for the request's graph and
// cfg over the cached partition and recurrence kernel for id's element
// size, the only config field they depend on; WithConfig layers cfg's
// timing parameters on per request. cfg is validated first, so a build
// shared with concurrent requests can fail only for reasons of the
// graph and the element size, never for one request's timing
// parameters. Only a miss builds the graph; a hit adopts the system's.
func (s *Server) hybridSystemFor(id engineIdentity, lg *lazyGraph, cfg hybrid.Config) (*hybrid.System, error) {
	if err := cfg.Validate(); err != nil {
		return nil, unprocessable(err)
	}
	base, err := s.hybridSystems.get(id, func() (*hybrid.System, error) {
		g, err := lg.get()
		if err != nil {
			return nil, err
		}
		sys, err := hybrid.New(g, cfg)
		if err != nil {
			return nil, unprocessable(err)
		}
		return sys, nil
	})
	if err != nil {
		return nil, err
	}
	lg.adopt(base.Graph())
	sys, err := base.WithConfig(cfg)
	if err != nil {
		return nil, unprocessable(err)
	}
	return sys, nil
}

// ---------------------------------------------------------------- plan

// PlanRequest mirrors cmd/planner's flags. Zero-valued physical
// parameters take the planner CLI's defaults, applied before
// canonicalization so spelled-out defaults and omitted fields share one
// cache entry.
type PlanRequest struct {
	GraphInput
	Model             string  `json:"model"`
	M                 float64 `json:"m"`
	Eps               float64 `json:"eps"`
	Delta             float64 `json:"delta"`
	BufferSpacing     float64 `json:"buffer_spacing"`
	Alpha             float64 `json:"alpha,omitempty"`
	Handshake         float64 `json:"handshake,omitempty"`
	LocalDistribution float64 `json:"local_distribution,omitempty"`
	ElementSize       float64 `json:"element_size,omitempty"`
	TimeoutMS         int64   `json:"timeout_ms,omitempty"`
}

func (req *PlanRequest) applyDefaults() {
	if req.Model == "" {
		req.Model = string(core.SummationModel)
	}
	if req.M == 0 {
		req.M = 1
	}
	if req.Eps == 0 {
		req.Eps = 0.1
	}
	if req.Delta == 0 {
		req.Delta = 2
	}
	if req.BufferSpacing == 0 {
		req.BufferSpacing = 1
	}
	if req.Alpha == 0 && core.ModelKind(req.Model) == core.NoPipelining {
		req.Alpha = 1
	}
}

// Assumptions converts the request's physical parameters to the
// planner's input form.
func (req *PlanRequest) Assumptions() core.Assumptions {
	return core.Assumptions{
		Model:             core.ModelKind(req.Model),
		M:                 req.M,
		Eps:               req.Eps,
		Delta:             req.Delta,
		BufferSpacing:     req.BufferSpacing,
		Alpha:             req.Alpha,
		Handshake:         req.Handshake,
		LocalDistribution: req.LocalDistribution,
		ElementSize:       req.ElementSize,
	}
}

func (s *Server) computePlan(ctx context.Context, req *PlanRequest) (response, error) {
	g, err := req.build()
	if err != nil {
		return response{}, err
	}
	plan, err := core.NewPlan(g, req.Assumptions())
	if err != nil {
		return response{}, unprocessable(err)
	}
	if err := ctx.Err(); err != nil {
		return response{}, err
	}
	var buf bytes.Buffer
	if err := EncodePlan(&buf, plan); err != nil {
		return response{}, err
	}
	return jsonResponse(buf.Bytes()), nil
}

// ------------------------------------------------------------- analyze

// ModelSpec selects a skew model for analysis.
type ModelSpec struct {
	Kind string  `json:"kind"`
	M    float64 `json:"m,omitempty"`
	Eps  float64 `json:"eps,omitempty"`
}

func (m *ModelSpec) applyDefaults() {
	if m.Kind == "" {
		m.Kind = "linear"
	}
	if m.M == 0 {
		m.M = 1
	}
	if m.Eps == 0 {
		m.Eps = 0.1
	}
}

func (m ModelSpec) build() (skew.Model, error) {
	switch m.Kind {
	case "difference":
		return skew.Difference{F: func(d float64) float64 { return m.M * d }}, nil
	case "summation":
		return skew.Summation{G: func(s float64) float64 { return m.Eps * s }, Beta: m.Eps}, nil
	case "linear":
		return skew.Linear{M: m.M, Eps: m.Eps}, nil
	}
	return nil, badRequest("unknown skew model %q (want difference, summation, or linear)", m.Kind)
}

// AnalyzeRequest evaluates one skew model over a set of candidate clock
// trees for a graph, optionally with Monte-Carlo simulation and the
// Section V-B certified mesh lower bound.
type AnalyzeRequest struct {
	GraphInput
	Trees               []string  `json:"trees"`
	Equalize            bool      `json:"equalize,omitempty"`
	BufferSpacing       float64   `json:"buffer_spacing,omitempty"`
	Model               ModelSpec `json:"model"`
	MonteCarloTrials    int       `json:"montecarlo_trials,omitempty"`
	Seed                int64     `json:"seed,omitempty"`
	CertifiedLowerBound bool      `json:"certified_lower_bound,omitempty"`
	TimeoutMS           int64     `json:"timeout_ms,omitempty"`
}

func (req *AnalyzeRequest) applyDefaults() {
	if len(req.Trees) == 0 {
		req.Trees = []string{"htree"}
	}
	req.Model.applyDefaults()
	if req.Seed == 0 {
		req.Seed = 1
	}
}

// engineID is the identity of tree's engines for this request.
func (req *AnalyzeRequest) engineID(tree string) engineIdentity {
	return engineIdentity{Input: req.GraphInput, Tree: tree, Equalize: req.Equalize, Spacing: req.BufferSpacing}
}

// affinityKey routes an analyze request on its first tree's engines.
func (req *AnalyzeRequest) affinityKey() (string, bool) {
	if len(req.Trees) == 0 {
		return "", false
	}
	return req.engineID(req.Trees[0]).routeKey()
}

// TreeAnalysis is one candidate tree's analysis. A builder that does not
// apply to the posted graph (e.g. a ladder on a mesh) reports its error
// inline rather than failing the whole request — collect-all, like the
// experiment runner.
type TreeAnalysis struct {
	Tree                string  `json:"tree"`
	Error               string  `json:"error,omitempty"`
	Nodes               int     `json:"nodes,omitempty"`
	Buffers             int     `json:"buffers,omitempty"`
	TotalWireLength     float64 `json:"total_wire_length,omitempty"`
	MaxSkew             float64 `json:"max_skew,omitempty"`
	WorstPair           [2]int  `json:"worst_pair,omitempty"`
	MaxD                float64 `json:"max_d,omitempty"`
	MaxS                float64 `json:"max_s,omitempty"`
	Pairs               int     `json:"pairs,omitempty"`
	GuaranteedMinSkew   float64 `json:"guaranteed_min_skew,omitempty"`
	MonteCarloMaxSkew   float64 `json:"montecarlo_max_skew,omitempty"`
	CertifiedLowerBound float64 `json:"certified_lower_bound,omitempty"`

	// Streamed marks a result served by the kernel's bounded-memory
	// streamed tier instead of its resident tier — the machine-readable
	// signal that the array exceeded the server's kernel size limits.
	// MaxSkew, WorstPair, MaxD/MaxS, and GuaranteedMinSkew are still
	// exact (bit-identical to what a resident kernel reports); the skew
	// quantiles come from a mergeable sketch with the stated relative
	// error, and Monte-Carlo trials become a sampled-max estimate with a
	// confidence interval rather than MonteCarloMaxSkew.
	Streamed         bool                     `json:"streamed,omitempty"`
	StreamShards     int                      `json:"stream_shards,omitempty"`
	ShardSize        int64                    `json:"stream_shard_size,omitempty"`
	SkewP50          float64                  `json:"skew_p50,omitempty"`
	SkewP90          float64                  `json:"skew_p90,omitempty"`
	SkewP99          float64                  `json:"skew_p99,omitempty"`
	QuantileRelError float64                  `json:"quantile_rel_error,omitempty"`
	Sampled          *skew.SampledMaxEstimate `json:"sampled,omitempty"`
}

// AnalyzeResponse is the analyze endpoint's body.
type AnalyzeResponse struct {
	Graph   string         `json:"graph"`
	Cells   int            `json:"cells"`
	Model   string         `json:"model"`
	Results []TreeAnalysis `json:"results"`
}

func (s *Server) computeAnalyze(ctx context.Context, req *AnalyzeRequest) (response, error) {
	return s.analyze(ctx, req, nil)
}

// validate checks req's model, trial count and, when it runs Monte
// Carlo, the linear delay band the trials draw from, and returns the
// model.
func (req *AnalyzeRequest) validate() (skew.Model, error) {
	model, err := req.Model.build()
	if err != nil {
		return nil, err
	}
	if req.MonteCarloTrials < 0 || req.MonteCarloTrials > 1<<20 {
		return nil, badRequest("montecarlo_trials must be in [0, %d], got %d", 1<<20, req.MonteCarloTrials)
	}
	if req.MonteCarloTrials > 0 {
		if err := req.band().Validate(); err != nil {
			return nil, unprocessable(err)
		}
	}
	return model, nil
}

// band is the delay band [M−ε, M+ε] req's Monte-Carlo trials draw from.
func (req *AnalyzeRequest) band() skew.Linear {
	return skew.Linear{M: req.Model.M, Eps: req.Model.Eps}
}

// analyze is the analysis behind both POST /v1/analyze and analyze
// jobs. Without a progress sink (the endpoint) the candidate trees fan
// out over the worker pool and each tree's Monte-Carlo trials fan out
// again inside MonteCarloParallel. With one (a job) the trees run in
// order, so trials_done strictly increases and each tree's partials
// are contiguous. Both answer the same bytes. The kernel cache means a
// repeat of a (graph, tree) recipe — even under a different model,
// trial count, or seed — skips the graph build, the tree build and the
// pair-geometry precomputation entirely.
func (s *Server) analyze(ctx context.Context, req *AnalyzeRequest, p *analyzeProgress) (response, error) {
	lg := &lazyGraph{in: req.GraphInput}
	model, err := req.validate()
	if err != nil {
		return response{}, lg.failWith(err)
	}
	workers := s.cfg.Workers
	if p != nil {
		workers = 1
	}
	results := runner.Map(ctx, workers, len(req.Trees), func(ctx context.Context, i int) (TreeAnalysis, error) {
		return s.analyzeTree(ctx, lg, req, model, i, p)
	})
	if err := runner.Join(results); err != nil {
		return response{}, lg.failWith(firstTypedError(results, err))
	}
	// An engine's graph when any tree found one; built here only when
	// every tree failed, and then a bad graph fails the whole request.
	g, err := lg.get()
	if err != nil {
		return response{}, err
	}
	return marshalResponse(AnalyzeResponse{Graph: g.Name, Cells: g.NumCells(), Model: model.Name(), Results: runner.Values(results)})
}

// analyzeTree analyzes req's i-th candidate tree on its kernel's tier.
// A builder that does not apply to the graph reports its error inline.
func (s *Server) analyzeTree(ctx context.Context, lg *lazyGraph, req *AnalyzeRequest, model skew.Model, i int, p *analyzeProgress) (TreeAnalysis, error) {
	out := TreeAnalysis{Tree: req.Trees[i]}
	k, err := s.kernelFor(req.engineID(out.Tree), lg)
	if err != nil {
		out.Error = err.Error()
		return out, nil
	}
	tree := k.Tree()
	out.Nodes, out.Buffers, out.TotalWireLength = tree.NumNodes(), tree.BufferCount(), tree.TotalWireLength()
	var a skew.Analysis
	if k.SizeError() != nil {
		// An oversize array's kernel is streamed, and answers exactly
		// in bounded memory.
		a, err = s.streamedAnalysis(ctx, k, req, model, p.streamed(req, i), &out)
	} else {
		a = k.Analyze(model)
		out.GuaranteedMinSkew = k.GuaranteedMinSkew(model)
		switch {
		case req.MonteCarloTrials == 0:
		case p == nil:
			out.MonteCarloMaxSkew, err = k.MonteCarloParallel(ctx, s.cfg.Workers, req.band(), req.MonteCarloTrials, stats.NewRNG(req.Seed))
		default:
			// A job's trials run in chunks, publishing partial quantiles.
			out.MonteCarloMaxSkew, err = s.monteCarloChunks(ctx, k, req, i, p)
		}
	}
	if err != nil {
		return out, err
	}
	out.MaxSkew = a.MaxSkew
	out.WorstPair = [2]int{int(a.WorstPair.A), int(a.WorstPair.B)}
	out.MaxD, out.MaxS, out.Pairs = a.MaxD, a.MaxS, a.Pairs
	if g := k.Graph(); req.CertifiedLowerBound && g.Kind() == comm.KindMesh {
		cert, err := skew.MeshCertifiedLowerBound(g, tree, req.Model.Eps)
		if err != nil {
			out.Error = err.Error()
		} else {
			out.CertifiedLowerBound = cert.Bound
		}
	}
	return out, nil
}

// ------------------------------------------------------------ simulate

// ClockParamsSpec are clocksim.Params (skew.ClockParams) in request form.
type ClockParamsSpec struct {
	M             float64 `json:"m,omitempty"`
	Eps           float64 `json:"eps,omitempty"`
	BufferDelay   float64 `json:"buffer_delay,omitempty"`
	MinSeparation float64 `json:"min_separation,omitempty"`
	RiseFallBias  float64 `json:"rise_fall_bias,omitempty"`
}

// HybridSpec parameterizes a hybrid-synchronization simulation.
type HybridSpec struct {
	ElementSize       float64 `json:"element_size,omitempty"`
	Handshake         float64 `json:"handshake,omitempty"`
	LocalDistribution float64 `json:"local_distribution,omitempty"`
	CellDelay         float64 `json:"cell_delay,omitempty"`
	HoldDelay         float64 `json:"hold_delay,omitempty"`
	Waves             int     `json:"waves,omitempty"`
}

// SimulateConfig is one simulation's parameters, independent of the
// graph: mode, tree recipe, regime, trial count, seed, fault injection,
// and hybrid knobs. A batched simulate carries several of these over
// one topology so the engine precomputation is built once per recipe
// and amortized across the sweep.
type SimulateConfig struct {
	Mode          string          `json:"mode,omitempty"` // "clock" (default) or "hybrid"
	Tree          string          `json:"tree,omitempty"`
	Equalize      bool            `json:"equalize,omitempty"`
	BufferSpacing float64         `json:"buffer_spacing,omitempty"`
	Regime        string          `json:"regime,omitempty"` // nominal | random | jittered | adversarial
	Trials        int             `json:"trials,omitempty"`
	Seed          int64           `json:"seed,omitempty"`
	Pair          *[2]int         `json:"pair,omitempty"` // adversarial target pair
	Params        ClockParamsSpec `json:"params,omitempty"`
	Faults        *faults.Config  `json:"faults,omitempty"`
	Hybrid        *HybridSpec     `json:"hybrid,omitempty"`

	// Topology and Graph are accepted on batch items only so that
	// posting one can be rejected crisply: every config of a batch runs
	// over the request's single topology.
	Topology *TopologySpec `json:"topology,omitempty"`
	Graph    *comm.Graph   `json:"graph,omitempty"`
}

func (c *SimulateConfig) applyDefaults() {
	if c.Mode == "" {
		c.Mode = "clock"
	}
	if c.Tree == "" {
		c.Tree = "htree"
	}
	if c.Regime == "" {
		c.Regime = "nominal"
	}
	if c.Trials == 0 {
		c.Trials = 1
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
	if c.Params.M == 0 {
		c.Params.M = 1
	}
	if c.Mode == "hybrid" {
		if c.Hybrid == nil {
			c.Hybrid = &HybridSpec{}
		}
		h := c.Hybrid
		if h.ElementSize == 0 {
			h.ElementSize = 4
		}
		if h.CellDelay == 0 {
			h.CellDelay = 2
		}
		if h.HoldDelay == 0 {
			h.HoldDelay = h.CellDelay / 4
		}
		if h.Handshake == 0 {
			h.Handshake = h.CellDelay / 2
		}
		if h.Waves == 0 {
			h.Waves = 32
		}
	}
}

// SimulateRequest runs clock-propagation or hybrid-handshake simulation,
// including the fault-injected variants. Two forms share the endpoint:
// the single form, whose simulation fields sit directly on the request,
// and the batch form, which posts configs — N SimulateConfigs evaluated
// over the request's one topology (the single-form simulation fields
// are ignored then). The batch form exists for parameter sweeps: one
// kernel build per (tree recipe) serves every config that shares it.
type SimulateRequest struct {
	GraphInput
	Mode          string           `json:"mode"` // "clock" (default) or "hybrid"
	Tree          string           `json:"tree,omitempty"`
	Equalize      bool             `json:"equalize,omitempty"`
	BufferSpacing float64          `json:"buffer_spacing,omitempty"`
	Regime        string           `json:"regime,omitempty"` // nominal | random | jittered | adversarial
	Trials        int              `json:"trials,omitempty"`
	Seed          int64            `json:"seed,omitempty"`
	Pair          *[2]int          `json:"pair,omitempty"` // adversarial target pair
	Params        ClockParamsSpec  `json:"params"`
	Faults        *faults.Config   `json:"faults,omitempty"`
	Hybrid        *HybridSpec      `json:"hybrid,omitempty"`
	Configs       []SimulateConfig `json:"configs,omitempty"` // batch form
	TimeoutMS     int64            `json:"timeout_ms,omitempty"`
}

// config lifts the single-form simulation fields into a SimulateConfig.
func (req *SimulateRequest) config() SimulateConfig {
	return SimulateConfig{
		Mode: req.Mode, Tree: req.Tree,
		Equalize: req.Equalize, BufferSpacing: req.BufferSpacing,
		Regime: req.Regime, Trials: req.Trials, Seed: req.Seed,
		Pair: req.Pair, Params: req.Params, Faults: req.Faults, Hybrid: req.Hybrid,
	}
}

func (req *SimulateRequest) applyDefaults() {
	if len(req.Configs) > 0 {
		for i := range req.Configs {
			req.Configs[i].applyDefaults()
		}
		return
	}
	c := req.config()
	c.applyDefaults()
	req.Mode, req.Tree, req.Regime = c.Mode, c.Tree, c.Regime
	req.Trials, req.Seed, req.Params, req.Hybrid = c.Trials, c.Seed, c.Params, c.Hybrid
}

// engineID is the identity of the engine c runs on over in: the hybrid
// system for its element size in hybrid mode, otherwise its tree
// recipe's kernels.
func (c *SimulateConfig) engineID(in GraphInput) engineIdentity {
	if c.Mode == "hybrid" {
		return engineIdentity{Input: in, Size: c.Hybrid.ElementSize}
	}
	return engineIdentity{Input: in, Tree: c.Tree, Equalize: c.Equalize, Spacing: c.BufferSpacing}
}

// affinityKey routes a simulate request on its engine. A batch routes on
// its first config's recipe — sweeps share one recipe, so the whole
// batch lands where the engine is.
func (req *SimulateRequest) affinityKey() (string, bool) {
	c := req.config()
	if len(req.Configs) > 0 {
		c = req.Configs[0]
		if c.Topology != nil || c.Graph != nil {
			return "", false
		}
	}
	return c.engineID(req.GraphInput).routeKey()
}

// SummaryJSON is a stats.Summary in response form.
type SummaryJSON struct {
	N    int     `json:"n"`
	Mean float64 `json:"mean"`
	Std  float64 `json:"std"`
	Min  float64 `json:"min"`
	P50  float64 `json:"p50"`
	P90  float64 `json:"p90"`
	P99  float64 `json:"p99"`
	Max  float64 `json:"max"`
}

func summaryJSON(s stats.Summary) *SummaryJSON {
	return &SummaryJSON{N: s.N, Mean: s.Mean, Std: s.Std, Min: s.Min, P50: s.P50, P90: s.P90, P99: s.P99, Max: s.Max}
}

// FaultsJSON reports one representative trial's injected-fault tallies
// (the injector is keyed, so every trial of a request draws the same
// pattern).
type FaultsJSON struct {
	Dropped    int64 `json:"dropped"`
	Delayed    int64 `json:"delayed"`
	Jittered   int64 `json:"jittered"`
	Metastable int64 `json:"metastable"`
}

// HybridSimJSON is the hybrid-mode simulation result.
type HybridSimJSON struct {
	Elements        int     `json:"elements"`
	MaxElementCells int     `json:"max_element_cells"`
	Waves           int     `json:"waves"`
	WaveCost        float64 `json:"wave_cost"`
	CycleTime       float64 `json:"cycle_time"`
	LastWaveSpread  float64 `json:"last_wave_spread"`
	MaxStall        float64 `json:"max_stall,omitempty"`
}

// SimulateResponse is the simulate endpoint's body.
type SimulateResponse struct {
	Graph              string         `json:"graph"`
	Cells              int            `json:"cells"`
	Mode               string         `json:"mode"`
	Tree               string         `json:"tree,omitempty"`
	Regime             string         `json:"regime,omitempty"`
	Trials             int            `json:"trials,omitempty"`
	CommSkew           *SummaryJSON   `json:"comm_skew,omitempty"`
	MaxEventDrift      float64        `json:"max_event_drift,omitempty"`
	MinPipelinedPeriod float64        `json:"min_pipelined_period,omitempty"`
	Hybrid             *HybridSimJSON `json:"hybrid,omitempty"`
	Faults             *FaultsJSON    `json:"faults,omitempty"`
}

// SimulateBatchItem is one config's slot in a batch response: its index
// in the posted configs, and either the simulation result or an inline
// error (collect-all, like analyze's per-tree errors — one bad config
// does not fail the sweep).
type SimulateBatchItem struct {
	Index  int               `json:"index"`
	Error  string            `json:"error,omitempty"`
	Result *SimulateResponse `json:"result,omitempty"`
}

// SimulateBatchResponse is the batch form's body.
type SimulateBatchResponse struct {
	Graph   string              `json:"graph"`
	Cells   int                 `json:"cells"`
	Configs int                 `json:"configs"`
	Results []SimulateBatchItem `json:"results"`
}

func (s *Server) computeSimulate(ctx context.Context, req *SimulateRequest) (response, error) {
	lg := &lazyGraph{in: req.GraphInput}
	if len(req.Configs) > 0 {
		return s.computeSimulateBatch(ctx, lg, req)
	}
	cfg := req.config()
	resp, err := s.simulateOne(ctx, req.GraphInput, lg, &cfg)
	if err != nil {
		return response{}, lg.failWith(err)
	}
	return marshalResponse(resp)
}

// computeSimulateBatch fans the configs out over the worker pool. The
// engine caches make the fan-out cheap: every config sharing a tree
// recipe or element size reuses one engine, built once however the
// fan-out races, so a fresh topology costs one build per recipe for the
// whole sweep.
func (s *Server) computeSimulateBatch(ctx context.Context, lg *lazyGraph, req *SimulateRequest) (response, error) {
	if len(req.Configs) > s.cfg.MaxBatchConfigs {
		return response{}, lg.failWith(badRequest("batch carries %d configs, limit %d", len(req.Configs), s.cfg.MaxBatchConfigs))
	}
	ctx, span := obs.Start(ctx, "simulate.batch", obs.Int("configs", int64(len(req.Configs))))
	defer span.End()
	results := runner.Map(ctx, s.cfg.Workers, len(req.Configs), func(ctx context.Context, i int) (SimulateBatchItem, error) {
		item := SimulateBatchItem{Index: i}
		r, err := s.simulateOne(ctx, req.GraphInput, lg, &req.Configs[i])
		if err != nil {
			// Oversize arrays (413) and expired deadlines fail the whole
			// request with their typed status; anything else is this one
			// config's problem and reports inline.
			var he *httpError
			if errors.As(err, &he) && he.status == http.StatusRequestEntityTooLarge {
				return item, err
			}
			if errors.Is(err, context.DeadlineExceeded) || errors.Is(err, context.Canceled) {
				return item, err
			}
			item.Error = err.Error()
			s.logBatchError(ctx, i, err)
			return item, nil
		}
		item.Result = r
		return item, nil
	})
	if err := runner.Join(results); err != nil {
		return response{}, lg.failWith(firstTypedError(results, err))
	}
	g, err := lg.get()
	if err != nil {
		return response{}, err
	}
	span.Annotate(obs.Int("cells", int64(g.NumCells())))
	resp := SimulateBatchResponse{Graph: g.Name, Cells: g.NumCells(), Configs: len(req.Configs)}
	for _, r := range results {
		resp.Results = append(resp.Results, r.Value)
	}
	return marshalResponse(resp)
}

// logBatchError emits one structured log line per batch config that
// failed inline, carrying the config's index so operators can locate the
// offending config without diffing the 200 response body it is buried in.
func (s *Server) logBatchError(ctx context.Context, index int, err error) {
	if s.logger == nil {
		return
	}
	line, _ := json.Marshal(map[string]any{
		"time":         time.Now().UTC().Format(time.RFC3339Nano),
		"event":        "batch_config_error",
		"request_id":   requestIDFrom(ctx),
		"endpoint":     "simulate",
		"config_index": index,
		"error":        err.Error(),
	})
	s.logger.Println(string(line))
}

// simulateOne evaluates a single config against the request's graph,
// described by in and built lazily by lg. Both the single form and every
// batch item funnel through here.
func (s *Server) simulateOne(ctx context.Context, in GraphInput, lg *lazyGraph, cfg *SimulateConfig) (*SimulateResponse, error) {
	if cfg.Topology != nil || cfg.Graph != nil {
		return nil, badRequest("a batch config carries its own topology or graph; every config runs over the request's topology")
	}
	if cfg.Trials < 1 || cfg.Trials > 1<<16 {
		return nil, badRequest("trials must be in [1, %d], got %d", 1<<16, cfg.Trials)
	}
	if cfg.Faults != nil {
		if err := cfg.Faults.Validate(); err != nil {
			return nil, badRequest("%v", err)
		}
	}
	resp := &SimulateResponse{Mode: cfg.Mode}
	switch cfg.Mode {
	case "hybrid":
		if err := s.simulateHybrid(ctx, cfg.engineID(in), lg, cfg, resp); err != nil {
			return nil, err
		}
	case "clock":
		if err := s.simulateClock(ctx, cfg.engineID(in), lg, cfg, resp); err != nil {
			return nil, err
		}
	default:
		return nil, badRequest("unknown mode %q (want clock or hybrid)", cfg.Mode)
	}
	// The engine's graph, adopted by the lookup: no build here.
	g, err := lg.get()
	if err != nil {
		return nil, err
	}
	resp.Graph, resp.Cells = g.Name, g.NumCells()
	return resp, nil
}

func (s *Server) simulateClock(ctx context.Context, id engineIdentity, lg *lazyGraph, cfg *SimulateConfig, resp *SimulateResponse) error {
	// The recipe's one kernel, shared with analyze, serves every regime,
	// seed, and trial count — across requests via the cache, and across
	// the configs of one batch. A streamed-tier kernel has no per-node
	// arrays to simulate on: its SizeError answers 413.
	k, err := s.kernelFor(id, lg)
	if err != nil {
		return err
	}
	if se := k.SizeError(); se != nil {
		return tooLarge(se)
	}
	g, tree := k.Graph(), k.Tree()
	p := skew.ClockParams{
		M: cfg.Params.M, Eps: cfg.Params.Eps,
		BufferDelay:   cfg.Params.BufferDelay,
		MinSeparation: cfg.Params.MinSeparation,
		RiseFallBias:  cfg.Params.RiseFallBias,
	}
	var pair [2]comm.CellID
	if cfg.Regime == "adversarial" {
		ix := g.PairIndex()
		if ix.NumPairs() == 0 {
			return unprocessable(fmt.Errorf("service: graph %q has no communicating pairs", g.Name))
		}
		pair[0], pair[1] = ix.Pair(0)
		if cfg.Pair != nil {
			pair = [2]comm.CellID{comm.CellID(cfg.Pair[0]), comm.CellID(cfg.Pair[1])}
		}
	}
	var vals []float64
	var jittered int64
	switch cfg.Regime {
	case "nominal", "adversarial":
		// Neither regime draws from a generator, so every trial has the
		// same value: evaluate it once and repeat it.
		if err := ctx.Err(); err != nil {
			return err
		}
		var v float64
		if cfg.Regime == "nominal" {
			v, err = k.NominalSkew(p)
		} else {
			v, err = k.AdversarialSkew(p, pair[0], pair[1])
		}
		if err != nil {
			return unprocessable(err)
		}
		vals = make([]float64, cfg.Trials)
		for i := range vals {
			vals[i] = v
		}
	case "random", "jittered":
		if vals, jittered, err = s.randomClockTrials(ctx, k, p, cfg); err != nil {
			return err
		}
	default:
		return badRequest("unknown regime %q (want nominal, random, jittered, or adversarial)", cfg.Regime)
	}
	summary := stats.Summarize(vals)
	resp.Tree = tree.Name
	resp.Regime = cfg.Regime
	resp.Trials = cfg.Trials
	resp.CommSkew = summaryJSON(summary)
	resp.MaxEventDrift = k.MaxEventDrift(p)
	if p.MinSeparation > 0 {
		resp.MinPipelinedPeriod = k.MinPipelinedPeriod(p)
	}
	if cfg.Regime == "jittered" {
		resp.Faults = &FaultsJSON{Jittered: jittered}
	}
	return nil
}

// randomClockTrials runs cfg.Trials trials of the random or jittered
// regime, trial i drawing from stream i of the request's seed. Trials run
// in a few chunks per worker, concatenated back into trial order. A chunk
// runs on one goroutine, so one generator and one injector serve all its
// trials: ForkInto reseeds the generator to exactly rng.Fork(i)'s stream
// without allocating a source, and the injector's keyed decisions give
// every trial of a seed one pattern. jittered is that pattern's count of
// jittered edges, read from the injector that ran trial 0 right after it.
func (s *Server) randomClockTrials(ctx context.Context, k *skew.Kernel, p skew.ClockParams, cfg *SimulateConfig) ([]float64, int64, error) {
	rng := stats.NewRNG(cfg.Seed)
	var jittered int64
	chunk := (cfg.Trials + 4*s.cfg.Workers - 1) / (4 * s.cfg.Workers)
	results := runner.MapChunks(ctx, s.cfg.Workers, cfg.Trials, chunk, func(ctx context.Context, lo, hi int) ([]float64, error) {
		trng := stats.NewRNG(0)
		var inj *faults.Injector
		if cfg.Regime == "jittered" {
			var err error
			if inj, err = faults.New(faultsOrZero(cfg.Faults), cfg.Seed); err != nil {
				return nil, badRequest("%v", err)
			}
		}
		vals := make([]float64, 0, hi-lo)
		for i := lo; i < hi; i++ {
			if err := ctx.Err(); err != nil {
				return nil, err
			}
			var v float64
			var err error
			if cfg.Regime == "random" {
				v, err = k.RandomSkew(p, rng.ForkInto(int64(i), trng))
			} else {
				v, err = k.JitteredSkew(p, rng.ForkInto(int64(i), trng), inj)
			}
			if err != nil {
				return nil, unprocessable(err)
			}
			if i == 0 {
				jittered = inj.Counts().Jittered // only trial 0's chunk writes it
			}
			vals = append(vals, v)
		}
		return vals, nil
	})
	if err := runner.Join(results); err != nil {
		return nil, 0, firstTypedError(results, err)
	}
	return slices.Concat(runner.Values(results)...), jittered, nil
}

func (s *Server) simulateHybrid(ctx context.Context, id engineIdentity, lg *lazyGraph, cfg *SimulateConfig, resp *SimulateResponse) error {
	h := cfg.Hybrid
	if h.Waves < 1 || h.Waves > 1<<12 {
		return badRequest("hybrid waves must be in [1, %d], got %d", 1<<12, h.Waves)
	}
	hcfg := hybrid.Config{
		ElementSize:       h.ElementSize,
		Handshake:         h.Handshake,
		LocalDistribution: h.LocalDistribution,
		CellDelay:         h.CellDelay,
		HoldDelay:         h.HoldDelay,
	}
	sys, err := s.hybridSystemFor(id, lg, hcfg)
	if err != nil {
		return err
	}
	if err := ctx.Err(); err != nil {
		return err
	}
	var inj *faults.Injector
	if cfg.Faults != nil && cfg.Faults.Enabled() {
		inj, err = faults.New(*cfg.Faults, cfg.Seed)
		if err != nil {
			return badRequest("%v", err)
		}
	}
	times, err := sys.SimulateHandshakeFaulty(h.Waves, inj)
	if err != nil {
		return unprocessable(err)
	}
	last := times[len(times)-1]
	lo, hi := stats.Min(last), stats.Max(last)
	out := &HybridSimJSON{
		Elements:        sys.NumElements(),
		MaxElementCells: sys.MaxElementCells(),
		Waves:           h.Waves,
		WaveCost:        hcfg.WaveCost(),
		CycleTime:       sys.CycleTime(h.Waves),
		LastWaveSpread:  hi - lo,
	}
	if inj != nil {
		clean, err := sys.SimulateHandshakeFaulty(h.Waves, nil)
		if err != nil {
			return unprocessable(err)
		}
		var stall float64
		for k := range times {
			for v := range times[k] {
				if d := times[k][v] - clean[k][v]; d > stall {
					stall = d
				}
			}
		}
		out.MaxStall = stall
		c := inj.Counts()
		resp.Faults = &FaultsJSON{Dropped: c.Dropped, Delayed: c.Delayed, Jittered: c.Jittered, Metastable: c.Metastable}
	}
	resp.Hybrid = out
	return nil
}

// faultsOrZero dereferences an optional fault config.
func faultsOrZero(c *faults.Config) faults.Config {
	if c == nil {
		return faults.Config{}
	}
	return *c
}

// firstTypedError prefers a typed httpError from the task results over
// the aggregate, so clients see the real status code.
func firstTypedError[T any](results []runner.Result[T], agg error) error {
	for _, r := range results {
		var he *httpError
		if r.Err != nil && errors.As(r.Err, &he) {
			return he
		}
	}
	return agg
}

// -------------------------------------------------------------- layout

// LayoutRequest is the query-parameter form of GET /v1/layout.svg,
// normalized into a struct so layouts cache under the same
// content-addressing as the POST endpoints.
type LayoutRequest struct {
	Topology    TopologySpec `json:"topology"`
	Tree        string       `json:"tree,omitempty"` // "" or "none" = no clock overlay
	Equalize    bool         `json:"equalize,omitempty"`
	Spacing     float64      `json:"spacing,omitempty"`
	Hybrid      bool         `json:"hybrid,omitempty"`
	ElementSize float64      `json:"element_size,omitempty"`
	Caption     string       `json:"caption,omitempty"`
}

func (s *Server) computeLayout(ctx context.Context, req *LayoutRequest) (response, error) {
	g, err := comm.Build(req.Topology.Kind, req.Topology.N, req.Topology.Rows, req.Topology.Cols)
	if err != nil {
		return response{}, badRequest("%v", err)
	}
	if err := ctx.Err(); err != nil {
		return response{}, err
	}
	var buf bytes.Buffer
	if req.Hybrid {
		size := req.ElementSize
		if size == 0 {
			size = 4
		}
		sys, err := hybrid.New(g, hybrid.Config{
			ElementSize: size, Handshake: 0.5, LocalDistribution: 0.3,
			CellDelay: 2, HoldDelay: 0.5,
		})
		if err != nil {
			return response{}, unprocessable(err)
		}
		if err := viz.RenderHybrid(&buf, g, sys, req.Caption); err != nil {
			return response{}, err
		}
	} else {
		var tree *clocktree.Tree
		if req.Tree != "" && req.Tree != "none" {
			tree, err = buildTree(req.Tree, g, req.Equalize, req.Spacing)
			if err != nil {
				return response{}, err
			}
		}
		if err := viz.RenderGraphWithClock(&buf, g, tree, req.Caption); err != nil {
			return response{}, err
		}
	}
	return response{status: 200, contentType: "image/svg+xml", body: buf.Bytes()}, nil
}
