package main

import (
	"bytes"
	"container/list"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/url"
	"runtime"
	"sort"
	"strconv"
	"sync"
	"time"

	"repro/internal/clocksim"
	"repro/internal/clocktree"
	"repro/internal/comm"
	"repro/internal/core"
	"repro/internal/hybrid"
	"repro/internal/obs"
	"repro/internal/service"
	"repro/internal/skew"
	"repro/internal/stats"
	"repro/internal/viz"
)

// The traced replay recomputes every distinct request of a workload
// in-process, calling each layer's public functions in the order the
// syncd handlers do. Each call runs inside one of the benchmark's own
// spans (names below); the engines' own core.* and skew.* spans nest
// underneath through the obs.Tracer on the context. Its answers are
// the reference every served response is checked against.

// mySpan is one benchmark-owned span, in start order, with the bytes
// allocated while it ran.
type mySpan struct {
	name  string
	bytes uint64
}

// kernelStat describes one skew kernel the replay built.
type kernelStat struct {
	pairs     int
	footprint int64 // Kernel.FootprintBytes
	retained  int64 // live-heap growth after GC with tree and kernel held; -1 if not sampled
}

// retainedSamples is how many kernels per run get the two forced
// collections that measure their retained heap.
const retainedSamples = 24

// itemReplay is the replay's record of one distinct request.
type itemReplay struct {
	item     int
	key      string
	overhead time.Duration // memstats and GC time spent inside the root span
}

type replayer struct {
	tracer  *obs.Tracer
	workers int
	ms      runtime.MemStats
	// untraced replayers only compute answers: no spans, no memory
	// statistics and no forced collections, which stop every goroutine.
	untraced bool

	mine     []mySpan
	kernels  []kernelStat
	overhead time.Duration

	// Engine caches keyed and bounded like syncd's default caches, so
	// the replay rebuilds a recipe only when syncd's cache would have
	// dropped it too.
	skewKernels *lru[*skew.Kernel]
	simKernels  *lru[*clocksim.Kernel]
	hybrids     *lru[*hybrid.System]
}

// newReplayer returns a replayer whose engine caches hold cacheEntries
// entries each.
func newReplayer(workers, cacheEntries int) *replayer {
	return &replayer{
		tracer:      obs.NewTracer(),
		workers:     workers,
		skewKernels: newLRU[*skew.Kernel](cacheEntries),
		simKernels:  newLRU[*clocksim.Kernel](cacheEntries),
		hybrids:     newLRU[*hybrid.System](cacheEntries),
	}
}

// lru is a least-recently-used cache of at most cap entries, the policy
// of syncd's engine caches.
type lru[V any] struct {
	cap   int
	order *list.List // of lruEntry, most recent first
	items map[string]*list.Element
}

type lruEntry[V any] struct {
	key string
	val V
}

func newLRU[V any](capacity int) *lru[V] {
	return &lru[V]{cap: capacity, order: list.New(), items: map[string]*list.Element{}}
}

func (c *lru[V]) get(key string) (V, bool) {
	el, ok := c.items[key]
	if !ok {
		var zero V
		return zero, false
	}
	c.order.MoveToFront(el)
	return el.Value.(lruEntry[V]).val, true
}

func (c *lru[V]) put(key string, val V) {
	if el, ok := c.items[key]; ok {
		el.Value = lruEntry[V]{key, val}
		c.order.MoveToFront(el)
		return
	}
	c.items[key] = c.order.PushFront(lruEntry[V]{key, val})
	if c.order.Len() > c.cap {
		oldest := c.order.Back()
		c.order.Remove(oldest)
		delete(c.items, oldest.Value.(lruEntry[V]).key)
	}
}

// memAllocated reads the cumulative allocated bytes, charging the read
// to the replay's overhead.
func (r *replayer) memAllocated() uint64 {
	t := time.Now()
	runtime.ReadMemStats(&r.ms)
	r.overhead += time.Since(t)
	return r.ms.TotalAlloc
}

// liveHeap collects garbage and returns the live heap, charging the
// collection to the replay's overhead.
func (r *replayer) liveHeap() int64 {
	t := time.Now()
	runtime.GC()
	runtime.ReadMemStats(&r.ms)
	r.overhead += time.Since(t)
	return int64(r.ms.HeapAlloc)
}

// span runs f inside a benchmark span named name.
func (r *replayer) span(ctx context.Context, name string, f func(context.Context) error) error {
	if r.untraced {
		if err := f(ctx); err != nil {
			return fmt.Errorf("%s: %w", name, err)
		}
		return nil
	}
	a0 := r.memAllocated()
	ctx, sp := obs.Start(ctx, name)
	i := len(r.mine)
	r.mine = append(r.mine, mySpan{name: name})
	err := f(ctx)
	sp.End()
	r.mine[i].bytes = r.memAllocated() - a0
	if err != nil {
		return fmt.Errorf("%s: %w", name, err)
	}
	return nil
}

// distinctItems lists the workload's distinct requests in first-use
// order, the setup fill first.
func distinctItems(w *Workload) []int {
	var out []int
	done := make(map[int]bool)
	for _, idx := range append(append([]int(nil), w.Fill...), w.Sequence...) {
		if !done[idx] {
			done[idx] = true
			out = append(out, idx)
		}
	}
	return out
}

// Run replays the given requests of w in order and returns each one's
// answer key.
func (r *replayer) Run(ctx context.Context, w *Workload, items []int) ([]itemReplay, error) {
	if !r.untraced {
		ctx = obs.WithTracer(ctx, r.tracer)
	}
	var out []itemReplay
	for _, idx := range items {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		r.overhead = 0
		key, err := r.replay(ctx, w.Items[idx])
		if err != nil {
			return nil, fmt.Errorf("replaying %s %s: %w", w.Items[idx].Method, w.Items[idx].Path, err)
		}
		out = append(out, itemReplay{item: idx, key: key, overhead: r.overhead})
	}
	return out, nil
}

// untracedCacheEntries bounds each engine cache of an untraced
// replayer. It holds analyze-warm's 6 recipes; analyze-cold reuses no
// recipe, and mixed-open's small kernels rebuild in well under a
// millisecond. With syncd's 256 entries, two replayers at once held
// 5 GB on analyze-cold.
const untracedCacheEntries = 32

// replayAnswers computes the answer key of every distinct request of w
// on n untraced replayers at once, each over a contiguous share of the
// requests in first-use order. An answer is a pure function of its
// request, so neither the split nor the cache bound changes any.
func replayAnswers(ctx context.Context, w *Workload, n int) ([]itemReplay, error) {
	items := distinctItems(w)
	parts := make([][]itemReplay, n)
	errs := make([]error, n)
	var wg sync.WaitGroup
	for k := range parts {
		wg.Add(1)
		go func() {
			defer wg.Done()
			rp := newReplayer(runtime.NumCPU(), untracedCacheEntries)
			rp.untraced = true
			parts[k], errs[k] = rp.Run(ctx, w, items[k*len(items)/n:(k+1)*len(items)/n])
		}()
	}
	wg.Wait()
	if err := errors.Join(errs...); err != nil {
		return nil, err
	}
	var out []itemReplay
	for _, p := range parts {
		out = append(out, p...)
	}
	return out, nil
}

func (r *replayer) replay(ctx context.Context, it Item) (string, error) {
	ctx, root := obs.Start(ctx, "replay."+it.Kind)
	defer root.End()
	switch it.Kind {
	case "plan":
		return r.plan(ctx, it.Body)
	case "analyze":
		var req service.AnalyzeRequest
		if err := r.decode(ctx, it.Body, &req); err != nil {
			return "", err
		}
		return r.analyze(ctx, &req)
	case "job":
		var req service.JobRequest
		if err := r.decode(ctx, it.Body, &req); err != nil {
			return "", err
		}
		if req.Analyze == nil {
			return "", fmt.Errorf("job without an analyze request")
		}
		return r.analyze(ctx, req.Analyze)
	case "simulate":
		return r.simulate(ctx, it.Body)
	case "layout":
		return r.layout(ctx, it.Path)
	}
	return "", fmt.Errorf("unknown item kind %q", it.Kind)
}

// decode is the handler's first step: decode the body, then derive the
// result-cache key from the canonical re-encoding.
func (r *replayer) decode(ctx context.Context, body []byte, v any) error {
	return r.span(ctx, "service.decode", func(context.Context) error {
		if err := json.Unmarshal(body, v); err != nil {
			return err
		}
		canonical, err := json.Marshal(v)
		if err != nil {
			return err
		}
		_ = contentKey("request", canonical)
		return nil
	})
}

func (r *replayer) graph(ctx context.Context, in service.GraphInput) (*comm.Graph, error) {
	if in.Topology == nil {
		return nil, fmt.Errorf("replay needs a topology spec")
	}
	var g *comm.Graph
	err := r.span(ctx, "comm.build", func(context.Context) error {
		var err error
		t := in.Topology
		g, err = comm.Build(t.Kind, t.N, t.Rows, t.Cols)
		return err
	})
	return g, err
}

func (r *replayer) encode(ctx context.Context, v any) error {
	return r.span(ctx, "service.encode", func(context.Context) error {
		_, err := json.MarshalIndent(v, "", "  ")
		return err
	})
}

// contentKey is the server's content address: SHA-256 over a namespace
// and canonical bytes.
func contentKey(namespace string, canonical []byte) string {
	h := sha256.New()
	io.WriteString(h, namespace)
	h.Write([]byte{0})
	h.Write(canonical)
	return hex.EncodeToString(h.Sum(nil))
}

// recipeKey is the identity the server hashes to key its skew-kernel
// and clocksim-kernel caches: the whole graph plus the tree recipe.
type recipeKey struct {
	Graph    *comm.Graph `json:"graph"`
	Tree     string      `json:"tree"`
	Equalize bool        `json:"equalize,omitempty"`
	Spacing  float64     `json:"spacing,omitempty"`
}

// hybridKey keys the hybrid-system cache: the graph plus element size.
type hybridKey struct {
	Graph       *comm.Graph `json:"graph"`
	ElementSize float64     `json:"element_size"`
}

// keyOf encodes v (which embeds the graph) and hashes it: the cost the
// server pays per tree per request to look up an engine cache.
func (r *replayer) keyOf(ctx context.Context, namespace string, v any) (string, error) {
	var key string
	err := r.span(ctx, "comm.encode", func(context.Context) error {
		b, err := json.Marshal(v)
		key = contentKey(namespace, b)
		return err
	})
	return key, err
}

var builders = map[string]func(*comm.Graph) (*clocktree.Tree, error){
	"htree": clocktree.HTree,
	"spine": clocktree.Spine,
}

func (r *replayer) tree(ctx context.Context, g *comm.Graph, name string, equalize bool, spacing float64) (*clocktree.Tree, error) {
	var t *clocktree.Tree
	err := r.span(ctx, "clocktree.build", func(context.Context) error {
		build, ok := builders[name]
		if !ok {
			return fmt.Errorf("tree builder %q is not replayed", name)
		}
		var err error
		if t, err = build(g); err != nil {
			return err
		}
		if equalize {
			t.Equalize()
		}
		if spacing > 0 {
			t, err = clocktree.Buffered(t, spacing)
		}
		return err
	})
	return t, err
}

// skewKernel mirrors the server's kernel lookup: key the recipe, and on
// a miss build the tree and the kernel.
func (r *replayer) skewKernel(ctx context.Context, g *comm.Graph, tree string, equalize bool, spacing float64) (*skew.Kernel, error) {
	key, err := r.keyOf(ctx, "kernel", &recipeKey{Graph: g, Tree: tree, Equalize: equalize, Spacing: spacing})
	if err != nil {
		return nil, err
	}
	if k, ok := r.skewKernels.get(key); ok {
		return k, nil
	}
	sampled := !r.untraced && len(r.kernels) < retainedSamples
	var before int64
	if sampled {
		before = r.liveHeap()
	}
	t, err := r.tree(ctx, g, tree, equalize, spacing)
	if err != nil {
		return nil, err
	}
	var k *skew.Kernel
	if err := r.span(ctx, "skew.kernel_build", func(context.Context) error {
		k, err = skew.NewKernelWithLimits(g, t, skew.Limits{})
		return err
	}); err != nil {
		return nil, err
	}
	st := kernelStat{pairs: k.Pairs(), footprint: k.FootprintBytes(), retained: -1}
	if sampled {
		st.retained = r.liveHeap() - before
		runtime.KeepAlive(k)
	}
	r.kernels = append(r.kernels, st)
	r.skewKernels.put(key, k)
	return k, nil
}

func (r *replayer) plan(ctx context.Context, body []byte) (string, error) {
	var req service.PlanRequest
	if err := r.decode(ctx, body, &req); err != nil {
		return "", err
	}
	g, err := r.graph(ctx, req.GraphInput)
	if err != nil {
		return "", err
	}
	var plan *core.Plan
	if err := r.span(ctx, "core.newplan", func(ctx context.Context) error {
		plan, err = core.NewPlanCtx(ctx, g, req.Assumptions())
		return err
	}); err != nil {
		return "", err
	}
	if err := r.span(ctx, "service.encode", func(context.Context) error {
		return service.EncodePlan(io.Discard, plan)
	}); err != nil {
		return "", err
	}
	return planKey(plan.Summary()), nil
}

// skewModel is the analyze request's model, built as the handler does.
func skewModel(m service.ModelSpec) (skew.Model, error) {
	switch m.Kind {
	case "difference":
		return skew.Difference{F: func(d float64) float64 { return m.M * d }}, nil
	case "summation":
		return skew.Summation{G: func(s float64) float64 { return m.Eps * s }, Beta: m.Eps}, nil
	case "linear":
		return skew.Linear{M: m.M, Eps: m.Eps}, nil
	}
	return nil, fmt.Errorf("unknown skew model %q", m.Kind)
}

func (r *replayer) analyze(ctx context.Context, req *service.AnalyzeRequest) (string, error) {
	g, err := r.graph(ctx, req.GraphInput)
	if err != nil {
		return "", err
	}
	model, err := skewModel(req.Model)
	if err != nil {
		return "", err
	}
	resp := service.AnalyzeResponse{Graph: g.Name, Cells: g.NumCells(), Model: model.Name()}
	for _, name := range req.Trees {
		k, err := r.skewKernel(ctx, g, name, req.Equalize, req.BufferSpacing)
		if err != nil {
			return "", err
		}
		tree := k.Tree()
		out := service.TreeAnalysis{Tree: name, Nodes: tree.NumNodes(), Buffers: tree.BufferCount(), TotalWireLength: tree.TotalWireLength()}
		if err := r.span(ctx, "skew.scan", func(context.Context) error {
			a := k.Analyze(model)
			out.MaxSkew = a.MaxSkew
			out.WorstPair = [2]int{int(a.WorstPair.A), int(a.WorstPair.B)}
			out.MaxD, out.MaxS, out.Pairs = a.MaxD, a.MaxS, a.Pairs
			out.GuaranteedMinSkew = k.GuaranteedMinSkew(model)
			return nil
		}); err != nil {
			return "", err
		}
		if req.MonteCarloTrials > 0 {
			if err := r.span(ctx, "skew.mc", func(ctx context.Context) error {
				out.MonteCarloMaxSkew, err = k.MonteCarloParallel(ctx, r.workers,
					skew.Linear{M: req.Model.M, Eps: req.Model.Eps}, req.MonteCarloTrials, stats.NewRNG(req.Seed))
				return err
			}); err != nil {
				return "", err
			}
		}
		resp.Results = append(resp.Results, out)
	}
	if err := r.encode(ctx, resp); err != nil {
		return "", err
	}
	return analyzeKey(&resp), nil
}

func (r *replayer) simulate(ctx context.Context, body []byte) (string, error) {
	var req service.SimulateRequest
	if err := r.decode(ctx, body, &req); err != nil {
		return "", err
	}
	g, err := r.graph(ctx, req.GraphInput)
	if err != nil {
		return "", err
	}
	if len(req.Configs) == 0 {
		c := service.SimulateConfig{
			Mode: req.Mode, Tree: req.Tree, Equalize: req.Equalize, BufferSpacing: req.BufferSpacing,
			Regime: req.Regime, Trials: req.Trials, Seed: req.Seed, Params: req.Params, Hybrid: req.Hybrid,
		}
		resp, err := r.simulateOne(ctx, g, &c)
		if err != nil {
			return "", err
		}
		if err := r.encode(ctx, resp); err != nil {
			return "", err
		}
		return simulateKey(resp), nil
	}
	// The batch form warms each distinct clock recipe before fanning the
	// configs out, as the handler does.
	for i := range req.Configs {
		c := &req.Configs[i]
		if _, err := r.clockKernel(ctx, g, c.Tree, c.Equalize, c.BufferSpacing); err != nil {
			return "", err
		}
	}
	resp := service.SimulateBatchResponse{Graph: g.Name, Cells: g.NumCells(), Configs: len(req.Configs)}
	for i := range req.Configs {
		res, err := r.simulateOne(ctx, g, &req.Configs[i])
		if err != nil {
			return "", err
		}
		resp.Results = append(resp.Results, service.SimulateBatchItem{Index: i, Result: res})
	}
	if err := r.encode(ctx, resp); err != nil {
		return "", err
	}
	return batchKey(&resp), nil
}

// clockKernel mirrors the server's clocksim-kernel lookup, which rides
// on the skew-kernel lookup for its tree.
func (r *replayer) clockKernel(ctx context.Context, g *comm.Graph, tree string, equalize bool, spacing float64) (*clocksim.Kernel, error) {
	key, err := r.keyOf(ctx, "simkernel", &recipeKey{Graph: g, Tree: tree, Equalize: equalize, Spacing: spacing})
	if err != nil {
		return nil, err
	}
	if k, ok := r.simKernels.get(key); ok {
		return k, nil
	}
	sk, err := r.skewKernel(ctx, g, tree, equalize, spacing)
	if err != nil {
		return nil, err
	}
	var k *clocksim.Kernel
	if err := r.span(ctx, "clocksim.new_kernel", func(context.Context) error {
		k, err = clocksim.NewKernel(g, sk.Tree())
		return err
	}); err != nil {
		return nil, err
	}
	r.simKernels.put(key, k)
	return k, nil
}

func (r *replayer) simulateOne(ctx context.Context, g *comm.Graph, c *service.SimulateConfig) (*service.SimulateResponse, error) {
	resp := &service.SimulateResponse{Graph: g.Name, Cells: g.NumCells(), Mode: c.Mode}
	if c.Mode == "hybrid" {
		return resp, r.hybridSim(ctx, g, c, resp)
	}
	k, err := r.clockKernel(ctx, g, c.Tree, c.Equalize, c.BufferSpacing)
	if err != nil {
		return nil, err
	}
	p := clocksim.Params{
		M: c.Params.M, Eps: c.Params.Eps, BufferDelay: c.Params.BufferDelay,
		MinSeparation: c.Params.MinSeparation, RiseFallBias: c.Params.RiseFallBias,
	}
	err = r.span(ctx, "clocksim.trials", func(context.Context) error {
		rng := stats.NewRNG(c.Seed)
		values := make([]float64, c.Trials)
		for i := range values {
			var err error
			switch c.Regime {
			case "nominal":
				values[i], err = k.NominalSkew(p)
			case "random":
				values[i], err = k.RandomSkew(p, rng.Fork(int64(i)))
			default:
				err = fmt.Errorf("regime %q is not replayed", c.Regime)
			}
			if err != nil {
				return err
			}
		}
		s := stats.Summarize(values)
		resp.Tree, resp.Regime, resp.Trials = k.Tree().Name, c.Regime, c.Trials
		resp.CommSkew = &service.SummaryJSON{N: s.N, Mean: s.Mean, Std: s.Std, Min: s.Min, P50: s.P50, P90: s.P90, P99: s.P99, Max: s.Max}
		resp.MaxEventDrift = k.MaxEventDrift(p)
		if p.MinSeparation > 0 {
			resp.MinPipelinedPeriod = k.MinPipelinedPeriod(p)
		}
		return nil
	})
	return resp, err
}

func (r *replayer) hybridSim(ctx context.Context, g *comm.Graph, c *service.SimulateConfig, resp *service.SimulateResponse) error {
	h := c.Hybrid
	if h == nil {
		return fmt.Errorf("hybrid simulate without hybrid parameters")
	}
	cfg := hybrid.Config{
		ElementSize: h.ElementSize, Handshake: h.Handshake, LocalDistribution: h.LocalDistribution,
		CellDelay: h.CellDelay, HoldDelay: h.HoldDelay,
	}
	key, err := r.keyOf(ctx, "hybridsys", &hybridKey{Graph: g, ElementSize: cfg.ElementSize})
	if err != nil {
		return err
	}
	var sys *hybrid.System
	if err := r.span(ctx, "hybrid.new", func(context.Context) error {
		if base, ok := r.hybrids.get(key); ok {
			sys, err = base.WithConfig(cfg)
			return err
		}
		if sys, err = hybrid.New(g, cfg); err == nil {
			r.hybrids.put(key, sys)
		}
		return err
	}); err != nil {
		return err
	}
	return r.span(ctx, "hybrid.simulate", func(context.Context) error {
		times, err := sys.SimulateHandshakeFaulty(h.Waves, nil)
		if err != nil {
			return err
		}
		last := times[len(times)-1]
		resp.Hybrid = &service.HybridSimJSON{
			Elements: sys.NumElements(), MaxElementCells: sys.MaxElementCells(), Waves: h.Waves,
			WaveCost: cfg.WaveCost(), CycleTime: sys.CycleTime(h.Waves),
			LastWaveSpread: stats.Max(last) - stats.Min(last),
		}
		return nil
	})
}

func (r *replayer) layout(ctx context.Context, path string) (string, error) {
	u, err := url.Parse(path)
	if err != nil {
		return "", err
	}
	q := u.Query()
	rows, _ := strconv.Atoi(q.Get("rows"))
	cols, _ := strconv.Atoi(q.Get("cols"))
	n, _ := strconv.Atoi(q.Get("n"))
	g, err := r.graph(ctx, service.GraphInput{Topology: &service.TopologySpec{Kind: q.Get("kind"), N: n, Rows: rows, Cols: cols}})
	if err != nil {
		return "", err
	}
	var tree *clocktree.Tree
	if name := q.Get("tree"); name != "" && name != "none" {
		if tree, err = r.tree(ctx, g, name, false, 0); err != nil {
			return "", err
		}
	}
	var buf bytes.Buffer
	if err := r.span(ctx, "viz.render", func(context.Context) error {
		return viz.RenderGraphWithClock(&buf, g, tree, q.Get("caption"))
	}); err != nil {
		return "", err
	}
	return svgKey(buf.Bytes()), nil
}

// spanTimes is the replay's trace reduced to what the layer metrics
// need: every span's inclusive and self time, and the bytes of the
// benchmark's own spans.
type spanTimes struct {
	name  string
	root  int // index of the enclosing replay.* span
	top   int // index of the ancestor directly under the root
	depth int // 0 for a root
	incl  time.Duration
	self  time.Duration
	bytes uint64
}

// spans reads the tracer's finished spans back from its Chrome trace
// export and computes each span's self time: its duration minus the
// union of its children's intervals.
func (r *replayer) spans() ([]spanTimes, error) {
	var buf bytes.Buffer
	if err := r.tracer.WriteTrace(&buf); err != nil {
		return nil, err
	}
	doc, err := obs.ReadTrace(&buf)
	if err != nil {
		return nil, err
	}
	evs := doc.CompleteEvents()
	id := func(e obs.TraceEvent, k string) int64 {
		v, _ := e.Args[k].(float64)
		return int64(v)
	}
	sort.Slice(evs, func(i, j int) bool { return id(evs[i], "span_id") < id(evs[j], "span_id") })
	byID := make(map[int64]int, len(evs))
	children := make(map[int64][]int)
	for i, e := range evs {
		byID[id(e, "span_id")] = i
		if p := id(e, "parent_span_id"); p != 0 {
			children[p] = append(children[p], i)
		}
	}
	mine := make(map[string]bool)
	for _, m := range r.mine {
		mine[m.name] = true
	}
	out := make([]spanTimes, len(evs))
	next := 0
	for i, e := range evs {
		s := &out[i]
		s.name = e.Name
		s.incl = time.Duration(e.Dur * 1e3)
		var iv [][2]float64
		for _, c := range children[id(e, "span_id")] {
			iv = append(iv, [2]float64{evs[c].TS, evs[c].TS + evs[c].Dur})
		}
		s.self = s.incl - time.Duration(covered(iv, e.TS, e.TS+e.Dur)*1e3)
		if mine[e.Name] {
			if next >= len(r.mine) || r.mine[next].name != e.Name {
				return nil, fmt.Errorf("benchmark span %q out of order in the trace", e.Name)
			}
			s.bytes = r.mine[next].bytes
			next++
		}
		// Walk up to the replay root.
		s.root, s.top = i, i
		for p := id(e, "parent_span_id"); p != 0; {
			j, ok := byID[p]
			if !ok {
				break
			}
			s.top, s.root = s.root, j
			s.depth++
			p = id(evs[j], "parent_span_id")
		}
	}
	if next != len(r.mine) {
		return nil, fmt.Errorf("trace holds %d of %d benchmark spans", next, len(r.mine))
	}
	return out, nil
}

// covered returns the total length of the union of intervals, clipped
// to [lo, hi].
func covered(iv [][2]float64, lo, hi float64) float64 {
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	var total, end float64 = 0, lo
	for _, x := range iv {
		a, b := max(x[0], end), min(x[1], hi)
		if b > a {
			total += b - a
			end = b
		}
	}
	return total
}
