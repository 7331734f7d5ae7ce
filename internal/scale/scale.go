// Package scale is the size-ceiling harness: it sweeps the repository's
// engine entry points over a ladder of array sizes and topologies,
// measuring ns/op, bytes/op, allocs/op, peak RSS, and kernel-resident
// bytes at each size, then fits growth exponents per (engine, metric)
// so regressions in asymptotics — not just constants — are visible.
//
// Every committed number before this harness was a single 32×32 point;
// the paper's central claim is asymptotic. The sweep answers "what is
// the biggest array one node can certify, and why" with data: a
// BENCH_scale.json trajectory from 8² past 256², per-size timeouts and
// a max-cells guard so one blown size cannot kill the run, and a CI
// gate (CompareClasses) that fails when a fitted class grows a family
// — e.g. kernel-backed Analyze drifting from ~n log n to ~n².
package scale

import (
	"context"
	"fmt"
	"math"
	"runtime"
	"time"

	"repro/internal/clocksim"
	"repro/internal/clocktree"
	"repro/internal/comm"
	"repro/internal/core"
	"repro/internal/hybrid"
	"repro/internal/selftimed"
	"repro/internal/skew"
	"repro/internal/stats"
)

// Config parameterizes a sweep. Zero fields take the defaults
// documented on each field.
type Config struct {
	// Sides is the size ladder: each entry is an array side, so a mesh
	// point has side² cells. Must be strictly ascending. Default
	// 8..256 by powers of two.
	Sides []int
	// Topologies to sweep. Default mesh, torus, linear, tree.
	Topologies []string
	// Engines filters the engine set by name; empty runs all.
	Engines []string
	// MaxCells skips (status "skipped") any size whose cell count
	// exceeds it, before any allocation happens. Default 2²¹.
	MaxCells int
	// SizeTimeout bounds one (topology, size): graph/tree/kernel setup
	// plus every engine measurement. On expiry the unfinished engines
	// record status "timeout" and the sweep moves on. Default 2m.
	SizeTimeout time.Duration
	// MinTime is the per-measurement duration target: iterations
	// repeat until it elapses (or MaxIters). Default 50ms.
	MinTime time.Duration
	// MaxIters caps iterations per measurement. Default 1<<16.
	MaxIters int
	// MCTrials is the Monte-Carlo trial count per iteration. Default 4.
	MCTrials int
	// Waves is the hybrid/self-timed wave count per iteration. Default 4.
	Waves int
	// Seed feeds every seeded engine. Default 1.
	Seed int64
	// Limits bounds kernel construction (zero = skew.DefaultLimits);
	// an oversize size records the typed error instead of building.
	Limits skew.Limits
	// Logf, when set, receives one progress line per (topology, size).
	Logf func(format string, args ...any)
}

func (c Config) withDefaults() Config {
	if len(c.Sides) == 0 {
		c.Sides = []int{8, 16, 32, 64, 128, 256}
	}
	if len(c.Topologies) == 0 {
		c.Topologies = []string{"mesh", "torus", "linear", "tree"}
	}
	if c.MaxCells <= 0 {
		c.MaxCells = 1 << 21
	}
	if c.SizeTimeout <= 0 {
		c.SizeTimeout = 2 * time.Minute
	}
	if c.MinTime <= 0 {
		c.MinTime = 50 * time.Millisecond
	}
	if c.MaxIters <= 0 {
		c.MaxIters = 1 << 16
	}
	if c.MCTrials <= 0 {
		c.MCTrials = 4
	}
	if c.Waves <= 0 {
		c.Waves = 4
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
	if c.Logf == nil {
		c.Logf = func(string, ...any) {}
	}
	return c
}

// Sink defeats dead-code elimination of measured engine results; the
// sweep assigns every result to it.
var Sink any

// sizeEnv is the shared per-(topology, size) state engines run
// against. Setup errors are carried so each engine can report them at
// its own point instead of aborting the size wholesale.
type sizeEnv struct {
	g         *comm.Graph
	tree      *clocktree.Tree
	kernel    *skew.Kernel
	treeErr   error
	kernelErr error

	// streamed is a streamed-tier kernel over the shared H-tree,
	// deliberately NOT subject to cfg.Limits — the streamed engine exists
	// to measure the sizes the resident tier refuses.
	streamed    *skew.Kernel
	streamedErr error
}

// engine is one measured entry point.
type engine struct {
	name          string
	needsTree     bool
	needsKernel   bool
	needsStreamed bool
	run           func(cfg Config, env *sizeEnv) error
}

// residentKernel builds the kernel for (g, tree) under lim and reports a
// streamed-tier result as its *SizeError: the kernel-backed engines
// measure the resident tier, and record array_too_large past the limits.
func residentKernel(g *comm.Graph, tree *clocktree.Tree, lim skew.Limits) (*skew.Kernel, error) {
	k, err := skew.NewKernelWithLimits(g, tree, lim)
	if err != nil {
		return nil, err
	}
	if se := k.SizeError(); se != nil {
		return nil, se
	}
	return k, nil
}

// skewModel is the Linear model every skew engine measures under — the
// Section III physical parameters the rest of the repo defaults to.
var skewModel = skew.Linear{M: 1, Eps: 0.1}

// allEngines is the registry, in sweep order: each entry exercises one
// public entry point end to end.
func allEngines() []engine {
	return []engine{
		{name: "plan", run: func(cfg Config, env *sizeEnv) error {
			p, err := core.NewPlan(env.g, core.Assumptions{
				Model: core.SummationModel, M: 1, Eps: 0.1, Delta: 2, BufferSpacing: 1,
			})
			Sink = p
			return err
		}},
		{name: "kernel_build", needsTree: true, run: func(cfg Config, env *sizeEnv) error {
			k, err := residentKernel(env.g, env.tree, cfg.Limits)
			Sink = k
			return err
		}},
		{name: "analyze", needsKernel: true, run: func(cfg Config, env *sizeEnv) error {
			Sink = env.kernel.Analyze(skewModel)
			return nil
		}},
		{name: "guaranteed_min_skew", needsKernel: true, run: func(cfg Config, env *sizeEnv) error {
			Sink = env.kernel.GuaranteedMinSkew(skewModel)
			return nil
		}},
		{name: "analyze_streamed", needsStreamed: true, run: func(cfg Config, env *sizeEnv) error {
			// The full streamed analysis — exact max plus sketch quantiles
			// and the sampled Monte-Carlo estimate — in bounded memory, at
			// sizes where kernel_build records array_too_large.
			res, err := env.streamed.Stream(context.Background(), skewModel, skew.StreamOptions{
				MCTrials: cfg.MCTrials, Seed: cfg.Seed,
			})
			Sink = res
			return err
		}},
		{name: "montecarlo", needsKernel: true, run: func(cfg Config, env *sizeEnv) error {
			w, err := env.kernel.MonteCarlo(skewModel, cfg.MCTrials, stats.NewRNG(cfg.Seed))
			Sink = w
			return err
		}},
		{name: "clocksim", needsTree: true, run: func(cfg Config, env *sizeEnv) error {
			arr, err := clocksim.Nominal(env.tree, clocksim.Params{M: 1, Eps: 0.1})
			if err != nil {
				return err
			}
			w, err := arr.MaxCommSkew(env.g)
			Sink = w
			return err
		}},
		{name: "clocksim_kernel", needsTree: true, run: func(cfg Config, env *sizeEnv) error {
			// The batched-sweep shape: one kernel build amortized over
			// MCTrials skew queries, like a /v1/simulate configs request.
			k, err := clocksim.NewKernel(env.g, env.tree)
			if err != nil {
				return err
			}
			p := clocksim.Params{M: 1, Eps: 0.1}
			rng := stats.NewRNG(cfg.Seed)
			var w float64
			for i := 0; i < cfg.MCTrials; i++ {
				if w, err = k.RandomSkew(p, rng); err != nil {
					return err
				}
			}
			Sink = w
			return nil
		}},
		{name: "hybrid", run: func(cfg Config, env *sizeEnv) error {
			sys, err := hybrid.New(env.g, hybrid.Config{
				ElementSize: 4, Handshake: 1, CellDelay: 2, HoldDelay: 0.5,
			})
			if err != nil {
				return err
			}
			times, err := sys.SimulateHandshake(cfg.Waves)
			Sink = times
			return err
		}},
		{name: "selftimed", run: func(cfg Config, env *sizeEnv) error {
			res, err := selftimed.Run(env.g, cfg.Waves,
				selftimed.Delays{Fast: 1, Worst: 2, PWorst: 0.1, Handshake: 0.5},
				stats.NewRNG(cfg.Seed))
			Sink = res
			return err
		}},
	}
}

// engineList filters the registry by the config's engine names.
func engineList(names []string) ([]engine, error) {
	all := allEngines()
	if len(names) == 0 {
		return all, nil
	}
	byName := map[string]engine{}
	for _, e := range all {
		byName[e.name] = e
	}
	out := make([]engine, 0, len(names))
	for _, n := range names {
		e, ok := byName[n]
		if !ok {
			known := make([]string, 0, len(all))
			for _, a := range all {
				known = append(known, a.name)
			}
			return nil, fmt.Errorf("scale: unknown engine %q (want one of %v)", n, known)
		}
		out = append(out, e)
	}
	return out, nil
}

// buildGraph constructs the topology at one ladder side, keeping cell
// counts comparable across topologies: grids are side×side, linear
// arrays side² cells, trees the complete binary tree with ≈ side²
// nodes.
func buildGraph(topology string, side int) (*comm.Graph, error) {
	switch topology {
	case "mesh":
		return comm.Mesh(side, side)
	case "torus":
		return comm.Torus(side, side)
	case "linear":
		return comm.Linear(side * side)
	case "tree":
		levels := int(math.Round(math.Log2(float64(side * side))))
		if levels < 1 {
			levels = 1
		}
		return comm.CompleteBinaryTree(levels)
	}
	return nil, fmt.Errorf("scale: unknown topology %q (want mesh, torus, linear, or tree)", topology)
}

// cellsAt returns the cell count buildGraph would produce, for the
// max-cells guard — computed without building anything.
func cellsAt(topology string, side int) int {
	if topology == "tree" {
		levels := int(math.Round(math.Log2(float64(side * side))))
		if levels < 1 {
			levels = 1
		}
		return 1<<levels - 1
	}
	return side * side
}

// Measurement is one engine's timing at one size.
type measurement struct {
	nsPerOp     float64
	bytesPerOp  float64
	allocsPerOp float64
	iters       int
}

// measure repeats op until MinTime elapses (or MaxIters, or ctx
// expires with at least one iteration banked) and reports per-op time
// and allocation from runtime.MemStats deltas.
func measure(ctx context.Context, cfg Config, op func() error) (measurement, error) {
	runtime.GC()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	start := time.Now()
	iters := 0
	for {
		if err := op(); err != nil {
			return measurement{}, err
		}
		iters++
		if iters >= cfg.MaxIters || time.Since(start) >= cfg.MinTime || ctx.Err() != nil {
			break
		}
	}
	elapsed := time.Since(start)
	runtime.ReadMemStats(&after)
	return measurement{
		nsPerOp:     float64(elapsed.Nanoseconds()) / float64(iters),
		bytesPerOp:  float64(after.TotalAlloc-before.TotalAlloc) / float64(iters),
		allocsPerOp: float64(after.Mallocs-before.Mallocs) / float64(iters),
		iters:       iters,
	}, nil
}

// Sweep runs the configured ladder and returns the report (fits
// included). It only fails on configuration errors; measurement
// failures are recorded per point.
func Sweep(ctx context.Context, cfg Config) (*Report, error) {
	cfg = cfg.withDefaults()
	engines, err := engineList(cfg.Engines)
	if err != nil {
		return nil, err
	}
	return sweep(ctx, cfg, engines)
}

// update is one engine's finished point at one size, streamed out of
// the size goroutine so a timeout abandons only unfinished work.
type update struct {
	engine string
	point  Point
}

func sweep(ctx context.Context, cfg Config, engines []engine) (*Report, error) {
	for i := 1; i < len(cfg.Sides); i++ {
		if cfg.Sides[i] <= cfg.Sides[i-1] {
			return nil, fmt.Errorf("scale: sides must be strictly ascending, got %v", cfg.Sides)
		}
	}
	r := &Report{
		Title:     "scale sweep: engine cost trajectories by array size",
		GOOS:      runtime.GOOS,
		GOARCH:    runtime.GOARCH,
		CPUs:      runtime.NumCPU(),
		MaxCells:  cfg.MaxCells,
		TimeoutMS: cfg.SizeTimeout.Milliseconds(),
		MCTrials:  cfg.MCTrials,
		Waves:     cfg.Waves,
		Seed:      cfg.Seed,
	}
	series := map[string]*Series{}
	for _, topo := range cfg.Topologies {
		for _, e := range engines {
			key := e.name + "/" + topo
			series[key] = &Series{Engine: e.name, Topology: topo}
		}
		for _, side := range cfg.Sides {
			points := runSize(ctx, cfg, engines, topo, side)
			for _, e := range engines {
				series[e.name+"/"+topo].Points = append(series[e.name+"/"+topo].Points, points[e.name])
			}
		}
	}
	// Deterministic series order: topology-major, engine order within.
	for _, topo := range cfg.Topologies {
		for _, e := range engines {
			s := series[e.name+"/"+topo]
			s.fit()
			r.Series = append(r.Series, *s)
		}
	}
	return r, nil
}

// runSize measures every engine at one (topology, side) under the
// per-size deadline. A deadline expiry marks the unfinished engines
// "timeout" and abandons the worker goroutine (it holds no locks and
// dies with its last engine call; the max-cells guard keeps such
// stragglers small enough not to matter).
func runSize(ctx context.Context, cfg Config, engines []engine, topo string, side int) map[string]Point {
	points := make(map[string]Point, len(engines))
	base := Point{Side: side, Cells: cellsAt(topo, side)}
	if base.Cells > cfg.MaxCells {
		cfg.Logf("scale: %s side %d: %d cells over max-cells %d, skipping", topo, side, base.Cells, cfg.MaxCells)
		for _, e := range engines {
			p := base
			p.Status = StatusSkipped
			p.Error = fmt.Sprintf("%d cells exceeds max-cells %d", base.Cells, cfg.MaxCells)
			points[e.name] = p
		}
		return points
	}

	szCtx, cancel := context.WithTimeout(ctx, cfg.SizeTimeout)
	defer cancel()
	updates := make(chan update, len(engines))
	done := make(chan struct{})
	start := time.Now()
	go func() {
		defer close(done)
		runSizeEngines(szCtx, cfg, engines, topo, side, base, updates)
	}()

	finished := false
	for !finished {
		select {
		case u := <-updates:
			points[u.engine] = u.point
		case <-done:
			finished = true
		case <-szCtx.Done():
			finished = true
		}
	}
	// Drain whatever the worker managed to send before we noticed.
	for {
		select {
		case u := <-updates:
			points[u.engine] = u.point
		default:
			for _, e := range engines {
				if _, ok := points[e.name]; !ok {
					p := base
					p.Status = StatusTimeout
					p.Error = fmt.Sprintf("size timeout %s expired", cfg.SizeTimeout)
					points[e.name] = p
				}
			}
			cfg.Logf("scale: %s side %d (%d cells) done in %s", topo, side, base.Cells, time.Since(start).Round(time.Millisecond))
			return points
		}
	}
}

// runSizeEngines builds the size's shared environment and measures
// each engine, streaming points as they finish.
func runSizeEngines(ctx context.Context, cfg Config, engines []engine, topo string, side int, base Point, updates chan<- update) {
	env := &sizeEnv{}
	var err error
	if env.g, err = buildGraph(topo, side); err != nil {
		for _, e := range engines {
			p := base
			p.Status, p.Error = StatusError, err.Error()
			updates <- update{e.name, p}
		}
		return
	}
	base.Cells = env.g.NumCells()
	// Shared setup is built only when a selected engine needs it: a
	// streamed-only ladder at 8192² must never pay for a kernel build the
	// size guard exists to reject. Both kernels share one H-tree.
	var needTree, needKernel, needStreamed bool
	for _, e := range engines {
		needTree = needTree || e.needsTree || e.needsKernel || e.needsStreamed
		needKernel = needKernel || e.needsKernel
		needStreamed = needStreamed || e.needsStreamed
	}
	if needTree {
		env.tree, env.treeErr = clocktree.HTree(env.g)
	}
	switch {
	case needKernel && env.treeErr == nil:
		env.kernel, env.kernelErr = residentKernel(env.g, env.tree, cfg.Limits)
	case env.treeErr != nil:
		env.kernelErr = env.treeErr
	}
	switch {
	case needStreamed && env.treeErr == nil:
		// A one-byte budget trips at every size, so every rung measures
		// the streamed tier; the default 16 GiB budget would keep an
		// 8192² mesh resident and materialize 3.2 GB of pair columns.
		env.streamed, env.streamedErr = skew.NewKernelWithLimits(env.g, env.tree, skew.Limits{MaxBytes: 1})
	case env.treeErr != nil:
		env.streamedErr = env.treeErr
	}
	for _, e := range engines {
		p := base
		switch {
		case ctx.Err() != nil:
			// Deadline hit between engines; the collector will mark the
			// rest, but record what we know deterministically anyway.
			p.Status, p.Error = StatusTimeout, fmt.Sprintf("size timeout %s expired", cfg.SizeTimeout)
		case e.needsTree && env.treeErr != nil:
			p.Status, p.Error = StatusError, env.treeErr.Error()
		case e.needsKernel && env.kernelErr != nil:
			p.Status, p.Error = StatusError, env.kernelErr.Error()
		case e.needsStreamed && env.streamedErr != nil:
			p.Status, p.Error = StatusError, env.streamedErr.Error()
		default:
			m, err := measure(ctx, cfg, func() error { return e.run(cfg, env) })
			if err != nil {
				p.Status, p.Error = StatusError, err.Error()
			} else {
				p.Status = StatusOK
				p.NsPerOp, p.BytesPerOp, p.AllocsPerOp, p.Iters = m.nsPerOp, m.bytesPerOp, m.allocsPerOp, m.iters
			}
		}
		if (e.needsKernel || e.name == "kernel_build") && env.kernel != nil {
			p.KernelBytes = env.kernel.FootprintBytes()
		}
		if e.needsStreamed && env.streamed != nil {
			p.KernelBytes = env.streamed.FootprintBytes()
		}
		p.PeakRSSBytes = peakRSSBytes()
		updates <- update{e.name, p}
	}
}

// fit attaches growth fits for ns/op and bytes/op over the ok points.
func (s *Series) fit() {
	var cells, ns, bs []float64
	for _, p := range s.Points {
		if p.Status != StatusOK {
			continue
		}
		cells = append(cells, float64(p.Cells))
		ns = append(ns, p.NsPerOp)
		bs = append(bs, p.BytesPerOp)
	}
	fits := map[string]Growth{}
	if g, err := FitGrowth(cells, ns); err == nil {
		fits[MetricNsPerOp] = g
	}
	if g, err := FitGrowth(cells, bs); err == nil {
		fits[MetricBytesPerOp] = g
	}
	if len(fits) > 0 {
		s.Fits = fits
	}
}
