package vlsisync

import (
	"context"
	"errors"
	"fmt"
	"io"
	"math"
	"time"

	"repro/internal/array"
	"repro/internal/clocktree"
	"repro/internal/comm"
	"repro/internal/embed"
	"repro/internal/hybrid"
	"repro/internal/obs"
	"repro/internal/report"
	"repro/internal/runner"
	"repro/internal/selftimed"
	"repro/internal/skew"
	"repro/internal/stats"
	"repro/internal/systolic"
	"repro/internal/treemachine"
	"repro/internal/wiresim"
)

// ExperimentResult is the outcome of reproducing one of the paper's
// claims (see DESIGN.md §4 for the experiment index).
type ExperimentResult struct {
	ID         string
	Title      string
	PaperClaim string
	Finding    string
	Pass       bool
	Table      *report.Table
}

// runCtx carries one run's settings into the experiment runners. Every
// runner derives its randomness from fixed per-task seeds, so results
// are identical at any worker count — the suite's reproducibility bar.
type runCtx struct {
	ctx   context.Context
	quick bool
	// workers bounds the fan-out of an experiment's *inner* sweeps
	// (e.g. E7's per-chip Monte Carlo); 1 keeps them sequential.
	workers int
}

// experiment binds an ID to its runner.
type experiment struct {
	id, title string
	run       func(rc *runCtx) (*ExperimentResult, error)
}

// experiments lists the full suite in DESIGN.md order.
var experiments = []experiment{
	{"E1", "Theorem 2 / Fig. 3: H-tree under the difference model", runE1},
	{"E2", "Section V: H-tree fails under the summation model", runE2},
	{"E3", "Theorem 3 / Figs. 4-6: spine clocking of 1D arrays", runE3},
	{"E4", "Theorem 6 / Fig. 7: Ω(n) mesh skew lower bound", runE4},
	{"E5", "Section I: self-timed arrays converge to worst case", runE5},
	{"E6", "Section VII: pipelined vs equipotential inverter string", runE6},
	{"E7", "Section VII: √n growth of random discrepancy", runE7},
	{"E8", "Section VI / Fig. 8: hybrid synchronization", runE8},
	{"E9", "A5: minimum working clock period σ + δ", runE9},
	{"E10", "Theorem 2 support: rectangular-to-square grid folding", runE10},
	{"E11", "Section VIII: pipelined tree machine", runE11},
}

// ExperimentIDs returns the suite's experiment identifiers in order.
func ExperimentIDs() []string {
	ids := make([]string, len(experiments))
	for i, e := range experiments {
		ids[i] = e.id
	}
	return ids
}

// RunExperiment reproduces one claim. With quick set, sweeps are reduced
// for test and benchmark use; the shapes tested are the same.
func RunExperiment(id string, quick bool) (*ExperimentResult, error) {
	return RunExperimentCtx(context.Background(), id, quick)
}

// RunExperimentCtx is RunExperiment with context propagation: a tracer
// carried by ctx (obs.WithTracer) records the experiment's span tree,
// and cancellation reaches the experiment's inner sweeps.
func RunExperimentCtx(ctx context.Context, id string, quick bool) (*ExperimentResult, error) {
	for _, e := range experiments {
		if e.id == id {
			return runOne(ctx, e, quick, 1)
		}
	}
	return nil, fmt.Errorf("vlsisync: unknown experiment %q (have %v)", id, ExperimentIDs())
}

// runOne executes one experiment under an "experiment.<ID>" span.
func runOne(ctx context.Context, e experiment, quick bool, workers int) (*ExperimentResult, error) {
	ctx, span := obs.Start(ctx, "experiment."+e.id, obs.String("title", e.title))
	defer span.End()
	res, err := e.run(&runCtx{ctx: ctx, quick: quick, workers: workers})
	if res != nil {
		span.Annotate(
			obs.Int("rows", int64(res.Table.NumRows())),
			obs.String("pass", fmt.Sprintf("%v", res.Pass)))
	}
	return res, err
}

// RunOptions configures a suite run.
type RunOptions struct {
	// Quick reduces sweep sizes for test and benchmark use.
	Quick bool
	// Parallel bounds how many experiments run concurrently and how far
	// an experiment may fan out its inner sweeps. Values <= 1 run the
	// suite strictly sequentially. The rendered tables are identical at
	// every setting; only wall time changes.
	Parallel int
	// Timeout, when positive, bounds the whole run. Experiments not
	// finished at the deadline are reported as errors; completed ones
	// keep their results.
	Timeout time.Duration
	// Tracer, when set, records the run's span tree (one span per
	// experiment with the engine spans nested underneath). Tracing never
	// touches the experiments' RNG streams or results, so the rendered
	// tables stay byte-identical with or without it.
	Tracer *obs.Tracer
}

// RunExperiments reproduces the suite under opts. It returns the results
// of every experiment that completed (in suite order), one RunMetric per
// experiment (wall time, sweep rows, pass/fail/error, also in suite
// order), and the aggregated error of all failures, nil if none.
//
// Failure handling is collect-all: one flaky experiment costs only its
// own slot, never the others' results.
func RunExperiments(ctx context.Context, opts RunOptions) ([]*ExperimentResult, []report.RunMetric, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	if opts.Timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, opts.Timeout)
		defer cancel()
	}
	workers := opts.Parallel
	if workers < 1 {
		workers = 1
	}
	ctx = obs.WithTracer(ctx, opts.Tracer)
	rs := runner.Map(ctx, workers, len(experiments),
		func(ctx context.Context, i int) (*ExperimentResult, error) {
			return runOne(ctx, experiments[i], opts.Quick, workers)
		})
	results := make([]*ExperimentResult, 0, len(rs))
	metrics := make([]report.RunMetric, len(rs))
	var errs []error
	for i, r := range rs {
		m := report.RunMetric{ID: experiments[i].id, Wall: r.Wall, Err: r.Err}
		if r.Err == nil {
			m.Pass = r.Value.Pass
			m.Rows = r.Value.Table.NumRows()
			results = append(results, r.Value)
		} else {
			errs = append(errs, fmt.Errorf("vlsisync: %s: %w", experiments[i].id, r.Err))
		}
		metrics[i] = m
	}
	return results, metrics, errors.Join(errs...)
}

// WriteResults renders results, in order, as cmd/experiments prints
// them: format is "text", "markdown" or "csv". The output is a pure
// function of the results, so it is byte-identical at any parallelism.
func WriteResults(w io.Writer, results []*ExperimentResult, format string) error {
	for _, r := range results {
		status := "PASS"
		if !r.Pass {
			status = "FAIL"
		}
		var err error
		switch format {
		case "markdown":
			fmt.Fprintf(w, "### %s — %s [%s]\n\n", r.ID, r.Title, status)
			fmt.Fprintf(w, "*Paper claim:* %s\n\n*Measured:* %s\n\n", r.PaperClaim, r.Finding)
			err = r.Table.RenderMarkdown(w)
		case "csv":
			err = r.Table.RenderCSV(w)
		case "text":
			fmt.Fprintf(w, "=== %s — %s [%s]\n", r.ID, r.Title, status)
			fmt.Fprintf(w, "Paper claim: %s\n", r.PaperClaim)
			fmt.Fprintf(w, "Measured:    %s\n\n", r.Finding)
			err = r.Table.Render(w)
		default:
			return fmt.Errorf("unknown format %q", format)
		}
		if err != nil {
			return err
		}
		fmt.Fprintln(w)
	}
	return nil
}

// RunAllExperiments reproduces the whole suite in order. Unlike earlier
// revisions it does not abort on the first failure: it returns every
// completed experiment's result alongside the aggregated error of the
// ones that failed.
func RunAllExperiments(quick bool) ([]*ExperimentResult, error) {
	results, _, err := RunExperiments(context.Background(), RunOptions{Quick: quick, Parallel: 1})
	return results, err
}

func sizes(quick bool, full, reduced []int) []int {
	if quick {
		return reduced
	}
	return full
}

// runE1: equalized H-trees give zero difference-model skew on linear,
// square, and hexagonal arrays, with constant-factor wire area (Lemma 1,
// Theorem 2).
func runE1(rc *runCtx) (*ExperimentResult, error) {
	tbl := report.NewTable("E1: H-tree, difference model f(d)=d",
		"topology", "n", "cells", "max skew", "wire/cell")
	model := skew.Difference{}
	pass := true
	type topo struct {
		name  string
		build func(n int) (*comm.Graph, error)
	}
	topos := []topo{
		{"linear", comm.Linear},
		{"square", func(n int) (*comm.Graph, error) { return comm.Mesh(n, n) }},
		{"hex", comm.Hex},
	}
	firstWire := map[string]float64{}
	for _, tp := range topos {
		for _, n := range sizes(rc.quick, []int{4, 8, 16, 32}, []int{4, 8, 16}) {
			g, err := tp.build(n)
			if err != nil {
				return nil, err
			}
			tree, err := clocktree.HTree(g)
			if err != nil {
				return nil, err
			}
			if _, err := tree.Equalize(); err != nil {
				return nil, err
			}
			a, err := skew.AnalyzeCtx(rc.ctx, g, tree, model)
			if err != nil {
				return nil, err
			}
			wirePerCell := tree.TotalWireLength() / float64(g.NumCells())
			tbl.AddRow(tp.name, n, g.NumCells(), a.MaxSkew, wirePerCell)
			if a.MaxSkew > 1e-9 {
				pass = false
			}
			if w0, ok := firstWire[tp.name]; !ok {
				firstWire[tp.name] = wirePerCell
			} else if wirePerCell > 3*w0 {
				pass = false // wire area per cell must stay bounded
			}
		}
	}
	return &ExperimentResult{
		ID:    "E1",
		Title: "Theorem 2 / Fig. 3: H-tree under the difference model",
		PaperClaim: "An equalized H-tree clocks any bounded-aspect array with " +
			"skew bounded by f(0) — size-independent period — at constant-factor area.",
		Finding: "Max difference-model skew is 0 at every size and topology; " +
			"clock wire per cell stays bounded.",
		Pass:  pass,
		Table: tbl,
	}, nil
}

// runE2: the same H-tree under the summation model has skew growing with
// array size even on linear arrays (the Fig. 3(a) failure the paper uses
// to motivate Section V).
func runE2(rc *runCtx) (*ExperimentResult, error) {
	tbl := report.NewTable("E2: H-tree on linear arrays, summation model g(s)=s",
		"n", "max skew", "worst pair s")
	var ns, skews []float64
	for _, n := range sizes(rc.quick, []int{8, 16, 32, 64, 128, 256}, []int{8, 16, 32, 64}) {
		g, err := comm.Linear(n)
		if err != nil {
			return nil, err
		}
		tree, err := clocktree.HTree(g)
		if err != nil {
			return nil, err
		}
		a, err := skew.AnalyzeCtx(rc.ctx, g, tree, skew.Summation{Beta: 1})
		if err != nil {
			return nil, err
		}
		tbl.AddRow(n, a.MaxSkew, a.WorstPair.S)
		ns = append(ns, float64(n))
		skews = append(skews, a.MaxSkew)
	}
	fit, err := stats.FitPowerLaw(ns, skews)
	if err != nil {
		return nil, err
	}
	return &ExperimentResult{
		ID:    "E2",
		Title: "Section V: H-tree fails under the summation model",
		PaperClaim: "Two communicating cells of a linear array can be connected " +
			"by an H-tree path of length growing with the array, so the " +
			"summation-model skew is unbounded.",
		Finding: fmt.Sprintf("Max skew grows as n^%.2f (R²=%.3f) — unbounded, as claimed.",
			fit.B, fit.R2),
		Pass:  fit.B > 0.5,
		Table: tbl,
	}, nil
}

// runE3: spine clocking keeps summation-model skew and the end-to-end
// minimum working period constant on 1D arrays of any size, in straight,
// folded, and comb layouts (Theorem 3, Figs. 4-6).
func runE3(rc *runCtx) (*ExperimentResult, error) {
	tbl := report.NewTable("E3: spine clock on 1D arrays, summation model g(s)=s",
		"layout", "n", "max skew", "FIR min period")
	pass := true
	var periods []float64
	for _, n := range sizes(rc.quick, []int{8, 32, 128}, []int{6, 12}) {
		layouts := []struct {
			name  string
			remap func(*comm.Graph) (*comm.Graph, error)
		}{
			{"straight", func(g *comm.Graph) (*comm.Graph, error) { return g, nil }},
			{"folded", comm.FoldLinear},
			{"comb", func(g *comm.Graph) (*comm.Graph, error) { return comm.CombLinear(g, 4) }},
		}
		for _, lay := range layouts {
			base, err := comm.Linear(n)
			if err != nil {
				return nil, err
			}
			g, err := lay.remap(base)
			if err != nil {
				return nil, err
			}
			tree, err := clocktree.Spine(g)
			if err != nil {
				return nil, err
			}
			a, err := skew.AnalyzeCtx(rc.ctx, g, tree, skew.Summation{Beta: 1})
			if err != nil {
				return nil, err
			}
			if a.MaxSkew > 2+1e-9 {
				pass = false
			}
			minP := math.NaN()
			if lay.name == "straight" {
				p, err := firMinPeriod(rc.ctx, n, 0.05)
				if err != nil {
					return nil, err
				}
				minP = p
				periods = append(periods, p)
			}
			tbl.AddRow(lay.name, n, a.MaxSkew, minP)
		}
	}
	for _, p := range periods[1:] {
		if math.Abs(p-periods[0]) > 0.2 {
			pass = false
		}
	}
	return &ExperimentResult{
		ID:    "E3",
		Title: "Theorem 3 / Figs. 4-6: spine clocking of 1D arrays",
		PaperClaim: "Running the clock along a one-dimensional array bounds the " +
			"skew between communicating cells by a constant, so the clock period " +
			"is independent of array size — also for folded and comb layouts.",
		Finding: "Skew ≤ cell pitch at every size and layout; the measured " +
			"minimum working period of a systolic FIR filter does not grow with n.",
		Pass:  pass,
		Table: tbl,
	}, nil
}

// firMinPeriod builds an n-tap FIR array, derives per-cell clock offsets
// from the spine tree (arrival = wire delay × unit), and bisects for the
// minimum period that still reproduces the ideal output.
func firMinPeriod(ctx context.Context, n int, unitSkewPerPitch float64) (float64, error) {
	_, span := obs.Start(ctx, "systolic.fir", obs.Int("taps", int64(n)))
	defer span.End()
	weights := make([]float64, n)
	for i := range weights {
		weights[i] = 1 / float64(i+1)
	}
	xs := []float64{1, 2, 3, 4, 5, 6, 7, 8}
	f, err := systolic.NewFIR(weights, xs)
	if err != nil {
		return 0, err
	}
	g := f.Machine.Graph()
	tree, err := clocktree.Spine(g)
	if err != nil {
		return 0, err
	}
	off := array.Offsets{Cell: make([]float64, g.NumCells())}
	for id := comm.CellID(0); int(id) < g.NumCells(); id++ {
		c := g.Cell(id)
		off.Cell[c.ID] = tree.CellRootDist(c.ID) * unitSkewPerPitch
	}
	// Fig. 5: the host's write port taps the clock where the spine
	// starts and its read port where the spine returns (folded layout),
	// so neither host port sees skew growing with n.
	off.Host = 0
	off.HostRead = off.Cell[g.NumCells()-1]
	timing := array.Timing{CellDelay: 1, HoldDelay: 0.5}
	cycles := f.Cycles
	if cycles > 40 {
		cycles = 40
	}
	return f.Machine.MinWorkingPeriod(cycles, timing, off, 0, 20, 1e-3)
}

// runE4: the Section V-B lower bound — for every candidate clock tree on
// an n×n mesh the guaranteed summation skew is Ω(n), and the mechanized
// proof's certified bound grows linearly while staying below it.
func runE4(rc *runCtx) (*ExperimentResult, error) {
	tbl := report.NewTable("E4: n×n mesh, summation model with β=1",
		"n", "best tree", "min guaranteed skew", "certified bound")
	model := skew.Summation{Beta: 1}
	factories := skew.StandardFactories(3, 1234)
	var ns, best []float64
	pass := true
	for _, n := range sizes(rc.quick, []int{6, 8, 12, 16, 24, 32}, []int{6, 10, 16}) {
		g, err := comm.Mesh(n, n)
		if err != nil {
			return nil, err
		}
		res, err := skew.MinSkewOverTrees(g, model, factories)
		if err != nil {
			return nil, err
		}
		tbl.AddRow(n, res.TreeName, res.MinGuaranteedSkew, res.Certified)
		if res.Certified > res.MinGuaranteedSkew+1e-6 {
			pass = false // certified bound must be sound
		}
		ns = append(ns, float64(n))
		best = append(best, res.MinGuaranteedSkew)
	}
	fit, err := stats.FitPowerLaw(ns, best)
	if err != nil {
		return nil, err
	}
	if fit.B < 0.6 {
		pass = false
	}
	return &ExperimentResult{
		ID:    "E4",
		Title: "Theorem 6 / Fig. 7: Ω(n) mesh skew lower bound",
		PaperClaim: "No clock tree keeps the maximum skew between communicating " +
			"cells of an n×n array bounded: σ = Ω(n) under the summation model.",
		Finding: fmt.Sprintf("Even the best of H-tree/serpentine/random trees has "+
			"guaranteed skew growing as n^%.2f; the mechanized separator-and-circle "+
			"proof certifies a linear lower bound below it.", fit.B),
		Pass:  pass,
		Table: tbl,
	}, nil
}

// runE5: Section I's self-timing analysis — rigid waves hit the worst
// case with probability 1 − p^k, so large arrays run at worst-case speed.
func runE5(rc *runCtx) (*ExperimentResult, error) {
	d := selftimed.Delays{Fast: 1, Worst: 2, PWorst: 0.1}
	p := 1 - d.PWorst
	waves := 4000
	if rc.quick {
		waves = 800
	}
	tbl := report.NewTable("E5: self-timed 1D arrays, fast=1 worst=2 P(worst)=0.1",
		"k cells", "1-p^k", "predicted interval", "rigid interval", "elastic interval")
	pass := true
	// Each sweep point seeds its own generators from k, so the points
	// fan out across workers and reassemble in order bit-for-bit.
	ks := sizes(rc.quick, []int{1, 2, 4, 8, 16, 32, 64, 128}, []int{1, 4, 16, 64})
	type point struct {
		prob, predicted, rigid, elastic float64
	}
	rs := runner.Map(rc.ctx, rc.workers, len(ks), func(ctx context.Context, i int) (point, error) {
		k := ks[i]
		g, err := comm.Linear(k)
		if err != nil {
			return point{}, err
		}
		rigid, err := selftimed.RunRigidCtx(ctx, g, waves, d, stats.NewRNG(int64(k)))
		if err != nil {
			return point{}, err
		}
		elastic, err := selftimed.RunElasticCtx(ctx, g, waves, d, 1, stats.NewRNG(int64(k)))
		if err != nil {
			return point{}, err
		}
		prob := selftimed.WorstCaseProb(p, k)
		return point{
			prob:      prob,
			predicted: d.Fast + (d.Worst-d.Fast)*prob,
			rigid:     rigid.MeanInterval,
			elastic:   elastic.MeanInterval,
		}, nil
	})
	if err := runner.Join(rs); err != nil {
		return nil, err
	}
	for i, r := range rs {
		v := r.Value
		tbl.AddRow(ks[i], v.prob, v.predicted, v.rigid, v.elastic)
		if math.Abs(v.rigid-v.predicted) > 0.06 {
			pass = false
		}
	}
	return &ExperimentResult{
		ID:    "E5",
		Title: "Section I: self-timed arrays converge to worst case",
		PaperClaim: "P(worst case on a k-cell path) = 1 − p^k → 1, so large " +
			"self-timed arrays usually operate at worst-case speed and clocking " +
			"loses nothing.",
		Finding: "Measured rigid-wave intervals match the 1 − p^k prediction " +
			"within 3%; the elastic (1-deep buffered) variant also degrades " +
			"toward the worst case as arrays grow.",
		Pass:  pass,
		Table: tbl,
	}, nil
}

// runE6: the Section VII chip — equipotential cycle grows linearly with
// string length while the pipelined cycle stays nearly flat, giving ≈68×
// at 2048 inverters, consistently across chips.
func runE6(rc *runCtx) (*ExperimentResult, error) {
	tbl := report.NewTable("E6: inverter string (Section VII calibration, times in ns)",
		"n", "equipotential", "pipelined", "speedup")
	cfg := wiresim.SectionVIIConfig()
	var speedup2048 []float64
	pass := true
	ns := sizes(rc.quick, []int{128, 256, 512, 1024, 2048, 4096}, []int{256, 1024, 2048})
	type point struct {
		equi, pipe float64
		speedups   []float64 // the five-chip replication, at n=2048 only
	}
	rs := runner.Map(rc.ctx, rc.workers, len(ns), func(ctx context.Context, i int) (point, error) {
		n := ns[i]
		c := cfg
		c.N = n
		s, err := wiresim.NewStringCtx(ctx, c, stats.NewRNG(int64(n)))
		if err != nil {
			return point{}, err
		}
		pt := point{equi: s.EquipotentialCycle() * 1e9, pipe: s.MinPipelinedPeriod() * 1e9}
		if n == 2048 {
			for seed := int64(0); seed < 5; seed++ {
				chip, err := wiresim.NewStringCtx(ctx, c, stats.NewRNG(seed))
				if err != nil {
					return point{}, err
				}
				pt.speedups = append(pt.speedups, chip.Speedup())
			}
		}
		return pt, nil
	})
	if err := runner.Join(rs); err != nil {
		return nil, err
	}
	for i, r := range rs {
		v := r.Value
		tbl.AddRow(ns[i], v.equi, v.pipe, v.equi/v.pipe)
		speedup2048 = append(speedup2048, v.speedups...)
	}
	mean := stats.Mean(speedup2048)
	spread := (stats.Max(speedup2048) - stats.Min(speedup2048)) / mean
	if mean < 40 || mean > 110 || spread > 0.05 {
		pass = false
	}
	return &ExperimentResult{
		ID:    "E6",
		Title: "Section VII: pipelined vs equipotential inverter string",
		PaperClaim: "A 2048-inverter nMOS string ran equipotentially at a 34 µs " +
			"cycle but pipelined at 500 ns — 68× faster — with the same speedup " +
			"on five chips (design bias dominated random variation).",
		Finding: fmt.Sprintf("Calibrated model: mean speedup at n=2048 is %.0f× "+
			"(spread %.1f%% across 5 seeded chips); equipotential cycle grows "+
			"linearly with n while the pipelined cycle is set by the accumulated "+
			"rise/fall bias.", mean, spread*100),
		Pass:  pass,
		Table: tbl,
	}, nil
}

// runE7: Section VII's probabilistic analysis — with zero design bias,
// per-stage N(0,V) variation accumulates so that the cycle time accepted
// at a fixed yield grows as √n.
func runE7(rc *runCtx) (*ExperimentResult, error) {
	tbl := report.NewTable("E7: random discrepancy accumulation (noise sd 0.05/stage)",
		"n", "mean max discrepancy", "90%-yield min period")
	chips := 80
	if rc.quick {
		chips = 25
	}
	var ns, discs []float64
	for _, n := range sizes(rc.quick, []int{64, 256, 1024, 4096}, []int{64, 256, 1024}) {
		n := n
		// The per-chip Monte Carlo is the suite's heaviest inner sweep;
		// each simulated chip is seeded independently, so the chips fan
		// out across workers without disturbing the statistics.
		type chip struct {
			disc, period float64
		}
		rs := runner.Map(rc.ctx, rc.workers, chips, func(ctx context.Context, seed int) (chip, error) {
			s, err := wiresim.NewStringCtx(ctx, wiresim.Config{
				N: n, StageDelay: 1, NoiseSD: 0.05,
			}, stats.NewRNG(int64(seed*7919+n)))
			if err != nil {
				return chip{}, err
			}
			return chip{disc: s.MaxDiscrepancy(), period: s.MinPipelinedPeriod()}, nil
		})
		if err := runner.Join(rs); err != nil {
			return nil, err
		}
		maxDisc := make([]float64, chips)
		periods := make([]float64, chips)
		for i, r := range rs {
			maxDisc[i] = r.Value.disc
			periods[i] = r.Value.period
		}
		mean := stats.Mean(maxDisc)
		yield90 := stats.QuantileAtYield(periods, 0.9)
		tbl.AddRow(n, mean, yield90)
		ns = append(ns, float64(n))
		discs = append(discs, mean)
	}
	fit, err := stats.FitPowerLaw(ns, discs)
	if err != nil {
		return nil, err
	}
	return &ExperimentResult{
		ID:    "E7",
		Title: "Section VII: √n growth of random discrepancy",
		PaperClaim: "The sum of n i.i.d. rise/fall discrepancies is N(0, nV), so " +
			"chips accepted at a fixed yield have cycle times growing ∝ √n.",
		Finding: fmt.Sprintf("Mean accumulated discrepancy grows as n^%.2f "+
			"(expect 0.5); the 90%%-yield minimum pipelined period grows accordingly.", fit.B),
		Pass:  fit.B > 0.3 && fit.B < 0.7,
		Table: tbl,
	}, nil
}

// runE8: the Section VI hybrid scheme — constant cycle time while a
// global summation-model clock's period grows; systolic matmul results
// remain exactly correct under hybrid synchronization.
func runE8(rc *runCtx) (*ExperimentResult, error) {
	tbl := report.NewTable("E8: hybrid vs global clock on n×n meshes (δ=2, β=0.1)",
		"n", "hybrid cycle", "global period (A5)", "matmul correct")
	cfg := hybrid.Config{
		ElementSize: 4, Handshake: 0.5, LocalDistribution: 0.4,
		CellDelay: 2, HoldDelay: 0.5,
	}
	pass := true
	var globals []float64
	for _, n := range sizes(rc.quick, []int{4, 8, 16, 32}, []int{4, 8, 16}) {
		g, err := comm.Mesh(n, n)
		if err != nil {
			return nil, err
		}
		sys, err := hybrid.New(g, cfg)
		if err != nil {
			return nil, err
		}
		cycle := sys.CycleTime(50)

		// Global clock baseline: best-case A5 period σ + δ with σ from
		// the summation model on an H-tree.
		tree, err := clocktree.HTree(g)
		if err != nil {
			return nil, err
		}
		a, err := skew.AnalyzeCtx(rc.ctx, g, tree, skew.Summation{G: func(s float64) float64 { return 0.1 * s }, Beta: 0.1})
		if err != nil {
			return nil, err
		}
		global := a.MaxSkew + cfg.CellDelay

		correct := "-"
		if n <= 8 {
			ok, err := hybridMatMulCorrect(rc.ctx, n, cfg)
			if err != nil {
				return nil, err
			}
			correct = fmt.Sprintf("%v", ok)
			if !ok {
				pass = false
			}
		}
		tbl.AddRow(n, cycle, global, correct)
		if math.Abs(cycle-cfg.WaveCost()) > 1e-9 {
			pass = false
		}
		globals = append(globals, global)
	}
	if globals[len(globals)-1] < 1.5*globals[0] {
		pass = false // the global baseline must grow
	}
	return &ExperimentResult{
		ID:    "E8",
		Title: "Section VI / Fig. 8: hybrid synchronization",
		PaperClaim: "Bounded elements with handshaking local clocks make all " +
			"synchronization paths local: constant cycle time at any array size, " +
			"with cells designed as if globally clocked.",
		Finding: "Hybrid cycle time equals the (constant) wave cost at every " +
			"size while the global-clock A5 period grows with n; systolic matmul " +
			"under hybrid synchronization matches the ideal lock-step results exactly.",
		Pass:  pass,
		Table: tbl,
	}, nil
}

func hybridMatMulCorrect(ctx context.Context, n int, cfg hybrid.Config) (bool, error) {
	ctx, span := obs.Start(ctx, "systolic.matmul", obs.Int("n", int64(n)))
	defer span.End()
	rng := stats.NewRNG(int64(n))
	a := systolic.NewMatrix(n, n)
	b := systolic.NewMatrix(n, n)
	for i := range a.Data {
		a.Data[i] = rng.Uniform(-2, 2)
		b.Data[i] = rng.Uniform(-2, 2)
	}
	mm, err := systolic.NewMatMul(a, b)
	if err != nil {
		return false, err
	}
	sys, err := hybrid.New(mm.Machine.Graph(), cfg)
	if err != nil {
		return false, err
	}
	tr, err := sys.RunCtx(ctx, mm.Machine, mm.Cycles)
	if err != nil {
		return false, err
	}
	got, err := mm.Extract(tr)
	if err != nil {
		return false, err
	}
	want, err := a.Mul(b)
	if err != nil {
		return false, err
	}
	return got.Equal(want, 1e-6), nil
}

// runE9: assumption A5 made measurable — the bisected minimum working
// period of clocked systolic arrays equals δ plus the directed skew, and
// A5's σ + δ bounds it from above.
func runE9(rc *runCtx) (*ExperimentResult, error) {
	tbl := report.NewTable("E9: minimum working period vs A5 prediction (δ=1)",
		"workload", "n", "σ (comm)", "measured", "exact prediction", "A5 bound")
	pass := true
	for _, n := range sizes(rc.quick, []int{4, 8, 16}, []int{4, 8}) {
		weights := make([]float64, n)
		for i := range weights {
			weights[i] = float64(i + 1)
		}
		f, err := systolic.NewFIR(weights, []float64{1, -1, 2, -2, 3})
		if err != nil {
			return nil, err
		}
		g := f.Machine.Graph()
		rng := stats.NewRNG(int64(n))
		off := array.Offsets{Cell: make([]float64, g.NumCells()), Host: rng.Uniform(0, 0.3)}
		for i := range off.Cell {
			off.Cell[i] = rng.Uniform(0, 0.4)
		}
		timing := array.Timing{CellDelay: 1, HoldDelay: 0.5}
		cycles := f.Cycles
		if cycles > 30 {
			cycles = 30
		}
		measured, err := f.Machine.MinWorkingPeriod(cycles, timing, off, 0, 20, 1e-3)
		if err != nil {
			return nil, err
		}
		sigma := f.Machine.MaxCommSkew(off)
		exact := timing.CellDelay + f.Machine.MaxDirectedSkew(off)
		bound := timing.CellDelay + sigma
		tbl.AddRow("fir", n, sigma, measured, exact, bound)
		if math.Abs(measured-exact) > 0.05 || measured > bound+0.05 {
			pass = false
		}
	}
	return &ExperimentResult{
		ID:    "E9",
		Title: "A5: minimum working clock period σ + δ",
		PaperClaim: "A clocked system may be driven with period σ + δ + τ; " +
			"below it, synchronization fails.",
		Finding: "The bisected smallest period at which the clocked FIR still " +
			"matches the ideal trace equals δ + max directed skew exactly, and " +
			"never exceeds A5's σ + δ; below it, latches capture mid-transition " +
			"garbage and outputs corrupt.",
		Pass:  pass,
		Table: tbl,
	}, nil
}

// runE10: the grid-folding support for Theorem 2 — the paper's example
// n^(2/3) × n^(1/3) grids fold to aspect ≤ 2 with no area growth.
func runE10(rc *runCtx) (*ExperimentResult, error) {
	tbl := report.NewTable("E10: folding n^(2/3) x n^(1/3) grids square",
		"N", "source", "target", "dilation", "area factor")
	pass := true
	for _, exp := range sizes(rc.quick, []int{9, 12, 15, 18}, []int{9, 12}) {
		n := 1 << exp // N = 2^exp, source is 2^(exp/3) × 2^(2exp/3)
		rows := 1 << (exp / 3)
		cols := n / rows
		_, span := obs.Start(rc.ctx, "embed.fold", obs.Int("rows", int64(rows)), obs.Int("cols", int64(cols)))
		e, err := embed.FoldToSquare(rows, cols)
		if err != nil {
			span.End()
			return nil, err
		}
		m, err := embed.Measure(e)
		span.End()
		if err != nil {
			return nil, err
		}
		tbl.AddRow(n, fmt.Sprintf("%dx%d", rows, cols),
			fmt.Sprintf("%dx%d", e.DstRows, e.DstCols), m.Dilation, m.AreaFactor)
		if m.AreaFactor > 2.0+1e-9 || m.AspectRatio > 2+1e-9 {
			pass = false
		}
	}
	return &ExperimentResult{
		ID:    "E10",
		Title: "Theorem 2 support: rectangular-to-square grid folding",
		PaperClaim: "Any rectangular grid embeds in a square grid with constant " +
			"edge stretch and area (Aleliunas-Rosenberg), letting the H-tree " +
			"result cover all bounded-aspect layouts.",
		Finding: "Iterated interleaved folding reaches aspect ≤ 2 with area " +
			"factor ≤ 2; dilation grows as sqrt(aspect) rather than O(1) — a " +
			"documented weaker substitute (DESIGN.md), sufficient because the " +
			"kd-split H-tree clocks arbitrary layouts directly.",
		Pass:  pass,
		Table: tbl,
	}, nil
}

// runE11: the Section VIII tree machine — constant pipeline interval,
// O(√N) latency, O(N) registers and area.
func runE11(rc *runCtx) (*ExperimentResult, error) {
	tbl := report.NewTable("E11: pipelined tree machine (buffer spacing 1.5)",
		"levels", "N", "latency", "interval", "registers/N", "area/N")
	pass := true
	var ns, lats []float64
	for _, levels := range sizes(rc.quick, []int{4, 6, 8, 10, 12}, []int{4, 6, 8}) {
		m, err := treemachine.New(treemachine.Config{Levels: levels, BufferSpacing: 1.5})
		if err != nil {
			return nil, err
		}
		ops := make([]treemachine.Op, 100)
		for i := range ops {
			if i%3 == 0 {
				ops[i] = treemachine.Op{Kind: treemachine.Insert, Key: int64(i)}
			} else {
				ops[i] = treemachine.Op{Kind: treemachine.Query, Key: int64(i % 30)}
			}
		}
		_, st, err := m.RunCtx(rc.ctx, ops)
		if err != nil {
			return nil, err
		}
		n := float64(m.Nodes())
		tbl.AddRow(levels, m.Nodes(), st.Latency, st.Interval,
			float64(m.TotalRegisters())/n, m.LayoutArea()/n)
		if st.Interval > 1.2 {
			pass = false
		}
		ns = append(ns, n)
		lats = append(lats, float64(st.Latency))
	}
	fit, err := stats.FitPowerLaw(ns, lats)
	if err != nil {
		return nil, err
	}
	if fit.B < 0.3 || fit.B > 0.7 {
		pass = false
	}
	return &ExperimentResult{
		ID:    "E11",
		Title: "Section VIII: pipelined tree machine",
		PaperClaim: "An H-tree tree machine with pipeline registers on long " +
			"edges has O(N) area, O(√N) root-to-leaf delay, and a constant " +
			"pipeline interval.",
		Finding: fmt.Sprintf("Latency grows as N^%.2f (expect 0.5) while the "+
			"sustained interval stays ≈1 cycle; registers and layout area per "+
			"node stay bounded.", fit.B),
		Pass:  pass,
		Table: tbl,
	}, nil
}
