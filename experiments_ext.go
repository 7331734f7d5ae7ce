package vlsisync

// Extension experiments beyond the paper's core claims: the concluding-
// remarks tree-clocking scheme (E12), the end-to-end clock-propagation
// pipeline (E13), and the Section VI metastability accounting (E14).

import (
	"fmt"
	"math"

	"repro/internal/array"
	"repro/internal/clocksim"
	"repro/internal/clocktree"
	"repro/internal/comm"
	"repro/internal/metastable"
	"repro/internal/report"
	"repro/internal/skew"
	"repro/internal/stats"
	"repro/internal/systolic"
	"repro/internal/wiresim"
)

func init() {
	experiments = append(experiments,
		experiment{"E12", "Concluding remarks: clocking trees along their data paths", runE12},
		experiment{"E13", "End to end: simulated clock propagation drives a systolic FIR", runE13},
		experiment{"E14", "Section VI: metastability accounting, synchronizers vs hybrid", runE14},
		experiment{"E15", "Section VII practicality: when pipelined clocking wins", runE15},
	)
}

// runE12: for tree-shaped COMM graphs, distributing the clock along the
// data paths makes each communicating pair's clock skew proportional to
// its own data-wire length — skew grows toward the root (Θ(√N)) but the
// skew-to-wire ratio is a constant, so relative to communication delay
// nothing is lost asymptotically.
func runE12(rc *runCtx) (*ExperimentResult, error) {
	tbl := report.NewTable("E12: clock along the data paths of an H-tree COMM tree (β=0.1)",
		"levels", "N", "max pair skew", "max pair wire", "skew/wire", "root edge")
	beta := 0.1
	pass := true
	var ns, skews []float64
	for _, levels := range sizes(rc.quick, []int{4, 6, 8, 10, 12}, []int{4, 6, 8}) {
		g, err := comm.CompleteBinaryTree(levels)
		if err != nil {
			return nil, err
		}
		tree, err := clocktree.AlongCommTree(g)
		if err != nil {
			return nil, err
		}
		a, err := skew.Analyze(g, tree, skew.Summation{G: func(s float64) float64 { return beta * s }, Beta: beta})
		if err != nil {
			return nil, err
		}
		maxWire := g.MaxEdgeLength()
		ratio := a.MaxSkew / maxWire
		tbl.AddRow(levels, g.NumCells(), a.MaxSkew, maxWire, ratio, maxWire)
		// The defining property: the skew bound equals β times the pair's
		// own wire, so the ratio is exactly β at every size.
		if math.Abs(ratio-beta) > 1e-9 {
			pass = false
		}
		ns = append(ns, float64(g.NumCells()))
		skews = append(skews, a.MaxSkew)
	}
	fit, err := stats.FitPowerLaw(ns, skews)
	if err != nil {
		return nil, err
	}
	// Absolute skew grows ≈ √N, as the H-tree root wires do.
	if fit.B < 0.3 || fit.B > 0.7 {
		pass = false
	}
	return &ExperimentResult{
		ID:    "E12",
		Title: "Concluding remarks: clocking trees along their data paths",
		PaperClaim: "If COMM is a tree and communication delays grow with path " +
			"length like clocking delays, distributing clock events along the " +
			"data paths clocks the tree at no loss in asymptotic performance.",
		Finding: fmt.Sprintf("Worst pair skew grows as N^%.2f (the H-tree root "+
			"wires), but skew stays exactly β times the pair's own data wire at "+
			"every size — clock and data degrade together, as claimed.", fit.B),
		Pass:  pass,
		Table: tbl,
	}, nil
}

// runE13: the full pipeline — build a spine clock tree, simulate clock
// event propagation with random per-edge delay variation, convert the
// arrivals into array clock offsets, and run a systolic FIR against its
// golden reference; then show the same pipeline corrupting an H-tree-
// clocked array under the adversarial assignment unless the period grows.
func runE13(rc *runCtx) (*ExperimentResult, error) {
	tbl := report.NewTable("E13: simulated clock propagation driving a systolic FIR (m=1, ε=0.2)",
		"n", "clock", "max comm skew", "period", "correct")
	p := clocksim.Params{M: 1, Eps: 0.2}
	pass := true
	for _, n := range sizes(rc.quick, []int{8, 16, 32}, []int{6, 12}) {
		weights := make([]float64, n)
		for i := range weights {
			weights[i] = float64(i%5) - 2
		}
		fir, err := systolic.NewFIR(weights, []float64{2, -1, 3, 0.5})
		if err != nil {
			return nil, err
		}
		g := fir.Machine.Graph()

		// Spine: random fabrication variation; clock travels with data.
		spineTree, err := clocktree.Spine(g)
		if err != nil {
			return nil, err
		}
		arr, err := clocksim.Random(spineTree, p, stats.NewRNG(int64(n)))
		if err != nil {
			return nil, err
		}
		off, err := arr.Offsets(g)
		if err != nil {
			return nil, err
		}
		commSkew, err := arr.MaxCommSkew(g)
		if err != nil {
			return nil, err
		}
		delta := 1 + (p.M+p.Eps)*1.05 // pad for the per-pitch receiver lag
		period := delta + fir.Machine.MaxDirectedSkew(off) + 0.1
		got, err := fir.Machine.RunClocked(fir.Cycles, array.Timing{
			Period: period, CellDelay: delta, HoldDelay: delta,
		}, off)
		if err != nil {
			return nil, err
		}
		okSpine := got.Equal(fir.Golden(fir.Cycles), 1e-9)
		tbl.AddRow(n, "spine", commSkew, period, okSpine)
		if !okSpine {
			pass = false
		}

		// H-tree with the A11 adversary on the worst pair: at the same
		// (constant) period the array must corrupt once n is large.
		htree, err := clocktree.HTree(g)
		if err != nil {
			return nil, err
		}
		worstA, worstB := worstSummationPair(g, htree)
		adv, err := clocksim.Adversarial(htree, p, worstA, worstB)
		if err != nil {
			return nil, err
		}
		offAdv, err := adv.Offsets(g)
		if err != nil {
			return nil, err
		}
		advSkew, err := adv.MaxCommSkew(g)
		if err != nil {
			return nil, err
		}
		gotAdv, err := fir.Machine.RunClocked(fir.Cycles, array.Timing{
			Period: period, CellDelay: delta, HoldDelay: delta,
		}, offAdv)
		if err != nil {
			return nil, err
		}
		okAdv := gotAdv.Equal(fir.Golden(fir.Cycles), 1e-9)
		tbl.AddRow(n, "htree-adv", advSkew, period, okAdv)
		if n >= 16 && okAdv {
			// By n=16 the adversarial skew exceeds what the constant
			// period absorbs; if the run still passes, the electrical
			// model is not biting.
			pass = false
		}
	}
	return &ExperimentResult{
		ID:    "E13",
		Title: "End to end: simulated clock propagation drives a systolic FIR",
		PaperClaim: "Theorem 3 operationally: a pipelined spine clock with " +
			"physical delay variation drives a real array correctly at a " +
			"size-independent period, while an H-tree under the summation " +
			"adversary cannot.",
		Finding: "Spine-clocked FIR matches its golden output at a constant " +
			"period for every n; the H-tree-clocked array corrupts at that " +
			"period once the adversarial skew outgrows it.",
		Pass:  pass,
		Table: tbl,
	}, nil
}

func worstSummationPair(g *comm.Graph, tree *clocktree.Tree) (comm.CellID, comm.CellID) {
	var a, b comm.CellID
	var worst float64
	c := g.PairIndex().Cursor(0)
	for pa, pb, ok := c.Next(); ok; pa, pb, ok = c.Next() {
		if s := tree.CellPathLen(pa, pb); s > worst {
			worst = s
			a, b = pa, pb
		}
	}
	return a, b
}

// runE15: the Section VII practicality analysis — three ways to drive the
// clock tree of an n×n mesh, with a distributed-RC wire model:
//
//   - unbuffered equipotential: settle time grows quadratically with the
//     root-to-leaf length (the raw RC line);
//   - buffered equipotential: restoring buffers at the optimal spacing
//     make the traversal linear in length, but the clock still waits for
//     the whole tree every cycle (A6);
//   - pipelined: several events in flight; the period is set by the
//     per-segment time plus accumulated rise/fall drift, nearly flat.
//
// "We would thus expect pipelined clocking to be most applicable where
// switches are fast and wires are slow" — this table is that statement.
func runE15(rc *runCtx) (*ExperimentResult, error) {
	tbl := report.NewTable("E15: clock period vs mesh size (RC wire R'=C'=1, buffer delay 2, bias 0.01)",
		"n", "root path P", "unbuffered RC", "buffered equipotential", "pipelined")
	wire := wiresim.RCWire{RPerUnit: 1, CPerUnit: 1, BufferDelay: 2}
	spacing, err := wire.OptimalSpacing()
	if err != nil {
		return nil, err
	}
	params := clocksim.Params{M: 1, Eps: 0.1, BufferDelay: wire.BufferDelay,
		MinSeparation: 2 * wire.BufferDelay, RiseFallBias: 0.01}
	var ns, unb, buf, pipe []float64
	for _, n := range sizes(rc.quick, []int{4, 8, 16, 32, 64}, []int{4, 8, 16}) {
		g, err := comm.Mesh(n, n)
		if err != nil {
			return nil, err
		}
		tree, err := clocktree.HTree(g)
		if err != nil {
			return nil, err
		}
		buffered, err := clocktree.Buffered(tree, spacing)
		if err != nil {
			return nil, err
		}
		p := tree.MaxRootDist()
		u, err := wire.UnbufferedSettle(p)
		if err != nil {
			return nil, err
		}
		b, err := wire.BufferedDelay(p, spacing)
		if err != nil {
			return nil, err
		}
		pp := clocksim.MinPipelinedPeriod(buffered, params)
		tbl.AddRow(n, p, u, b, pp)
		ns = append(ns, float64(n))
		unb = append(unb, u)
		buf = append(buf, b)
		pipe = append(pipe, pp)
	}
	fitU, err := stats.FitPowerLaw(ns, unb)
	if err != nil {
		return nil, err
	}
	fitB, err := stats.FitPowerLaw(ns, buf)
	if err != nil {
		return nil, err
	}
	fitP, err := stats.FitPowerLaw(ns, pipe)
	if err != nil {
		return nil, err
	}
	pass := fitU.B > 1.5 && // quadratic-ish
		fitB.B > 0.7 && fitB.B < 1.3 && // linear
		fitP.B < 0.5 && // near-flat
		pipe[len(pipe)-1] < buf[len(buf)-1] && buf[len(buf)-1] < unb[len(unb)-1]
	return &ExperimentResult{
		ID:    "E15",
		Title: "Section VII practicality: when pipelined clocking wins",
		PaperClaim: "Unbuffered clock lines settle in time growing with length " +
			"(quadratically for RC lines); buffering makes distribution linear " +
			"but equipotential clocking still pays the full tree every cycle " +
			"(A6); pipelined clocking pays only per-segment time plus " +
			"accumulated drift — it wins where switches are fast and wires slow.",
		Finding: fmt.Sprintf("Growth exponents: unbuffered n^%.2f, buffered "+
			"equipotential n^%.2f, pipelined n^%.2f — the strict ordering and "+
			"shapes the paper predicts.", fitU.B, fitB.B, fitP.B),
		Pass:  pass,
		Table: tbl,
	}, nil
}

// runE14: metastability accounting — conventional synchronizers fail at
// a rate proportional to the number of asynchronous boundary crossings,
// while the hybrid scheme's subordinated clocks have no crossings at all.
func runE14(rc *runCtx) (*ExperimentResult, error) {
	tbl := report.NewTable("E14: synchronizer MTBF vs asynchronous crossings (τ=1, Tw=0.01, f=100, fd=10)",
		"crossings", "MTBF (resolve=20τ)", "resolve for MTBF 1e9", "simulated failures")
	s := metastable.Synchronizer{Tau: 1, Window: 0.01, ClockFreq: 100, DataRate: 10}
	cycles := 400000
	if rc.quick {
		cycles = 100000
	}
	pass := true
	var prevMTBF float64
	for _, crossings := range sizes(rc.quick, []int{1, 16, 64, 256, 1024}, []int{1, 64, 1024}) {
		mtbf, err := s.SystemMTBF(20, crossings)
		if err != nil {
			return nil, err
		}
		tr, err := s.ResolveTimeForMTBF(1e9, crossings)
		if err != nil {
			return nil, err
		}
		// Simulate one synchronizer at a short resolve time so failures
		// are observable, scaled by the crossing count.
		fails, err := s.SimulateFailures(cycles, 2, stats.NewRNG(int64(crossings)))
		if err != nil {
			return nil, err
		}
		tbl.AddRow(crossings, mtbf, tr, fails*crossings)
		if prevMTBF > 0 && mtbf >= prevMTBF {
			pass = false // MTBF must degrade with more crossings
		}
		prevMTBF = mtbf
	}
	hybridMTBF, err := s.SystemMTBF(20, 0)
	if err != nil {
		return nil, err
	}
	tbl.AddRow("hybrid (0)", hybridMTBF, 0.0, 0)
	if !math.IsInf(hybridMTBF, 1) {
		pass = false
	}
	return &ExperimentResult{
		ID:    "E14",
		Title: "Section VI: metastability accounting, synchronizers vs hybrid",
		PaperClaim: "Subordinating local clocks to the self-timed network " +
			"avoids synchronization failure from metastable flip-flops: an " +
			"element stops its clock synchronously and has it started " +
			"asynchronously.",
		Finding: "Conventional synchronizer MTBF shrinks linearly with the " +
			"number of asynchronous crossings and buying it back costs " +
			"resolution latency growing with ln(crossings); the hybrid " +
			"protocol has zero crossings and infinite MTBF by construction.",
		Pass:  pass,
		Table: tbl,
	}, nil
}
