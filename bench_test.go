package vlsisync

// The benchmark harness regenerates every figure/claim of the paper's
// evaluation (DESIGN.md §4 maps experiment IDs to paper sources). Each
// benchmark runs the experiment's kernel under the Go benchmark driver
// and reports the reproduced quantities as custom metrics, so
//
//	go test -bench=. -benchmem
//
// prints the same series the paper's claims are about. Shape assertions
// (who wins, growth exponents) live in the test suite; benchmarks report
// the raw numbers.

import (
	"fmt"
	"testing"

	"repro/internal/array"
	"repro/internal/clocktree"
	"repro/internal/comm"
	"repro/internal/core"
	"repro/internal/hybrid"
	"repro/internal/selftimed"
	"repro/internal/skew"
	"repro/internal/stats"
	"repro/internal/systolic"
	"repro/internal/treemachine"
	"repro/internal/wiresim"
)

// BenchmarkFig3_HTreeDifferenceModel (E1): building and analyzing the
// equalized H-tree on a 16×16 mesh; metric: max difference-model skew
// (paper: bounded ⇒ 0 after equalization).
func BenchmarkFig3_HTreeDifferenceModel(b *testing.B) {
	g, err := comm.Mesh(16, 16)
	if err != nil {
		b.Fatal(err)
	}
	var maxSkew float64
	for i := 0; i < b.N; i++ {
		tree, err := clocktree.HTree(g)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := tree.Equalize(); err != nil {
			b.Fatal(err)
		}
		a, err := skew.Analyze(g, tree, skew.Difference{})
		if err != nil {
			b.Fatal(err)
		}
		maxSkew = a.MaxSkew
	}
	b.ReportMetric(maxSkew, "skew")
}

// BenchmarkFig3a_HTreeSummationFailure (E2): the same H-tree on a
// 256-cell linear array under the summation model; metric: max skew
// (paper: grows with n — here ≈ n).
func BenchmarkFig3a_HTreeSummationFailure(b *testing.B) {
	g, err := comm.Linear(256)
	if err != nil {
		b.Fatal(err)
	}
	var maxSkew float64
	for i := 0; i < b.N; i++ {
		tree, err := clocktree.HTree(g)
		if err != nil {
			b.Fatal(err)
		}
		a, err := skew.Analyze(g, tree, skew.Summation{Beta: 1})
		if err != nil {
			b.Fatal(err)
		}
		maxSkew = a.MaxSkew
	}
	b.ReportMetric(maxSkew, "skew")
}

// BenchmarkFig4to6_SpineClock1D (E3): spine-clocked 256-cell linear
// array; metric: max summation-model skew (paper: constant = 1 pitch).
func BenchmarkFig4to6_SpineClock1D(b *testing.B) {
	g, err := comm.Linear(256)
	if err != nil {
		b.Fatal(err)
	}
	var maxSkew float64
	for i := 0; i < b.N; i++ {
		tree, err := clocktree.Spine(g)
		if err != nil {
			b.Fatal(err)
		}
		a, err := skew.Analyze(g, tree, skew.Summation{Beta: 1})
		if err != nil {
			b.Fatal(err)
		}
		maxSkew = a.MaxSkew
	}
	b.ReportMetric(maxSkew, "skew")
}

// BenchmarkFig7_MeshSkewLowerBound (E4): the Section V-B certified bound
// on a 16×16 mesh with an H-tree; metrics: certified Ω(n) bound and the
// tree's guaranteed skew.
func BenchmarkFig7_MeshSkewLowerBound(b *testing.B) {
	g, err := comm.Mesh(16, 16)
	if err != nil {
		b.Fatal(err)
	}
	tree, err := clocktree.HTree(g)
	if err != nil {
		b.Fatal(err)
	}
	var certified, guaranteed float64
	for i := 0; i < b.N; i++ {
		cert, err := skew.MeshCertifiedLowerBound(g, tree, 1)
		if err != nil {
			b.Fatal(err)
		}
		certified = cert.Bound
		guaranteed = skew.GuaranteedMinSkew(g, tree, skew.Summation{Beta: 1})
	}
	b.ReportMetric(certified, "certified")
	b.ReportMetric(guaranteed, "guaranteed")
}

// BenchmarkSecI_SelfTimedWorstCase (E5): 64-cell self-timed array with
// P(worst)=0.1; metrics: rigid-wave interval vs the 1−p^k prediction.
func BenchmarkSecI_SelfTimedWorstCase(b *testing.B) {
	g, err := comm.Linear(64)
	if err != nil {
		b.Fatal(err)
	}
	d := selftimed.Delays{Fast: 1, Worst: 2, PWorst: 0.1}
	var interval float64
	for i := 0; i < b.N; i++ {
		r, err := selftimed.RunRigid(g, 500, d, stats.NewRNG(int64(i)))
		if err != nil {
			b.Fatal(err)
		}
		interval = r.MeanInterval
	}
	b.ReportMetric(interval, "interval")
	b.ReportMetric(1+selftimed.WorstCaseProb(0.9, 64), "predicted")
}

// BenchmarkSecVII_InverterChain (E6): the 2048-inverter chip; metrics:
// equipotential and pipelined cycle times (ns) and the speedup (paper:
// 34 µs vs 500 ns, 68×).
func BenchmarkSecVII_InverterChain(b *testing.B) {
	cfg := wiresim.SectionVIIConfig()
	var equi, pipe float64
	for i := 0; i < b.N; i++ {
		s, err := wiresim.NewString(cfg, stats.NewRNG(1))
		if err != nil {
			b.Fatal(err)
		}
		equi = s.EquipotentialCycle()
		pipe = s.MinPipelinedPeriod()
	}
	b.ReportMetric(equi*1e9, "equi_ns")
	b.ReportMetric(pipe*1e9, "pipe_ns")
	b.ReportMetric(equi/pipe, "speedup")
}

// BenchmarkSecVII_PipelinedEventSim (E6 support): full discrete-event
// simulation of 20 pipelined cycles through 2048 stages.
func BenchmarkSecVII_PipelinedEventSim(b *testing.B) {
	s, err := wiresim.NewString(wiresim.SectionVIIConfig(), stats.NewRNG(1))
	if err != nil {
		b.Fatal(err)
	}
	period := s.MinPipelinedPeriod() * 1.01
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := s.PipelinedRun(period, 20, 0, nil); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSecVII_SqrtNYield (E7): Monte-Carlo discrepancy accumulation
// over 1024 stages; metric: mean max discrepancy (grows as √n).
func BenchmarkSecVII_SqrtNYield(b *testing.B) {
	var mean float64
	for i := 0; i < b.N; i++ {
		var sum float64
		const chips = 20
		for seed := int64(0); seed < chips; seed++ {
			s, err := wiresim.NewString(wiresim.Config{N: 1024, StageDelay: 1, NoiseSD: 0.05},
				stats.NewRNG(seed))
			if err != nil {
				b.Fatal(err)
			}
			sum += s.MaxDiscrepancy()
		}
		mean = sum / chips
	}
	b.ReportMetric(mean, "discrepancy")
}

// BenchmarkFig8_HybridVsGlobal (E8): hybrid synchronization of a 16×16
// mesh; metrics: hybrid cycle (constant) vs the global summation-model
// A5 period (grows with n).
func BenchmarkFig8_HybridVsGlobal(b *testing.B) {
	g, err := comm.Mesh(16, 16)
	if err != nil {
		b.Fatal(err)
	}
	cfg := hybrid.Config{ElementSize: 4, Handshake: 0.5, LocalDistribution: 0.4,
		CellDelay: 2, HoldDelay: 0.5}
	var cycle, global float64
	for i := 0; i < b.N; i++ {
		sys, err := hybrid.New(g, cfg)
		if err != nil {
			b.Fatal(err)
		}
		cycle = sys.CycleTime(50)
		tree, err := clocktree.HTree(g)
		if err != nil {
			b.Fatal(err)
		}
		a, err := skew.Analyze(g, tree, skew.Summation{G: func(s float64) float64 { return 0.1 * s }, Beta: 0.1})
		if err != nil {
			b.Fatal(err)
		}
		global = a.MaxSkew + cfg.CellDelay
	}
	b.ReportMetric(cycle, "hybrid_cycle")
	b.ReportMetric(global, "global_period")
}

// BenchmarkFig8_HybridMatMul (E8 support): end-to-end systolic 8×8
// matmul under hybrid synchronization.
func BenchmarkFig8_HybridMatMul(b *testing.B) {
	rng := stats.NewRNG(7)
	a := systolic.NewMatrix(8, 8)
	bb := systolic.NewMatrix(8, 8)
	for i := range a.Data {
		a.Data[i] = rng.Uniform(-1, 1)
		bb.Data[i] = rng.Uniform(-1, 1)
	}
	mm, err := systolic.NewMatMul(a, bb)
	if err != nil {
		b.Fatal(err)
	}
	cfg := hybrid.Config{ElementSize: 4, Handshake: 0.5, LocalDistribution: 0.4,
		CellDelay: 2, HoldDelay: 0.5}
	sys, err := hybrid.New(mm.Machine.Graph(), cfg)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := sys.Run(mm.Machine, mm.Cycles); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkA5_MinWorkingPeriod (E9): bisecting the minimum working clock
// period of a skewed 8-tap FIR; metrics: measured threshold vs A5's σ+δ.
func BenchmarkA5_MinWorkingPeriod(b *testing.B) {
	f, err := systolic.NewFIR([]float64{1, 2, 3, 4, 5, 6, 7, 8}, []float64{1, -1, 2, -2})
	if err != nil {
		b.Fatal(err)
	}
	g := f.Machine.Graph()
	rng := stats.NewRNG(3)
	off := array.Offsets{Cell: make([]float64, g.NumCells()), Host: 0.1, HostRead: 0.1}
	for i := range off.Cell {
		off.Cell[i] = rng.Uniform(0, 0.4)
	}
	timing := array.Timing{CellDelay: 1, HoldDelay: 0.5}
	var measured float64
	for i := 0; i < b.N; i++ {
		p, err := f.Machine.MinWorkingPeriod(24, timing, off, 0, 10, 1e-3)
		if err != nil {
			b.Fatal(err)
		}
		measured = p
	}
	b.ReportMetric(measured, "measured")
	b.ReportMetric(timing.CellDelay+f.Machine.MaxCommSkew(off), "a5_bound")
}

// BenchmarkThm2_GridEmbedding (E10): folding a 16×1024 grid square;
// reported via the experiment table (dilation, area factor).
func BenchmarkThm2_GridEmbedding(b *testing.B) {
	var dilation float64
	for i := 0; i < b.N; i++ {
		r, err := RunExperiment("E10", true)
		if err != nil {
			b.Fatal(err)
		}
		if !r.Pass {
			b.Fatal("E10 failed")
		}
		dilation = 1
	}
	b.ReportMetric(dilation, "pass")
}

// BenchmarkSecVIII_TreeMachine (E11): 512-leaf pipelined tree machine
// processing 200 commands; metrics: latency (O(√N)) and sustained
// interval (constant ≈ 1).
func BenchmarkSecVIII_TreeMachine(b *testing.B) {
	m, err := treemachine.New(treemachine.Config{Levels: 10, BufferSpacing: 1.5})
	if err != nil {
		b.Fatal(err)
	}
	ops := make([]treemachine.Op, 200)
	for i := range ops {
		if i%2 == 0 {
			ops[i] = treemachine.Op{Kind: treemachine.Insert, Key: int64(i)}
		} else {
			ops[i] = treemachine.Op{Kind: treemachine.Query, Key: int64(i - 1)}
		}
	}
	var latency, interval float64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_, st, err := m.Run(ops)
		if err != nil {
			b.Fatal(err)
		}
		latency = float64(st.Latency)
		interval = st.Interval
	}
	b.ReportMetric(latency, "latency")
	b.ReportMetric(interval, "interval")
}

// BenchmarkPlanner: the core decision procedure across the three regimes.
func BenchmarkPlanner(b *testing.B) {
	g, err := comm.Mesh(16, 16)
	if err != nil {
		b.Fatal(err)
	}
	a := core.Assumptions{Model: core.SummationModel, M: 1, Eps: 0.1, Delta: 2, BufferSpacing: 1}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := core.NewPlan(g, a); err != nil {
			b.Fatal(err)
		}
	}
}

// Ablation benches (DESIGN.md §5).

// BenchmarkAblation_BufferSpacing: buffer pitch vs inserted buffer count
// on a 16×16 H-tree (A7's τ-vs-area tradeoff).
func BenchmarkAblation_BufferSpacing(b *testing.B) {
	g, err := comm.Mesh(16, 16)
	if err != nil {
		b.Fatal(err)
	}
	tree, err := clocktree.HTree(g)
	if err != nil {
		b.Fatal(err)
	}
	for _, spacing := range []float64{0.5, 1, 2, 4} {
		spacing := spacing
		b.Run(formatFloat(spacing), func(b *testing.B) {
			var buffers int
			for i := 0; i < b.N; i++ {
				buf, err := clocktree.Buffered(tree, spacing)
				if err != nil {
					b.Fatal(err)
				}
				buffers = buf.BufferCount()
			}
			b.ReportMetric(float64(buffers), "buffers")
		})
	}
}

// BenchmarkAblation_TreeCandidates: which tree family minimizes
// summation-model skew on a mesh (none escapes Ω(n), but constants vary).
func BenchmarkAblation_TreeCandidates(b *testing.B) {
	g, err := comm.Mesh(16, 16)
	if err != nil {
		b.Fatal(err)
	}
	for _, f := range skew.StandardFactories(2, 42) {
		f := f
		b.Run(f.Name, func(b *testing.B) {
			var guaranteed float64
			for i := 0; i < b.N; i++ {
				tree, err := f.Build(g)
				if err != nil {
					b.Fatal(err)
				}
				guaranteed = skew.GuaranteedMinSkew(g, tree, skew.Summation{Beta: 1})
			}
			b.ReportMetric(guaranteed, "skew")
		})
	}
}

// BenchmarkAblation_ElementSize: hybrid element size vs cycle time and
// element count (handshake overhead vs locality).
func BenchmarkAblation_ElementSize(b *testing.B) {
	g, err := comm.Mesh(16, 16)
	if err != nil {
		b.Fatal(err)
	}
	for _, size := range []float64{2, 4, 8} {
		size := size
		b.Run(formatFloat(size), func(b *testing.B) {
			cfg := hybrid.Config{ElementSize: size, Handshake: 0.5,
				LocalDistribution: 0.1 * size, CellDelay: 2, HoldDelay: 0.5}
			var cycle float64
			var elements int
			for i := 0; i < b.N; i++ {
				sys, err := hybrid.New(g, cfg)
				if err != nil {
					b.Fatal(err)
				}
				cycle = sys.CycleTime(20)
				elements = sys.NumElements()
			}
			b.ReportMetric(cycle, "cycle")
			b.ReportMetric(float64(elements), "elements")
		})
	}
}

func formatFloat(f float64) string {
	return fmt.Sprintf("%g", f)
}
