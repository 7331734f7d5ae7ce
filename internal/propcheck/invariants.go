package propcheck

import (
	"context"
	"fmt"
	"math"

	"repro/internal/clocksim"
	"repro/internal/clocktree"
	"repro/internal/comm"
	"repro/internal/faults"
	"repro/internal/hybrid"
	"repro/internal/selftimed"
	"repro/internal/skew"
	"repro/internal/stats"
	"repro/internal/wiresim"
)

// registry is the ordered list of mechanized paper invariants. Each entry
// cites the theorem or assumption it checks; DESIGN.md carries the prose
// mapping.
var registry = []Invariant{
	{
		Name:  "analysis-bounds-montecarlo",
		Ref:   "Section III (A9–A11)",
		Doc:   "worst-case skew analysis upper-bounds Monte-Carlo sampled skew",
		Check: checkAnalysisBoundsMonteCarlo,
	},
	{
		Name:  "kernel-matches-reference",
		Ref:   "Sections III–V (implementation)",
		Doc:   "precomputed skew kernels reproduce the reference analysis and Monte-Carlo bit for bit",
		Check: checkKernelMatchesReference,
	},
	{
		Name:  "streamed-analyze-matches-kernel",
		Ref:   "Sections III–V (implementation)",
		Doc:   "the streamed tier and its shard fold reproduce the resident kernel analysis bit for bit at any shard size and worker count, and exhaustive sampled Monte Carlo recovers the exact maximum",
		Check: checkStreamedMatchesKernel,
	},
	{
		Name:  "clocksim-kernel-matches-reference",
		Ref:   "Section III (implementation)",
		Doc:   "the skew kernel's clock-regime skews reproduce clocksim's retained reference propagation bit for bit",
		Check: checkClocksimKernelMatchesReference,
	},
	{
		Name:  "hybrid-kernel-matches-reference",
		Ref:   "Section VI (implementation)",
		Doc:   "the hybrid kernel's firing times, cycle time, and handshake runs reproduce the reference recurrence bit for bit",
		Check: checkHybridKernelMatchesReference,
	},
	{
		Name:  "selftimed-kernel-matches-reference",
		Ref:   "Sections I and VI (implementation)",
		Doc:   "the self-timed kernel's elastic, faulty, and rigid runs reproduce the reference event queue bit for bit",
		Check: checkSelftimedKernelMatchesReference,
	},
	{
		Name:  "wiresim-kernel-matches-reference",
		Ref:   "Section VII (implementation)",
		Doc:   "the inverter-string prefix kernel's scalar queries and pipelined replay reproduce the reference walks and DES bit for bit",
		Check: checkWiresimKernelMatchesReference,
	},
	{
		Name:  "adversarial-achieves-linear-lowerbound",
		Ref:   "Section III (A11)",
		Doc:   "an adversarial-but-consistent delay assignment realizes an arrival gap of exactly M·d + Eps·s",
		Check: checkAdversarialAchievesLowerBound,
	},
	{
		Name:  "htree-difference-period-size-independent",
		Ref:   "Theorem 2",
		Doc:   "equalized H-tree clocking has zero difference-model skew at every mesh size",
		Check: checkHTreeDifferenceSizeIndependent,
	},
	{
		Name:  "equalize-zeroes-difference-skew",
		Ref:   "Theorem 2 / Section VII (tuning)",
		Doc:   "equalizing any clock tree zeroes every difference-model skew bound",
		Check: checkEqualizeZeroesDifferenceSkew,
	},
	{
		Name:  "spine-adjacent-tree-distance-constant",
		Ref:   "Theorem 3",
		Doc:   "spine clocking keeps communicating-pair tree distance constant as 1D arrays grow",
		Check: checkSpineTreeDistanceConstant,
	},
	{
		Name:  "mesh-summation-lowerbound-grows",
		Ref:   "Theorem 6 / Section V-B",
		Doc:   "the certified summation-model skew lower bound grows when the mesh side doubles",
		Check: checkMeshLowerBoundGrows,
	},
	{
		Name:  "fold-comb-preserve-comm-graph",
		Ref:   "Section IV (Figs. 5–6)",
		Doc:   "folding and comb layouts reposition cells but preserve the communication graph",
		Check: checkFoldCombPreserveGraph,
	},
	{
		Name:  "hybrid-firing-times-monotone",
		Ref:   "Section VI",
		Doc:   "hybrid firing times increase every wave, neighbor drift stays within hop distance, cycle time is size-independent",
		Check: checkFiringTimesMonotone,
	},
	{
		Name:  "handshake-matches-recurrence",
		Ref:   "Section VI",
		Doc:   "the simulated req/ack protocol reproduces the firing-time recurrence",
		Check: checkHandshakeMatchesRecurrence,
	},
	{
		Name:  "faulty-handshake-bounded-stall",
		Ref:   "Section VI (robustness)",
		Doc:   "injected message faults only postpone firings, by at most one worst-case extra per wave",
		Check: checkFaultyHandshakeBoundedStall,
	},
	{
		Name:  "faulty-hybrid-no-corruption",
		Ref:   "Section VI (robustness)",
		Doc:   "a hybrid run under injected faults still produces the ideal lock-step trace",
		Check: checkFaultyHybridNoCorruption,
	},
	{
		Name:  "selftimed-faults-bounded-stall",
		Ref:   "Sections I and VI (robustness)",
		Doc:   "self-timed token transfers under faults stall by at most the total injected delay",
		Check: checkSelfTimedFaultsBounded,
	},
	{
		Name:  "jittered-arrivals-bounded-excess",
		Ref:   "Section III (A9 violation)",
		Doc:   "clock jitter beyond the delay band only adds, bounded per root-path edge",
		Check: checkJitteredArrivalsBounded,
	},
	{
		Name:  "ring-rebalance-bounded",
		Ref:   "cluster sharding (implementation)",
		Doc:   "consistent-hash routing is member-order independent, and membership churn moves only the joiner's or leaver's keys",
		Check: checkRingRebalanceBounded,
	},
}

func checkAnalysisBoundsMonteCarlo(rng *stats.RNG) error {
	g, err := AnyGraph(rng)
	if err != nil {
		return err
	}
	tree, err := TreeFor(rng, g)
	if err != nil {
		return err
	}
	m := LinearModel(rng)
	an, err := skew.Analyze(g, tree, m)
	if err != nil {
		return err
	}
	mc, err := skew.MonteCarlo(g, tree, m, 15, rng.Fork(1))
	if err != nil {
		return err
	}
	if mc > an.MaxSkew+1e-9 {
		return fmt.Errorf("%s on %s: Monte-Carlo skew %g exceeds analysis bound %g",
			g.Name, tree.Name, mc, an.MaxSkew)
	}
	return nil
}

// checkKernelMatchesReference pins the kernel fast paths to the retained
// pre-kernel implementations with zero tolerance: same Analysis field
// for field (the reference recomputes every distance through its own
// parent-walk LCA, so this also cross-checks the tree's jump-pointer
// LCA search), same guaranteed minimum, and bit-identical Monte-Carlo
// results for a shared seed.
func checkKernelMatchesReference(rng *stats.RNG) error {
	g, err := AnyGraph(rng)
	if err != nil {
		return err
	}
	tree, err := TreeFor(rng, g)
	if err != nil {
		return err
	}
	m := LinearModel(rng)
	got, err := skew.Analyze(g, tree, m)
	if err != nil {
		return err
	}
	want, err := skew.ReferenceAnalyze(g, tree, m)
	if err != nil {
		return err
	}
	if got != want {
		return fmt.Errorf("%s on %s: kernel analysis %+v != reference %+v", g.Name, tree.Name, got, want)
	}
	if km, rm := skew.GuaranteedMinSkew(g, tree, m), skew.ReferenceGuaranteedMinSkew(g, tree, m); km != rm {
		return fmt.Errorf("%s on %s: kernel guaranteed min %g != reference %g", g.Name, tree.Name, km, rm)
	}
	trials := intIn(rng, 1, 12)
	seed := rng.Int63()
	kmc, err := skew.MonteCarlo(g, tree, m, trials, stats.NewRNG(seed))
	if err != nil {
		return err
	}
	rmc, err := skew.ReferenceMonteCarlo(g, tree, m, trials, stats.NewRNG(seed))
	if err != nil {
		return err
	}
	if kmc != rmc {
		return fmt.Errorf("%s on %s seed=%d trials=%d: kernel Monte-Carlo %v != reference %v",
			g.Name, tree.Name, seed, trials, kmc, rmc)
	}
	return nil
}

// checkStreamedMatchesKernel pins the streamed tier to the resident
// kernel with zero tolerance: on a random (graph, tree, model), a
// streamed-tier kernel's Analyze and its Stream under a random shard
// size and worker count must reproduce the resident kernel's Analysis
// and guaranteed minimum bit for bit (both walk the pair index with the
// same ascending strictly-greater scan, and the sketch merge is
// order-independent), the merged quantiles must
// stay within the sketch's advertised relative error of the exact
// maximum, and a sampled Monte-Carlo run whose reservoir covers every
// pair must degenerate to the exact maximum.
func checkStreamedMatchesKernel(rng *stats.RNG) error {
	g, err := AnyGraph(rng)
	if err != nil {
		return err
	}
	tree, err := TreeFor(rng, g)
	if err != nil {
		return err
	}
	m := LinearModel(rng)
	want, err := skew.Analyze(g, tree, m)
	if err != nil {
		return err
	}
	// A one-byte budget puts any array on the streamed tier.
	st, err := skew.NewKernelWithLimits(g, tree, skew.Limits{MaxBytes: 1})
	if err != nil {
		return err
	}
	if st.SizeError() == nil {
		return fmt.Errorf("%s on %s: a one-byte budget built a resident kernel", g.Name, tree.Name)
	}
	if an := st.Analyze(m); an != want {
		return fmt.Errorf("%s on %s: streamed-tier analysis %+v != resident %+v", g.Name, tree.Name, an, want)
	}
	opt := skew.StreamOptions{
		ShardSize: int64(intIn(rng, 1, 64)),
		Workers:   intIn(rng, 1, 4),
	}
	got, err := st.Stream(context.Background(), m, opt)
	if err != nil {
		return err
	}
	if got.Analysis != want {
		return fmt.Errorf("%s on %s shard=%d workers=%d: streamed analysis %+v != kernel %+v",
			g.Name, tree.Name, opt.ShardSize, opt.Workers, got.Analysis, want)
	}
	if km := skew.GuaranteedMinSkew(g, tree, m); got.GuaranteedMinSkew != km {
		return fmt.Errorf("%s on %s: streamed guaranteed min %g != kernel %g", g.Name, tree.Name, got.GuaranteedMinSkew, km)
	}
	if got.P50 > got.P90 || got.P90 > got.P99 {
		return fmt.Errorf("%s on %s: quantiles not monotone: p50=%g p90=%g p99=%g", g.Name, tree.Name, got.P50, got.P90, got.P99)
	}
	if got.P99 > want.MaxSkew*(1+got.QuantileRelError)+1e-9 {
		return fmt.Errorf("%s on %s: p99 %g escapes exact max %g beyond rel error %g",
			g.Name, tree.Name, got.P99, want.MaxSkew, got.QuantileRelError)
	}
	opt.MCTrials = intIn(rng, 1, 4)
	opt.MCSampleCap = int64(st.Pairs()) + 1
	opt.Seed = rng.Int63()
	got, err = st.Stream(context.Background(), m, opt)
	if err != nil {
		return err
	}
	if got.Sampled == nil || !got.Sampled.Exhaustive {
		return fmt.Errorf("%s on %s: full-coverage sampled run not marked exhaustive: %+v", g.Name, tree.Name, got.Sampled)
	}
	if got.Sampled.Max != want.MaxSkew || got.Sampled.CI95 != 0 {
		return fmt.Errorf("%s on %s: exhaustive sampled max %g (ci %g) != exact %g",
			g.Name, tree.Name, got.Sampled.Max, got.Sampled.CI95, want.MaxSkew)
	}
	return nil
}

// checkClocksimKernelMatchesReference pins the skew kernel's clock
// regime fast paths to the retained reference propagation with zero
// tolerance on a random (graph, tree, model): nominal, same-seed
// random, same-(seed, fault-config) jittered, adversarial over a
// random communicating pair, and the derived drift and period figures.
func checkClocksimKernelMatchesReference(rng *stats.RNG) error {
	g, err := AnyGraph(rng)
	if err != nil {
		return err
	}
	tree, err := TreeFor(rng, g)
	if err != nil {
		return err
	}
	m := LinearModel(rng)
	p := clocksim.Params{M: m.M, Eps: m.Eps}
	k, err := clocksim.NewKernel(g, tree)
	if err != nil {
		return err
	}
	refSkew := func(arr *clocksim.Arrivals, err error) (float64, error) {
		if err != nil {
			return 0, err
		}
		return arr.MaxCommSkew(g)
	}
	kn, err := k.NominalSkew(p)
	if err != nil {
		return err
	}
	rn, err := refSkew(clocksim.ReferenceNominal(tree, p))
	if err != nil {
		return err
	}
	if kn != rn {
		return fmt.Errorf("%s on %s: kernel nominal skew %g != reference %g", g.Name, tree.Name, kn, rn)
	}
	seed := rng.Int63()
	kr, err := k.RandomSkew(p, stats.NewRNG(seed))
	if err != nil {
		return err
	}
	rr, err := refSkew(clocksim.ReferenceRandom(tree, p, stats.NewRNG(seed)))
	if err != nil {
		return err
	}
	if kr != rr {
		return fmt.Errorf("%s on %s seed=%d: kernel random skew %g != reference %g", g.Name, tree.Name, seed, kr, rr)
	}
	cfg := JitterFaults(rng)
	faultSeed := rng.Int63()
	injK, err := faults.New(cfg, faultSeed)
	if err != nil {
		return err
	}
	injR, err := faults.New(cfg, faultSeed)
	if err != nil {
		return err
	}
	kj, err := k.JitteredSkew(p, stats.NewRNG(seed), injK)
	if err != nil {
		return err
	}
	rj, err := refSkew(clocksim.ReferenceJittered(tree, p, stats.NewRNG(seed), injR))
	if err != nil {
		return err
	}
	if kj != rj {
		return fmt.Errorf("%s on %s seed=%d fault seed=%d: kernel jittered skew %g != reference %g",
			g.Name, tree.Name, seed, faultSeed, kj, rj)
	}
	if injK.Counts() != injR.Counts() {
		return fmt.Errorf("%s on %s fault seed=%d: kernel fault tallies %+v != reference %+v",
			g.Name, tree.Name, faultSeed, injK.Counts(), injR.Counts())
	}
	if ix := g.PairIndex(); ix.NumPairs() > 0 {
		a, b := ix.Pair(int64(rng.Intn(int(ix.NumPairs()))))
		ka, err := k.AdversarialSkew(p, a, b)
		if err != nil {
			return err
		}
		ra, err := refSkew(clocksim.ReferenceAdversarial(tree, p, a, b))
		if err != nil {
			return err
		}
		if ka != ra {
			return fmt.Errorf("%s on %s pair (%d,%d): kernel adversarial skew %g != reference %g",
				g.Name, tree.Name, a, b, ka, ra)
		}
	}
	if kd, rd := k.MaxEventDrift(p), clocksim.ReferenceMaxEventDrift(tree, p); kd != rd {
		return fmt.Errorf("%s on %s: kernel max event drift %g != reference %g", g.Name, tree.Name, kd, rd)
	}
	if kp, rp := k.MinPipelinedPeriod(p), clocksim.ReferenceMinPipelinedPeriod(tree, p); kp != rp {
		return fmt.Errorf("%s on %s: kernel min pipelined period %g != reference %g", g.Name, tree.Name, kp, rp)
	}
	return nil
}

// checkHybridKernelMatchesReference pins the hybrid kernel's flat-array
// wavefronts to the reference per-wave recurrence with zero tolerance:
// firing times, cycle time, the simulated handshake protocol, and the
// fault-injected protocol under identically seeded injectors.
func checkHybridKernelMatchesReference(rng *stats.RNG) error {
	s, _, err := randomSystem(rng)
	if err != nil {
		return err
	}
	waves := intIn(rng, 2, 8)
	sameWaves := func(what string, got, want [][]float64) error {
		if len(got) != len(want) {
			return fmt.Errorf("%s: kernel returned %d waves, reference %d", what, len(got), len(want))
		}
		for k := range got {
			for v := range got[k] {
				if got[k][v] != want[k][v] {
					return fmt.Errorf("%s wave %d element %d: kernel %g != reference %g",
						what, k, v, got[k][v], want[k][v])
				}
			}
		}
		return nil
	}
	if err := sameWaves("FiringTimes", s.FiringTimes(waves), s.ReferenceFiringTimes(waves)); err != nil {
		return err
	}
	if kc, rc := s.CycleTime(waves), s.ReferenceCycleTime(waves); kc != rc {
		return fmt.Errorf("CycleTime(%d): kernel %g != reference %g", waves, kc, rc)
	}
	kh, err := s.SimulateHandshake(waves)
	if err != nil {
		return err
	}
	rh, err := s.ReferenceSimulateHandshake(waves)
	if err != nil {
		return err
	}
	if err := sameWaves("SimulateHandshake", kh, rh); err != nil {
		return err
	}
	cfg := MessageFaults(rng)
	faultSeed := rng.Int63()
	injK, err := faults.New(cfg, faultSeed)
	if err != nil {
		return err
	}
	injR, err := faults.New(cfg, faultSeed)
	if err != nil {
		return err
	}
	kf, err := s.SimulateHandshakeFaulty(waves, injK)
	if err != nil {
		return err
	}
	rf, err := s.ReferenceSimulateHandshakeFaulty(waves, injR)
	if err != nil {
		return err
	}
	if err := sameWaves(fmt.Sprintf("SimulateHandshakeFaulty seed=%d", faultSeed), kf, rf); err != nil {
		return err
	}
	if injK.Counts() != injR.Counts() {
		return fmt.Errorf("fault seed=%d: kernel fault tallies %+v != reference %+v",
			faultSeed, injK.Counts(), injR.Counts())
	}
	return nil
}

// checkSelftimedKernelMatchesReference pins the self-timed kernel's
// flattened history ring to the reference event propagation with zero
// tolerance: elastic, fault-injected elastic (identically seeded
// injectors, identical tallies), and rigid runs on one random graph.
func checkSelftimedKernelMatchesReference(rng *stats.RNG) error {
	g, err := AnyGraph(rng)
	if err != nil {
		return err
	}
	d := SelfTimedDelays(rng)
	depth := intIn(rng, 1, 4)
	waves := intIn(rng, 2, 24)
	seed := rng.Int63()
	got, err := selftimed.RunElastic(g, waves, d, depth, stats.NewRNG(seed))
	if err != nil {
		return err
	}
	want, err := selftimed.ReferenceRunElastic(g, waves, d, depth, stats.NewRNG(seed))
	if err != nil {
		return err
	}
	if got != want {
		return fmt.Errorf("%s depth=%d waves=%d seed=%d: kernel elastic %+v != reference %+v",
			g.Name, depth, waves, seed, got, want)
	}
	cfg := MessageFaults(rng)
	faultSeed := rng.Int63()
	injK, err := faults.New(cfg, faultSeed)
	if err != nil {
		return err
	}
	injR, err := faults.New(cfg, faultSeed)
	if err != nil {
		return err
	}
	got, err = selftimed.RunElasticFaulty(g, waves, d, depth, stats.NewRNG(seed), injK)
	if err != nil {
		return err
	}
	want, err = selftimed.ReferenceRunElasticFaulty(g, waves, d, depth, stats.NewRNG(seed), injR)
	if err != nil {
		return err
	}
	if got != want {
		return fmt.Errorf("%s depth=%d waves=%d seed=%d fault seed=%d: kernel faulty elastic %+v != reference %+v",
			g.Name, depth, waves, seed, faultSeed, got, want)
	}
	if injK.Counts() != injR.Counts() {
		return fmt.Errorf("%s fault seed=%d: kernel fault tallies %+v != reference %+v",
			g.Name, faultSeed, injK.Counts(), injR.Counts())
	}
	got, err = selftimed.RunRigid(g, waves, d, stats.NewRNG(seed))
	if err != nil {
		return err
	}
	want, err = selftimed.ReferenceRunRigid(g, waves, d, stats.NewRNG(seed))
	if err != nil {
		return err
	}
	if got != want {
		return fmt.Errorf("%s waves=%d seed=%d: kernel rigid %+v != reference %+v",
			g.Name, waves, seed, got, want)
	}
	return nil
}

// checkWiresimKernelMatchesReference pins the inverter-string prefix
// kernel to the reference walks and DES with zero tolerance on a
// random string: every O(1) scalar query, plus pipelined runs at a
// safe, a tight, and (with noise seeded identically) a jittered
// period. Overtaking strings exercise the DES fallback transparently.
func checkWiresimKernelMatchesReference(rng *stats.RNG) error {
	cfg := wiresim.Config{
		N:          intIn(rng, 1, 96),
		StageDelay: rng.Uniform(0.5, 2),
		OneShot:    rng.Intn(4) == 0,
	}
	// Biases stay under ±40% of the stage delay so every per-stage
	// delay remains positive (NewString rejects swallowed stages).
	cfg.EvenBias = rng.Uniform(-0.4, 0.4) * cfg.StageDelay
	cfg.OddBias = rng.Uniform(-0.4, 0.4) * cfg.StageDelay
	var strRNG *stats.RNG
	if rng.Intn(2) == 0 {
		cfg.NoiseSD = rng.Uniform(0, 0.05) * cfg.StageDelay
		strRNG = rng.Fork(7)
	}
	s, err := wiresim.NewString(cfg, strRNG)
	if err != nil {
		return err
	}
	type scalar struct {
		name      string
		got, want float64
	}
	for _, q := range []scalar{
		{"TraversalTime(Rising)", s.TraversalTime(wiresim.Rising), s.ReferenceTraversalTime(wiresim.Rising)},
		{"TraversalTime(Falling)", s.TraversalTime(wiresim.Falling), s.ReferenceTraversalTime(wiresim.Falling)},
		{"EquipotentialCycle", s.EquipotentialCycle(), s.ReferenceEquipotentialCycle()},
		{"MaxDiscrepancy", s.MaxDiscrepancy(), s.ReferenceMaxDiscrepancy()},
		{"MinPipelinedPeriod", s.MinPipelinedPeriod(), s.ReferenceMinPipelinedPeriod()},
		{"Speedup", s.Speedup(), s.ReferenceSpeedup()},
	} {
		if q.got != q.want {
			return fmt.Errorf("n=%d: kernel %s %g != reference %g", cfg.N, q.name, q.got, q.want)
		}
	}
	cycles := intIn(rng, 1, 16)
	for _, scale := range []float64{1.1, 0.9} {
		period := s.MinPipelinedPeriod() * scale
		got, err := s.PipelinedRun(period, cycles, 0, nil)
		if err != nil {
			return err
		}
		want, err := s.ReferencePipelinedRun(period, cycles, 0, nil)
		if err != nil {
			return err
		}
		if err := sameWiresimRun(got, want); err != nil {
			return fmt.Errorf("n=%d period=%g cycles=%d: %w", cfg.N, period, cycles, err)
		}
	}
	jitterSeed := rng.Int63()
	jsd := rng.Uniform(0, 0.05) * cfg.StageDelay
	if jsd > 0 {
		period := s.MinPipelinedPeriod() * 1.2
		got, err := s.PipelinedRun(period, cycles, jsd, stats.NewRNG(jitterSeed))
		if err != nil {
			return err
		}
		want, err := s.ReferencePipelinedRun(period, cycles, jsd, stats.NewRNG(jitterSeed))
		if err != nil {
			return err
		}
		if err := sameWiresimRun(got, want); err != nil {
			return fmt.Errorf("n=%d jitter seed=%d: %w", cfg.N, jitterSeed, err)
		}
	}
	return nil
}

// sameWiresimRun compares two pipelined run results at tolerance 0.
func sameWiresimRun(got, want wiresim.RunResult) error {
	if got.MinSpacing != want.MinSpacing || got.Violations != want.Violations ||
		got.EdgesDelivered != want.EdgesDelivered || len(got.OutputSpacings) != len(want.OutputSpacings) {
		return fmt.Errorf("kernel run %+v != reference %+v", got, want)
	}
	for i := range got.OutputSpacings {
		if got.OutputSpacings[i] != want.OutputSpacings[i] {
			return fmt.Errorf("output spacing %d: kernel %g != reference %g",
				i, got.OutputSpacings[i], want.OutputSpacings[i])
		}
	}
	return nil
}

func checkAdversarialAchievesLowerBound(rng *stats.RNG) error {
	g, err := AnyGraph(rng)
	if err != nil {
		return err
	}
	tree, err := TreeFor(rng, g)
	if err != nil {
		return err
	}
	ix := g.PairIndex()
	if ix.NumPairs() == 0 {
		return fmt.Errorf("%s has no communicating pairs", g.Name)
	}
	pa, pb := ix.Pair(int64(rng.Intn(int(ix.NumPairs()))))
	m := LinearModel(rng)
	arr, err := clocksim.Adversarial(tree, clocksim.Params{M: m.M, Eps: m.Eps}, pa, pb)
	if err != nil {
		return err
	}
	ta, err := arr.CellArrival(pa)
	if err != nil {
		return err
	}
	tb, err := arr.CellArrival(pb)
	if err != nil {
		return err
	}
	// Slow wires toward a, fast toward b: the arrival gap is exactly
	// M·(da−db) + Eps·(da+db) = M·d_signed + Eps·s, which for equidistant
	// cells (the Theorem 2 regime) is A11's Eps·s.
	na, _ := tree.CellNode(pa)
	nb, _ := tree.CellNode(pb)
	got := ta - tb
	want := m.M*(tree.RootDist(na)-tree.RootDist(nb)) + m.Eps*tree.CellPathLen(pa, pb)
	if math.Abs(got-want) > 1e-9*(1+math.Abs(want)) {
		return fmt.Errorf("%s on %s pair (%d,%d): adversarial arrival gap %g, want M·d+Eps·s = %g",
			g.Name, tree.Name, pa, pb, got, want)
	}
	an, err := skew.Analyze(g, tree, m)
	if err != nil {
		return err
	}
	worst, err := arr.MaxCommSkew(g)
	if err != nil {
		return err
	}
	if worst > an.MaxSkew+1e-9 {
		return fmt.Errorf("%s on %s: adversarial comm skew %g exceeds analysis bound %g",
			g.Name, tree.Name, worst, an.MaxSkew)
	}
	return nil
}

// equalizedHTreeDifferenceSkew builds an equalized H-tree over an n×n
// mesh and returns its difference-model worst-case skew.
func equalizedHTreeDifferenceSkew(n int) (float64, error) {
	g, err := comm.Mesh(n, n)
	if err != nil {
		return 0, err
	}
	tree, err := clocktree.HTree(g)
	if err != nil {
		return 0, err
	}
	if _, err := tree.Equalize(); err != nil {
		return 0, err
	}
	an, err := skew.Analyze(g, tree, skew.Difference{})
	if err != nil {
		return 0, err
	}
	return an.MaxSkew, nil
}

func checkHTreeDifferenceSizeIndependent(rng *stats.RNG) error {
	n1 := intIn(rng, 2, 6)
	n2 := n1 + intIn(rng, 1, 6)
	s1, err := equalizedHTreeDifferenceSkew(n1)
	if err != nil {
		return err
	}
	s2, err := equalizedHTreeDifferenceSkew(n2)
	if err != nil {
		return err
	}
	// Theorem 2: zero difference-model skew at every size, so the clock
	// period (cell delay + skew budget) cannot depend on array size.
	if s1 > 1e-9 || s2 > 1e-9 {
		return fmt.Errorf("equalized H-tree difference skew nonzero: n=%d gives %g, n=%d gives %g",
			n1, s1, n2, s2)
	}
	return nil
}

func checkEqualizeZeroesDifferenceSkew(rng *stats.RNG) error {
	g, err := AnyGraph(rng)
	if err != nil {
		return err
	}
	tree, err := LeafTreeFor(rng, g)
	if err != nil {
		return err
	}
	added, err := tree.Equalize()
	if err != nil {
		return err
	}
	if added < 0 {
		return fmt.Errorf("Equalize removed wire: %g", added)
	}
	if err := tree.Validate(); err != nil {
		return fmt.Errorf("equalized tree invalid: %w", err)
	}
	// Buffering must keep the tuning slack: the buffered copy of the
	// equalized tree is zero-skew too.
	buffered, err := clocktree.Buffered(tree, 0.25+2*rng.Float64())
	if err != nil {
		return err
	}
	for _, tr := range []*clocktree.Tree{tree, buffered} {
		an, err := skew.Analyze(g, tr, skew.Difference{})
		if err != nil {
			return err
		}
		if an.MaxSkew > 1e-9 {
			return fmt.Errorf("%s on equalized %s: difference skew %g, want 0", g.Name, tr.Name, an.MaxSkew)
		}
	}
	return nil
}

// spineMaxTreeDistance returns the largest communicating-pair tree-path
// length of a spine-clocked n-cell linear array.
func spineMaxTreeDistance(n int) (float64, error) {
	g, err := comm.Linear(n)
	if err != nil {
		return 0, err
	}
	tree, err := clocktree.Spine(g)
	if err != nil {
		return 0, err
	}
	// Eps-only linear model makes MaxSkew = Eps · max tree-path length.
	an, err := skew.Analyze(g, tree, skew.Linear{M: 0, Eps: 1})
	if err != nil {
		return 0, err
	}
	return an.MaxSkew, nil
}

func checkSpineTreeDistanceConstant(rng *stats.RNG) error {
	n1 := intIn(rng, 3, 12)
	n2 := n1 + intIn(rng, 1, 20)
	s1, err := spineMaxTreeDistance(n1)
	if err != nil {
		return err
	}
	s2, err := spineMaxTreeDistance(n2)
	if err != nil {
		return err
	}
	// Theorem 3: adjacent cells are adjacent on the spine, so their tree
	// distance — and with it the summation-model skew — does not grow
	// with array length.
	if math.Abs(s1-s2) > 1e-9 {
		return fmt.Errorf("spine max tree distance grew with size: n=%d gives %g, n=%d gives %g",
			n1, s1, n2, s2)
	}
	return nil
}

// certifiedMeshBound returns the Section V-B certified lower bound for an
// H-tree-clocked n×n mesh.
func certifiedMeshBound(n int, beta float64) (float64, error) {
	g, err := comm.Mesh(n, n)
	if err != nil {
		return 0, err
	}
	tree, err := clocktree.HTree(g)
	if err != nil {
		return 0, err
	}
	cert, err := skew.MeshCertifiedLowerBound(g, tree, beta)
	if err != nil {
		return 0, err
	}
	// Soundness: a certified lower bound may never exceed the model's
	// guaranteed skew for the tree it certifies.
	if guaranteed := skew.GuaranteedMinSkew(g, tree, skew.Summation{Beta: beta}); cert.Bound > guaranteed+1e-6 {
		return 0, fmt.Errorf("n=%d: certified bound %g exceeds guaranteed skew %g", n, cert.Bound, guaranteed)
	}
	return cert.Bound, nil
}

func checkMeshLowerBoundGrows(rng *stats.RNG) error {
	n := intIn(rng, 8, 11)
	beta := rng.Uniform(0.2, 1)
	b1, err := certifiedMeshBound(n, beta)
	if err != nil {
		return err
	}
	b2, err := certifiedMeshBound(2*n, beta)
	if err != nil {
		return err
	}
	if b1 <= 0 {
		return fmt.Errorf("n=%d beta=%g: certified bound %g, want positive", n, beta, b1)
	}
	// Theorem 6: σ = Ω(n), so doubling the side must raise the bound.
	if b2 <= b1 {
		return fmt.Errorf("beta=%g: certified bound fell from %g (n=%d) to %g (n=%d)",
			beta, b1, n, b2, 2*n)
	}
	return nil
}

func checkFoldCombPreserveGraph(rng *stats.RNG) error {
	g, err := comm.Linear(intIn(rng, 3, 16))
	if err != nil {
		return err
	}
	folded, err := comm.FoldLinear(g)
	if err != nil {
		return err
	}
	comb, err := comm.CombLinear(g, intIn(rng, 2, 5))
	if err != nil {
		return err
	}
	for _, tc := range []struct {
		layout  *comm.Graph
		maxStep float64
	}{{folded, math.Sqrt2}, {comb, 2}} {
		if err := sameCommGraph(g, tc.layout); err != nil {
			return err
		}
		// The layouts' point: successive cells stay within a constant
		// pitch, so Theorem 3 spine clocking still applies.
		for i := 1; i < tc.layout.NumCells(); i++ {
			d := tc.layout.Cell(comm.CellID(i)).Pos.Dist(tc.layout.Cell(comm.CellID(i - 1)).Pos)
			if d > tc.maxStep+1e-9 {
				return fmt.Errorf("%s: cells %d,%d at distance %g > %g",
					tc.layout.Name, i-1, i, d, tc.maxStep)
			}
		}
	}
	return nil
}

// sameCommGraph verifies b has exactly a's cells and edges (layout
// transforms may only move positions — communication is untouched).
func sameCommGraph(a, b *comm.Graph) error {
	if a.NumCells() != b.NumCells() || a.NumEdges() != b.NumEdges() {
		return fmt.Errorf("%s vs %s: %d/%d cells, %d/%d edges",
			a.Name, b.Name, a.NumCells(), b.NumCells(), a.NumEdges(), b.NumEdges())
	}
	for id := comm.CellID(0); int(id) < a.NumCells(); id++ {
		if c, o := a.Cell(id), b.Cell(id); o.ID != c.ID {
			return fmt.Errorf("%s: cell %d renumbered to %d", b.Name, c.ID, o.ID)
		}
	}
	for i := 0; i < a.NumEdges(); i++ {
		e := a.Edge(i)
		o := b.Edge(i)
		if o.From != e.From || o.To != e.To || o.Label != e.Label {
			return fmt.Errorf("%s: edge %d changed from %+v to %+v", b.Name, i, e, o)
		}
	}
	return nil
}

// randomSystem builds a random hybrid system over a random topology.
func randomSystem(rng *stats.RNG) (*hybrid.System, hybrid.Config, error) {
	g, err := AnyGraph(rng)
	if err != nil {
		return nil, hybrid.Config{}, err
	}
	cfg := HybridConfig(rng)
	s, err := hybrid.New(g, cfg)
	return s, cfg, err
}

func checkFiringTimesMonotone(rng *stats.RNG) error {
	s, cfg, err := randomSystem(rng)
	if err != nil {
		return err
	}
	waves := intIn(rng, 3, 8)
	times := s.FiringTimes(waves)
	cost := cfg.WaveCost()
	for k := 1; k < len(times); k++ {
		for e := range times[k] {
			if times[k][e] <= times[k-1][e] {
				return fmt.Errorf("element %d wave %d at %g not after wave %d at %g",
					e, k, times[k][e], k-1, times[k-1][e])
			}
		}
	}
	// Two elements h hops apart can drift at most h wave costs.
	hops := s.ElementHops(0)
	last := times[len(times)-1]
	for e, h := range hops {
		if h < 0 {
			continue
		}
		if drift := math.Abs(last[e] - last[0]); drift > float64(h)*cost+1e-9 {
			return fmt.Errorf("element %d (%d hops) drifted %g > %g from element 0",
				e, h, drift, float64(h)*cost)
		}
	}
	// The Section VI headline: effective cycle time equals the wave cost
	// regardless of array size.
	if ct := s.CycleTime(waves); math.Abs(ct-cost) > 1e-9 {
		return fmt.Errorf("cycle time %g != wave cost %g", ct, cost)
	}
	return nil
}

func checkHandshakeMatchesRecurrence(rng *stats.RNG) error {
	s, _, err := randomSystem(rng)
	if err != nil {
		return err
	}
	waves := intIn(rng, 2, 8)
	analytic := s.FiringTimes(waves)
	simulated, err := s.SimulateHandshake(waves)
	if err != nil {
		return err
	}
	for k := range analytic {
		for v := range analytic[k] {
			if math.Abs(analytic[k][v]-simulated[k][v]) > 1e-9 {
				return fmt.Errorf("wave %d node %d: recurrence %g vs protocol %g",
					k, v, analytic[k][v], simulated[k][v])
			}
		}
	}
	return nil
}

func checkFaultyHandshakeBoundedStall(rng *stats.RNG) error {
	s, _, err := randomSystem(rng)
	if err != nil {
		return err
	}
	waves := intIn(rng, 2, 8)
	clean, err := s.SimulateHandshake(waves)
	if err != nil {
		return err
	}
	cfg := MessageFaults(rng)
	inj, err := faults.New(cfg, rng.Int63())
	if err != nil {
		return err
	}
	faulty, err := s.SimulateHandshakeFaulty(waves, inj)
	if err != nil {
		return err
	}
	worst := cfg.WorstMessageExtra()
	for k := range clean {
		for v := range clean[k] {
			f := faulty[k][v]
			if math.IsNaN(f) || math.IsInf(f, 0) {
				return fmt.Errorf("wave %d node %d: non-finite firing time %g", k, v, f)
			}
			if f < clean[k][v]-1e-9 {
				return fmt.Errorf("wave %d node %d: faults sped firing up, %g < %g", k, v, f, clean[k][v])
			}
			if limit := clean[k][v] + float64(k+1)*worst; f > limit+1e-9 {
				return fmt.Errorf("wave %d node %d: faulty %g exceeds clean+%d·worst = %g",
					k, v, f, k+1, limit)
			}
		}
	}
	return nil
}

func checkFaultyHybridNoCorruption(rng *stats.RNG) error {
	// Machines need labeled-port graphs; the 1D families provide them.
	var g *comm.Graph
	var err error
	switch rng.Intn(3) {
	case 0:
		g, err = comm.Linear(intIn(rng, 3, 10))
	case 1:
		g, err = comm.Bidirectional(intIn(rng, 3, 8))
	default:
		g, err = comm.LinearDual(intIn(rng, 3, 8))
	}
	if err != nil {
		return err
	}
	m, err := AffineMachine(rng, g)
	if err != nil {
		return err
	}
	s, err := hybrid.New(g, HybridConfig(rng))
	if err != nil {
		return err
	}
	inj, err := faults.New(MessageFaults(rng), rng.Int63())
	if err != nil {
		return err
	}
	cycles := intIn(rng, 4, 10)
	got, err := s.RunFaulty(m, cycles, inj)
	if err != nil {
		return err
	}
	ideal, err := m.RunIdeal(cycles)
	if err != nil {
		return err
	}
	if !got.Equal(ideal, 1e-9) {
		return fmt.Errorf("%s: fault-injected hybrid trace diverges from ideal (%d faults injected)",
			g.Name, inj.Counts().Faults())
	}
	return nil
}

func checkSelfTimedFaultsBounded(rng *stats.RNG) error {
	g, err := AnyGraph(rng)
	if err != nil {
		return err
	}
	d := SelfTimedDelays(rng)
	depth := intIn(rng, 1, 3)
	waves := intIn(rng, 5, 20)
	delaySeed := rng.Int63()
	clean, err := selftimed.RunElastic(g, waves, d, depth, stats.NewRNG(delaySeed))
	if err != nil {
		return err
	}
	inj, err := faults.New(MessageFaults(rng), rng.Int63())
	if err != nil {
		return err
	}
	faulty, err := selftimed.RunElasticFaulty(g, waves, d, depth, stats.NewRNG(delaySeed), inj)
	if err != nil {
		return err
	}
	if faulty.Makespan < clean.Makespan-1e-9 {
		return fmt.Errorf("%s: faults shortened makespan %g → %g", g.Name, clean.Makespan, faulty.Makespan)
	}
	if limit := clean.Makespan + inj.TotalExtra(); faulty.Makespan > limit+1e-9 {
		return fmt.Errorf("%s: faulty makespan %g exceeds clean+TotalExtra = %g", g.Name, faulty.Makespan, limit)
	}
	if faulty.WorstFraction != clean.WorstFraction {
		return fmt.Errorf("%s: fault injection perturbed delay draws (%g vs %g)",
			g.Name, faulty.WorstFraction, clean.WorstFraction)
	}
	return nil
}

func checkJitteredArrivalsBounded(rng *stats.RNG) error {
	g, err := AnyGraph(rng)
	if err != nil {
		return err
	}
	tree, err := TreeFor(rng, g)
	if err != nil {
		return err
	}
	m := LinearModel(rng)
	p := clocksim.Params{M: m.M, Eps: m.Eps}
	cfg := JitterFaults(rng)
	inj, err := faults.New(cfg, rng.Int63())
	if err != nil {
		return err
	}
	delaySeed := rng.Int63()
	clean, err := clocksim.Random(tree, p, stats.NewRNG(delaySeed))
	if err != nil {
		return err
	}
	jit, err := clocksim.Jittered(tree, p, stats.NewRNG(delaySeed), inj)
	if err != nil {
		return err
	}
	for v := 0; v < tree.NumNodes(); v++ {
		id := clocktree.NodeID(v)
		excess := jit.At(id) - clean.At(id)
		edges := 0
		for u := id; tree.Parent(u) >= 0; u = tree.Parent(u) {
			edges++
		}
		if excess < -1e-12 || excess > float64(edges)*cfg.MaxJitter+1e-9 {
			return fmt.Errorf("%s node %d: jitter excess %g outside [0, %d·%g]",
				tree.Name, v, excess, edges, cfg.MaxJitter)
		}
	}
	return nil
}
