package wiresim

import (
	"math"
	"testing"
	"testing/quick"

	"repro/internal/stats"
)

func uniformString(t *testing.T, n int, d float64) *InverterString {
	t.Helper()
	s, err := NewString(Config{N: n, StageDelay: d}, nil)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestPolarity(t *testing.T) {
	if Rising.Invert() != Falling || Falling.Invert() != Rising {
		t.Error("Invert wrong")
	}
}

func TestNewStringValidation(t *testing.T) {
	if _, err := NewString(Config{N: 0, StageDelay: 1}, nil); err == nil {
		t.Error("N=0 accepted")
	}
	if _, err := NewString(Config{N: 4, StageDelay: 0}, nil); err == nil {
		t.Error("zero stage delay accepted")
	}
	if _, err := NewString(Config{N: 4, StageDelay: 1, NoiseSD: 0.1}, nil); err == nil {
		t.Error("noise without RNG accepted")
	}
	if _, err := NewString(Config{N: 4, StageDelay: 1, EvenBias: 2}, nil); err == nil {
		t.Error("negative resulting delay accepted")
	}
}

func TestUniformStringTraversal(t *testing.T) {
	s := uniformString(t, 10, 2)
	if got := s.TraversalTime(Rising); math.Abs(got-20) > 1e-12 {
		t.Errorf("TraversalTime = %g, want 20", got)
	}
	if got := s.EquipotentialCycle(); math.Abs(got-40) > 1e-12 {
		t.Errorf("EquipotentialCycle = %g, want 40", got)
	}
	if got := s.MaxDiscrepancy(); got != 0 {
		t.Errorf("uniform string discrepancy = %g, want 0", got)
	}
	// Default MinSeparation = 2·StageDelay = 4 ⇒ min period 8.
	if got := s.MinPipelinedPeriod(); math.Abs(got-8) > 1e-12 {
		t.Errorf("MinPipelinedPeriod = %g, want 8", got)
	}
}

func TestMatchedBiasCancelsPairwise(t *testing.T) {
	// EvenBias == OddBias: the paper's matched-impedance inverter string;
	// discrepancy stays bounded by one stage's bias, independent of n.
	for _, n := range []int{16, 256, 2048} {
		s, err := NewString(Config{N: n, StageDelay: 1, EvenBias: 0.1, OddBias: 0.1}, nil)
		if err != nil {
			t.Fatal(err)
		}
		if d := s.MaxDiscrepancy(); d > 0.2+1e-12 {
			t.Errorf("n=%d: matched-bias discrepancy = %g, want ≤ 0.2", n, d)
		}
	}
}

func TestMismatchedBiasAccumulatesLinearly(t *testing.T) {
	// EvenBias ≠ OddBias: discrepancy grows linearly along the string —
	// the dominant effect on the paper's chip.
	d256 := mustDiscrepancy(t, 256)
	d1024 := mustDiscrepancy(t, 1024)
	ratio := d1024 / d256
	if ratio < 3.5 || ratio > 4.5 {
		t.Errorf("discrepancy growth ratio = %g, want ≈4 (linear)", ratio)
	}
}

func mustDiscrepancy(t *testing.T, n int) float64 {
	t.Helper()
	s, err := NewString(Config{N: n, StageDelay: 1, EvenBias: 0.05, OddBias: -0.05}, nil)
	if err != nil {
		t.Fatal(err)
	}
	return s.MaxDiscrepancy()
}

func TestSectionVIIChipReproducesShape(t *testing.T) {
	// The headline numbers: ≈34 µs equipotential cycle, ≈500 ns pipelined
	// cycle, speedup within a factor-of-two band around 68×.
	s, err := NewString(SectionVIIConfig(), stats.NewRNG(1))
	if err != nil {
		t.Fatal(err)
	}
	equi := s.EquipotentialCycle()
	if equi < 30e-6 || equi > 40e-6 {
		t.Errorf("equipotential cycle = %g s, want ≈34 µs", equi)
	}
	pipe := s.MinPipelinedPeriod()
	if pipe < 300e-9 || pipe > 700e-9 {
		t.Errorf("pipelined cycle = %g s, want ≈500 ns", pipe)
	}
	sp := s.Speedup()
	if sp < 40 || sp > 110 {
		t.Errorf("speedup = %g, want ≈68", sp)
	}
}

func TestSpeedupSameAcrossChips(t *testing.T) {
	// Five seeded "chips": bias dominates random variation, so the
	// speedup should be nearly identical across chips (the paper's
	// observation).
	var speedups []float64
	for seed := int64(0); seed < 5; seed++ {
		s, err := NewString(SectionVIIConfig(), stats.NewRNG(seed))
		if err != nil {
			t.Fatal(err)
		}
		speedups = append(speedups, s.Speedup())
	}
	spread := (stats.Max(speedups) - stats.Min(speedups)) / stats.Mean(speedups)
	if spread > 0.05 {
		t.Errorf("speedup spread across chips = %.1f%%, want < 5%%", spread*100)
	}
}

func TestPipelinedRunCleanAtSafePeriod(t *testing.T) {
	s, err := NewString(Config{N: 64, StageDelay: 1, EvenBias: 0.02, OddBias: -0.02}, nil)
	if err != nil {
		t.Fatal(err)
	}
	period := s.MinPipelinedPeriod() * 1.01
	res, err := s.PipelinedRun(period, 20, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.Violations != 0 {
		t.Errorf("violations = %d at safe period", res.Violations)
	}
	if res.EdgesDelivered != 40 {
		t.Errorf("delivered = %d, want 40", res.EdgesDelivered)
	}
	if res.MinSpacing < s.MinSeparation-1e-9 {
		t.Errorf("min spacing %g below separation %g", res.MinSpacing, s.MinSeparation)
	}
	if len(res.OutputSpacings) != 39 {
		t.Errorf("output spacings = %d, want 39", len(res.OutputSpacings))
	}
}

func TestPipelinedRunViolatesBelowMinPeriod(t *testing.T) {
	s, err := NewString(Config{N: 64, StageDelay: 1, EvenBias: 0.05, OddBias: -0.05}, nil)
	if err != nil {
		t.Fatal(err)
	}
	// Drive well below the minimum period: spacings must collapse.
	period := s.MinPipelinedPeriod() * 0.6
	res, err := s.PipelinedRun(period, 20, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.Violations == 0 {
		t.Error("no violations below minimum period")
	}
}

func TestPipelinedRunSimulationMatchesClosedForm(t *testing.T) {
	// The event simulation's observed minimum spacing must equal
	// T/2 − MaxDiscrepancy (the closed form behind MinPipelinedPeriod).
	s, err := NewString(Config{N: 128, StageDelay: 1, EvenBias: 0.03, OddBias: -0.01}, nil)
	if err != nil {
		t.Fatal(err)
	}
	period := 2 * (s.MinSeparation + s.MaxDiscrepancy() + 0.5)
	res, err := s.PipelinedRun(period, 30, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	want := period/2 - s.MaxDiscrepancy()
	if math.Abs(res.MinSpacing-want) > 1e-9 {
		t.Errorf("sim min spacing = %g, closed form = %g", res.MinSpacing, want)
	}
}

func TestPipelinedRunJitterBreaksPipelining(t *testing.T) {
	// Violating A8 (time-varying delays): with jitter comparable to the
	// spacing margin, violations appear even at the closed-form period.
	s, err := NewString(Config{N: 256, StageDelay: 1}, nil)
	if err != nil {
		t.Fatal(err)
	}
	period := s.MinPipelinedPeriod() * 1.05
	clean, err := s.PipelinedRun(period, 10, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	if clean.Violations != 0 {
		t.Fatalf("clean run violated")
	}
	noisy, err := s.PipelinedRun(period, 10, 0.5, stats.NewRNG(3))
	if err != nil {
		t.Fatal(err)
	}
	if noisy.Violations == 0 {
		t.Error("heavy jitter produced no violations — A8 failure not modeled")
	}
}

func TestPipelinedRunValidation(t *testing.T) {
	s := uniformString(t, 4, 1)
	if _, err := s.PipelinedRun(0, 1, 0, nil); err == nil {
		t.Error("zero period accepted")
	}
	if _, err := s.PipelinedRun(10, 0, 0, nil); err == nil {
		t.Error("zero cycles accepted")
	}
	if _, err := s.PipelinedRun(10, 1, 0.1, nil); err == nil {
		t.Error("jitter without RNG accepted")
	}
}

func TestEquipotentialGrowsLinearlyPipelinedConstant(t *testing.T) {
	// The scaling claim: equipotential cycle ∝ n; pipelined cycle (with
	// matched inverters) independent of n.
	e256 := uniformString(t, 256, 1).EquipotentialCycle()
	e1024 := uniformString(t, 1024, 1).EquipotentialCycle()
	if r := e1024 / e256; r < 3.9 || r > 4.1 {
		t.Errorf("equipotential growth = %g, want 4", r)
	}
	p256 := uniformString(t, 256, 1).MinPipelinedPeriod()
	p1024 := uniformString(t, 1024, 1).MinPipelinedPeriod()
	if p256 != p1024 {
		t.Errorf("pipelined period changed with n: %g vs %g", p256, p1024)
	}
}

func TestNoiseDiscrepancyGrowsLikeSqrtN(t *testing.T) {
	// Section VII's probabilistic analysis: with zero bias and N(0,V)
	// per-stage noise, mean max discrepancy grows ≈ √n.
	meanDisc := func(n int) float64 {
		var sum float64
		const chips = 60
		for seed := int64(0); seed < chips; seed++ {
			s, err := NewString(Config{N: n, StageDelay: 1, NoiseSD: 0.05}, stats.NewRNG(seed))
			if err != nil {
				t.Fatal(err)
			}
			sum += s.MaxDiscrepancy()
		}
		return sum / chips
	}
	m1, m4 := meanDisc(256), meanDisc(1024)
	ratio := m4 / m1
	if ratio < 1.5 || ratio > 2.6 {
		t.Errorf("noise discrepancy scaling = %g, want ≈2 (√4)", ratio)
	}
}

func TestTraversalPositiveProperty(t *testing.T) {
	f := func(seed int64, nn uint8) bool {
		n := int(nn%64) + 1
		s, err := NewString(Config{N: n, StageDelay: 1, NoiseSD: 0.1}, stats.NewRNG(seed))
		if err != nil {
			return true // extreme noise rejected by constructor is fine
		}
		return s.TraversalTime(Rising) > 0 && s.TraversalTime(Falling) > 0 &&
			s.MaxDiscrepancy() >= 0 && s.MinPipelinedPeriod() > 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestOneShotKillsBiasAccumulation(t *testing.T) {
	// The paper's proposed fix: one-shot pulse generation makes both edge
	// polarities see identical timing, so the mismatched-bias string that
	// otherwise accumulates discrepancy linearly becomes discrepancy-free
	// — even with per-stage noise.
	biased := Config{N: 2048, StageDelay: 1, EvenBias: 0.05, OddBias: -0.05, NoiseSD: 0.01}
	plain, err := NewString(biased, stats.NewRNG(1))
	if err != nil {
		t.Fatal(err)
	}
	biased.OneShot = true
	oneShot, err := NewString(biased, stats.NewRNG(1))
	if err != nil {
		t.Fatal(err)
	}
	if d := oneShot.MaxDiscrepancy(); d != 0 {
		t.Errorf("one-shot discrepancy = %g, want 0", d)
	}
	if plain.MaxDiscrepancy() < 100*0.05 {
		t.Errorf("plain discrepancy %g suspiciously small", plain.MaxDiscrepancy())
	}
	// Pipelined period collapses to the pulse-width floor.
	if got, want := oneShot.MinPipelinedPeriod(), 2*oneShot.MinSeparation; got != want {
		t.Errorf("one-shot min period = %g, want %g", got, want)
	}
}

func TestOneShotSectionVIIChipSpeedup(t *testing.T) {
	// Applying the one-shot fix to the Section VII chip removes the bias
	// ceiling: the pipelined cycle drops from ≈500 ns to the ≈33 ns pulse
	// floor, raising the speedup an order of magnitude.
	cfg := SectionVIIConfig()
	cfg.OneShot = true
	s, err := NewString(cfg, stats.NewRNG(1))
	if err != nil {
		t.Fatal(err)
	}
	if sp := s.Speedup(); sp < 500 {
		t.Errorf("one-shot speedup = %g, want ≫ 68", sp)
	}
}
