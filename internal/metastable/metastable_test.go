package metastable

import (
	"math"
	"testing"
	"testing/quick"

	"repro/internal/stats"
)

func sync() Synchronizer {
	return Synchronizer{Tau: 1, Window: 0.01, ClockFreq: 100, DataRate: 10}
}

func TestValidation(t *testing.T) {
	bad := []Synchronizer{
		{Tau: 0, Window: 1, ClockFreq: 1, DataRate: 1},
		{Tau: 1, Window: 0, ClockFreq: 1, DataRate: 1},
		{Tau: 1, Window: 1, ClockFreq: 0, DataRate: 1},
		{Tau: 1, Window: 1, ClockFreq: 1, DataRate: 0},
	}
	for i, s := range bad {
		if _, err := s.MTBF(1); err == nil {
			t.Errorf("bad synchronizer %d accepted", i)
		}
	}
	if _, err := sync().FailureProbPerSample(-1); err == nil {
		t.Error("negative resolve accepted")
	}
}

func TestFailureProbDecaysExponentially(t *testing.T) {
	s := sync()
	p0, err := s.FailureProbPerSample(0)
	if err != nil {
		t.Fatal(err)
	}
	p1, _ := s.FailureProbPerSample(1)
	p2, _ := s.FailureProbPerSample(2)
	if math.Abs(p1/p0-math.Exp(-1)) > 1e-12 {
		t.Errorf("decay ratio = %g, want e⁻¹", p1/p0)
	}
	if math.Abs(p2/p1-math.Exp(-1)) > 1e-12 {
		t.Errorf("second decay ratio = %g, want e⁻¹", p2/p1)
	}
	if p0 != 0.1 { // Window·DataRate = 0.01·10
		t.Errorf("p0 = %g, want 0.1", p0)
	}
}

func TestMTBFGrowsWithResolveTime(t *testing.T) {
	s := sync()
	m1, err := s.MTBF(1)
	if err != nil {
		t.Fatal(err)
	}
	m10, _ := s.MTBF(10)
	if m10 <= m1 {
		t.Errorf("MTBF did not grow: %g vs %g", m1, m10)
	}
	// MTBF(tr) = e^(tr/τ)/(Tw·fd·fclk): at tr=0, 1/(0.1·100) = 0.1.
	m0, _ := s.MTBF(0)
	if math.Abs(m0-0.1) > 1e-12 {
		t.Errorf("MTBF(0) = %g, want 0.1", m0)
	}
}

func TestSystemMTBFScalesWithCrossings(t *testing.T) {
	s := sync()
	one, err := s.SystemMTBF(5, 1)
	if err != nil {
		t.Fatal(err)
	}
	hundred, _ := s.SystemMTBF(5, 100)
	if math.Abs(one/hundred-100) > 1e-9 {
		t.Errorf("crossing scaling = %g, want 100", one/hundred)
	}
	// The hybrid case: zero crossings, infinite MTBF.
	zero, err := s.SystemMTBF(5, 0)
	if err != nil {
		t.Fatal(err)
	}
	if !math.IsInf(zero, 1) {
		t.Errorf("hybrid (0 crossings) MTBF = %g, want +Inf", zero)
	}
	if _, err := s.SystemMTBF(5, -1); err == nil {
		t.Error("negative crossings accepted")
	}
}

func TestResolveTimeForMTBFRoundTrip(t *testing.T) {
	s := sync()
	target := 1e9
	tr, err := s.ResolveTimeForMTBF(target, 64)
	if err != nil {
		t.Fatal(err)
	}
	got, err := s.SystemMTBF(tr, 64)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(got-target)/target > 1e-9 {
		t.Errorf("round trip MTBF = %g, want %g", got, target)
	}
	if _, err := s.ResolveTimeForMTBF(0, 1); err == nil {
		t.Error("zero target accepted")
	}
	if _, err := s.ResolveTimeForMTBF(1, 0); err == nil {
		t.Error("zero crossings accepted")
	}
}

func TestResolveTimeGrowsLogarithmically(t *testing.T) {
	s := sync()
	t1, _ := s.ResolveTimeForMTBF(1e6, 1)
	t2, _ := s.ResolveTimeForMTBF(1e12, 1)
	// Doubling the exponent of the target adds τ·ln(1e6) ≈ 13.8.
	if math.Abs((t2-t1)-math.Log(1e6)) > 1e-9 {
		t.Errorf("log growth = %g, want %g", t2-t1, math.Log(1e6))
	}
}

func TestSimulateFailuresMatchesModel(t *testing.T) {
	s := sync()
	const cycles = 200000
	resolve := 1.0
	got, err := s.SimulateFailures(cycles, resolve, stats.NewRNG(7))
	if err != nil {
		t.Fatal(err)
	}
	p, _ := s.FailureProbPerSample(resolve)
	want := p * cycles
	if math.Abs(float64(got)-want) > 5*math.Sqrt(want) {
		t.Errorf("simulated failures = %d, model predicts ≈%.0f", got, want)
	}
}

func TestSimulateValidation(t *testing.T) {
	s := sync()
	if _, err := s.SimulateFailures(-1, 1, stats.NewRNG(1)); err == nil {
		t.Error("negative cycles accepted")
	}
	if _, err := s.SimulateFailures(1, 1, nil); err == nil {
		t.Error("nil RNG accepted")
	}
}

func TestFailureProbMonotoneProperty(t *testing.T) {
	s := sync()
	f := func(a, b uint16) bool {
		ra, rb := float64(a)/1000, float64(b)/1000
		if ra > rb {
			ra, rb = rb, ra
		}
		pa, err := s.FailureProbPerSample(ra)
		if err != nil {
			return false
		}
		pb, err := s.FailureProbPerSample(rb)
		if err != nil {
			return false
		}
		return pb <= pa+1e-15
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestAperturePCatchClamped(t *testing.T) {
	s := Synchronizer{Tau: 1, Window: 10, ClockFreq: 1, DataRate: 10}
	p, err := s.FailureProbPerSample(0)
	if err != nil {
		t.Fatal(err)
	}
	if p > 1 {
		t.Errorf("probability %g > 1", p)
	}
}
