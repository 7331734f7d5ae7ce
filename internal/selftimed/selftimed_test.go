package selftimed

import (
	"math"
	"testing"
	"testing/quick"

	"repro/internal/comm"
	"repro/internal/stats"
)

func linear(t *testing.T, n int) *comm.Graph {
	t.Helper()
	g, err := comm.Linear(n)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func TestRunAllFast(t *testing.T) {
	g := linear(t, 8)
	d := Delays{Fast: 1, Worst: 3, PWorst: 0, Handshake: 0}
	r, err := Run(g, 10, d, nil)
	if err != nil {
		t.Fatal(err)
	}
	// Pipeline with no worst cases: every wave takes Fast.
	if math.Abs(r.MeanInterval-1) > 1e-9 {
		t.Errorf("MeanInterval = %g, want 1", r.MeanInterval)
	}
	if r.WorstFraction != 0 {
		t.Errorf("WorstFraction = %g", r.WorstFraction)
	}
}

func TestRunAllWorst(t *testing.T) {
	g := linear(t, 8)
	d := Delays{Fast: 1, Worst: 3, PWorst: 1, Handshake: 0}
	r, err := Run(g, 10, d, nil)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(r.MeanInterval-3) > 1e-9 {
		t.Errorf("MeanInterval = %g, want 3", r.MeanInterval)
	}
	if r.WorstFraction != 1 {
		t.Errorf("WorstFraction = %g", r.WorstFraction)
	}
}

func TestHandshakeAddsOverhead(t *testing.T) {
	g := linear(t, 8)
	noHS, err := Run(g, 50, Delays{Fast: 1, Worst: 1, PWorst: 0}, nil)
	if err != nil {
		t.Fatal(err)
	}
	withHS, err := Run(g, 50, Delays{Fast: 1, Worst: 1, PWorst: 0, Handshake: 0.5}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if withHS.MeanInterval <= noHS.MeanInterval {
		t.Errorf("handshake did not slow the array: %g vs %g", withHS.MeanInterval, noHS.MeanInterval)
	}
}

// The Section I claim: as the array grows, self-timed throughput
// approaches the worst-case (clocked) rate.
func TestThroughputDegradesToWorstCaseWithSize(t *testing.T) {
	d := Delays{Fast: 1, Worst: 2, PWorst: 0.2, Handshake: 0}
	interval := func(n int) float64 {
		g := linear(t, n)
		r, err := Run(g, 300, d, stats.NewRNG(int64(n)))
		if err != nil {
			t.Fatal(err)
		}
		return r.MeanInterval
	}
	small := interval(2)
	large := interval(128)
	if small >= d.Worst {
		t.Errorf("small array interval %g should beat worst case %g", small, d.Worst)
	}
	if large <= small {
		t.Errorf("interval should grow with array size: %g vs %g", small, large)
	}
	// Elastic buffering absorbs part of the variance, but the large array
	// must have lost most of the gap between the mean delay (1.2) and the
	// clocked worst case (2.0).
	clocked := d.Worst // a clocked array budgets the worst case every cycle (A5)
	meanDelay := d.Fast + d.PWorst*(d.Worst-d.Fast)
	if (large-meanDelay)/(clocked-meanDelay) < 0.5 {
		t.Errorf("large elastic array interval %g closed too little of the gap (%g..%g)",
			large, meanDelay, clocked)
	}
}

// The literal Section I model: rigid waves cost the max delay of any cell
// in the wave, so the mean interval converges to Worst exactly as 1 − p^k
// predicts.
func TestRigidWavesMatchOneMinusPToTheK(t *testing.T) {
	d := Delays{Fast: 1, Worst: 2, PWorst: 0.1}
	p := 1 - d.PWorst
	for _, n := range []int{1, 4, 16, 64} {
		g := linear(t, n)
		r, err := RunRigid(g, 4000, d, stats.NewRNG(int64(n)))
		if err != nil {
			t.Fatal(err)
		}
		// E[wave] = Fast + (Worst−Fast)·(1 − p^n).
		want := d.Fast + (d.Worst-d.Fast)*WorstCaseProb(p, n)
		if math.Abs(r.MeanInterval-want) > 0.05 {
			t.Errorf("n=%d: rigid interval = %g, 1−p^k predicts %g", n, r.MeanInterval, want)
		}
	}
}

func TestRigidLargeArrayAtWorstCase(t *testing.T) {
	d := Delays{Fast: 1, Worst: 2, PWorst: 0.1}
	g := linear(t, 128)
	r, err := RunRigid(g, 500, d, stats.NewRNG(2))
	if err != nil {
		t.Fatal(err)
	}
	clocked := d.Worst // a clocked array budgets the worst case every cycle (A5)
	if (clocked-r.MeanInterval)/clocked > 0.01 {
		t.Errorf("128-cell rigid self-timed %g should equal clocked worst case %g", r.MeanInterval, clocked)
	}
}

func TestRunRigidValidation(t *testing.T) {
	g := linear(t, 2)
	if _, err := RunRigid(g, 0, Delays{Fast: 1, Worst: 1}, nil); err == nil {
		t.Error("0 waves accepted")
	}
	if _, err := RunRigid(g, 1, Delays{Fast: 1, Worst: 2, PWorst: 0.5}, nil); err == nil {
		t.Error("random run without RNG accepted")
	}
	if _, err := RunRigid(g, 1, Delays{Fast: 0, Worst: 1}, nil); err == nil {
		t.Error("Fast=0 accepted")
	}
}

func TestWorstFractionMatchesPWorst(t *testing.T) {
	g := linear(t, 16)
	d := Delays{Fast: 1, Worst: 2, PWorst: 0.3, Handshake: 0}
	r, err := Run(g, 500, d, stats.NewRNG(4))
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(r.WorstFraction-0.3) > 0.03 {
		t.Errorf("WorstFraction = %g, want ≈0.3", r.WorstFraction)
	}
}

func TestWorstCaseProb(t *testing.T) {
	if got := WorstCaseProb(0.9, 1); math.Abs(got-0.1) > 1e-12 {
		t.Errorf("1−p = %g", got)
	}
	if got := WorstCaseProb(0.9, 100); got < 0.9999 {
		t.Errorf("long path prob = %g, want ≈1", got)
	}
	if got := WorstCaseProb(1, 50); got != 0 {
		t.Errorf("p=1 prob = %g", got)
	}
}

func TestWorstCaseProbMonotoneProperty(t *testing.T) {
	f := func(pp, kk uint8) bool {
		p := float64(pp%100) / 100
		k := int(kk%50) + 1
		return WorstCaseProb(p, k+1) >= WorstCaseProb(p, k)-1e-12
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestRunValidation(t *testing.T) {
	g := linear(t, 3)
	if _, err := Run(g, 0, Delays{Fast: 1, Worst: 1}, nil); err == nil {
		t.Error("0 waves accepted")
	}
	if _, err := Run(g, 1, Delays{Fast: 0, Worst: 1}, nil); err == nil {
		t.Error("Fast=0 accepted")
	}
	if _, err := Run(g, 1, Delays{Fast: 2, Worst: 1}, nil); err == nil {
		t.Error("Worst < Fast accepted")
	}
	if _, err := Run(g, 1, Delays{Fast: 1, Worst: 1, PWorst: 2}, nil); err == nil {
		t.Error("PWorst > 1 accepted")
	}
	if _, err := Run(g, 1, Delays{Fast: 1, Worst: 1, Handshake: -1}, nil); err == nil {
		t.Error("negative handshake accepted")
	}
	if _, err := Run(g, 1, Delays{Fast: 1, Worst: 2, PWorst: 0.5}, nil); err == nil {
		t.Error("random run without RNG accepted")
	}
}

func TestRunDeterministicPerSeed(t *testing.T) {
	g := linear(t, 10)
	d := Delays{Fast: 1, Worst: 2, PWorst: 0.4}
	a, err := Run(g, 100, d, stats.NewRNG(9))
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(g, 100, d, stats.NewRNG(9))
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Errorf("not deterministic: %+v vs %+v", a, b)
	}
}

func TestMeshCouplesFasterThanPath(t *testing.T) {
	// A mesh couples cells more tightly than a path of the same cell
	// count (bidirectional edges), so its interval should be at least as
	// close to worst case.
	d := Delays{Fast: 1, Worst: 2, PWorst: 0.1}
	gm, err := comm.Mesh(8, 8)
	if err != nil {
		t.Fatal(err)
	}
	rm, err := Run(gm, 200, d, stats.NewRNG(1))
	if err != nil {
		t.Fatal(err)
	}
	gl := linear(t, 8)
	rl, err := Run(gl, 200, d, stats.NewRNG(1))
	if err != nil {
		t.Fatal(err)
	}
	if rm.MeanInterval < rl.MeanInterval-0.05 {
		t.Errorf("mesh interval %g unexpectedly below 8-cell path %g", rm.MeanInterval, rl.MeanInterval)
	}
}

func TestRunElasticDepthValidation(t *testing.T) {
	g := linear(t, 3)
	if _, err := RunElastic(g, 1, Delays{Fast: 1, Worst: 1}, 0, nil); err == nil {
		t.Error("depth 0 accepted")
	}
}

func TestDeeperBuffersAbsorbMoreVariance(t *testing.T) {
	// With random delays, deeper channels decouple the cells and the
	// mean interval drops toward the per-cell expectation.
	g := linear(t, 32)
	d := Delays{Fast: 1, Worst: 2, PWorst: 0.2}
	interval := func(depth int) float64 {
		r, err := RunElastic(g, 400, d, depth, stats.NewRNG(7))
		if err != nil {
			t.Fatal(err)
		}
		return r.MeanInterval
	}
	d1, d4, d16 := interval(1), interval(4), interval(16)
	if d4 >= d1 {
		t.Errorf("depth 4 interval %g not below depth 1 %g", d4, d1)
	}
	if d16 > d4+1e-9 {
		t.Errorf("depth 16 interval %g above depth 4 %g", d16, d4)
	}
	mean := d.Fast + d.PWorst*(d.Worst-d.Fast)
	if d16 < mean-1e-9 {
		t.Errorf("interval %g below the per-cell mean %g — impossible", d16, mean)
	}
}

func TestRunElasticDepthOneMatchesRun(t *testing.T) {
	g := linear(t, 10)
	d := Delays{Fast: 1, Worst: 2, PWorst: 0.3}
	a, err := Run(g, 200, d, stats.NewRNG(3))
	if err != nil {
		t.Fatal(err)
	}
	b, err := RunElastic(g, 200, d, 1, stats.NewRNG(3))
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Errorf("Run != RunElastic(depth=1): %+v vs %+v", a, b)
	}
}
