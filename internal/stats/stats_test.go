package stats

import (
	"math"
	"sync"
	"sync/atomic"
	"testing"
)

func TestRNGDeterminism(t *testing.T) {
	a := NewRNG(42)
	b := NewRNG(42)
	for i := 0; i < 100; i++ {
		if a.Float64() != b.Float64() {
			t.Fatalf("same seed diverged at draw %d", i)
		}
	}
	if a.Seed() != 42 {
		t.Errorf("Seed = %d", a.Seed())
	}
}

func TestRNGForkIndependence(t *testing.T) {
	r := NewRNG(7)
	f1 := r.Fork(1)
	f2 := r.Fork(2)
	f1again := NewRNG(7).Fork(1)
	if f1.Float64() != f1again.Float64() {
		t.Errorf("Fork not deterministic")
	}
	// Different ids should give different streams (overwhelmingly likely).
	same := 0
	for i := 0; i < 20; i++ {
		if f1.Float64() == f2.Float64() {
			same++
		}
	}
	if same > 2 {
		t.Errorf("forked streams look identical (%d/20 equal draws)", same)
	}
}

// TestRNGForkAcrossGoroutines is the parallel-runner regression test:
// two generators forked from the same parent seed must be reproducible
// and independent when drawn from concurrently (run under -race).
func TestRNGForkAcrossGoroutines(t *testing.T) {
	draw := func(r *RNG, n int) []float64 {
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = r.Float64()
		}
		return xs
	}
	const n = 5000
	var wg sync.WaitGroup
	streams := make([][]float64, 2)
	for g := 0; g < 2; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			streams[g] = draw(NewRNG(7).Fork(int64(g)), n)
		}(g)
	}
	wg.Wait()
	// Reproducible: a sequential re-derivation gives the same streams.
	for g := 0; g < 2; g++ {
		want := draw(NewRNG(7).Fork(int64(g)), n)
		for i := range want {
			if streams[g][i] != want[i] {
				t.Fatalf("fork %d diverged at draw %d under concurrency", g, i)
			}
		}
	}
	// Independent: the two streams must not be correlated copies.
	same := 0
	for i := 0; i < n; i++ {
		if streams[0][i] == streams[1][i] {
			same++
		}
	}
	if same > n/100 {
		t.Errorf("forked streams look identical (%d/%d equal draws)", same, n)
	}
}

// TestRNGForkIntoMatchesFork pins the reseed-in-place fork to Fork draw
// for draw over many ids and parent seeds, reusing one destination whose
// stream is left part-consumed between forks, and checks that it
// allocates nothing.
func TestRNGForkIntoMatchesFork(t *testing.T) {
	dst := NewRNG(99)
	buf := make([]float64, 37)
	for _, seed := range []int64{1, 7, -3, 1 << 40} {
		parent := NewRNG(seed)
		for id := int64(-5); id < 500; id++ {
			want := parent.Fork(id)
			got := parent.ForkInto(id, dst)
			if got != dst {
				t.Fatal("ForkInto must return dst")
			}
			if got.Seed() != want.Seed() {
				t.Fatalf("seed %d id %d: ForkInto seed %d, Fork seed %d", seed, id, got.Seed(), want.Seed())
			}
			// Mix the sampling methods and leave a different amount of
			// the stream unread each time.
			for i := 0; i < int(id&7)+1; i++ {
				if a, b := got.Float64(), want.Float64(); a != b {
					t.Fatalf("seed %d id %d: Float64 draw %d: %v != %v", seed, id, i, a, b)
				}
				if a, b := got.Normal(0, 1), want.Normal(0, 1); a != b {
					t.Fatalf("seed %d id %d: Normal draw %d: %v != %v", seed, id, i, a, b)
				}
				if a, b := got.Intn(1000), want.Intn(1000); a != b {
					t.Fatalf("seed %d id %d: Intn draw %d: %v != %v", seed, id, i, a, b)
				}
			}
			wantBuf := make([]float64, len(buf))
			want.UniformFill(wantBuf, 0.9, 1.1)
			got.UniformFill(buf, 0.9, 1.1)
			for i := range buf {
				if buf[i] != wantBuf[i] {
					t.Fatalf("seed %d id %d: UniformFill[%d]: %v != %v", seed, id, i, buf[i], wantBuf[i])
				}
			}
		}
	}
	parent := NewRNG(3)
	if n := testing.AllocsPerRun(100, func() { parent.ForkInto(11, dst) }); n != 0 {
		t.Errorf("ForkInto allocates %v times per call, want 0", n)
	}
}

// TestRNGConcurrentUsePanics checks the sharing guard deterministically:
// a generator marked busy (as if another goroutine were mid-call) must
// refuse to sample.
func TestRNGConcurrentUsePanics(t *testing.T) {
	r := NewRNG(1)
	r.busy.Store(true)
	defer func() {
		if recover() == nil {
			t.Error("sampling a busy RNG should panic")
		}
	}()
	r.Float64()
}

// TestRNGConcurrentUseSmoke hammers one shared generator from two
// goroutines: every call must either complete or panic with the sharing
// error — under -race this proves the guard leaves no window where the
// underlying math/rand state is raced on.
func TestRNGConcurrentUseSmoke(t *testing.T) {
	r := NewRNG(2)
	var wg sync.WaitGroup
	var panics atomic.Int64
	for g := 0; g < 2; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 20000; i++ {
				func() {
					defer func() {
						if recover() != nil {
							panics.Add(1)
						}
					}()
					r.Float64()
				}()
			}
		}()
	}
	wg.Wait()
	t.Logf("sharing violations caught: %d", panics.Load())
}

func TestUniformRange(t *testing.T) {
	r := NewRNG(1)
	for i := 0; i < 1000; i++ {
		v := r.Uniform(2, 5)
		if v < 2 || v >= 5 {
			t.Fatalf("Uniform(2,5) = %g out of range", v)
		}
	}
}

func TestNormalMoments(t *testing.T) {
	r := NewRNG(3)
	xs := make([]float64, 20000)
	for i := range xs {
		xs[i] = r.Normal(10, 2)
	}
	if m := Mean(xs); math.Abs(m-10) > 0.1 {
		t.Errorf("Normal mean = %g, want ≈10", m)
	}
	if s := StdDev(xs); math.Abs(s-2) > 0.1 {
		t.Errorf("Normal std = %g, want ≈2", s)
	}
}

func TestBernoulli(t *testing.T) {
	r := NewRNG(5)
	hits := 0
	const n = 20000
	for i := 0; i < n; i++ {
		if r.Bernoulli(0.3) {
			hits++
		}
	}
	frac := float64(hits) / n
	if math.Abs(frac-0.3) > 0.02 {
		t.Errorf("Bernoulli(0.3) rate = %g", frac)
	}
}

func TestMeanVarianceStd(t *testing.T) {
	xs := []float64{2, 4, 4, 4, 5, 5, 7, 9}
	if m := Mean(xs); m != 5 {
		t.Errorf("Mean = %g, want 5", m)
	}
	if v := Variance(xs); v != 4 {
		t.Errorf("Variance = %g, want 4", v)
	}
	if s := StdDev(xs); s != 2 {
		t.Errorf("StdDev = %g, want 2", s)
	}
	if Mean(nil) != 0 || Variance(nil) != 0 || Variance([]float64{1}) != 0 {
		t.Errorf("empty/single-sample edge cases wrong")
	}
}

func TestMinMax(t *testing.T) {
	xs := []float64{3, -1, 7, 0}
	if Min(xs) != -1 || Max(xs) != 7 {
		t.Errorf("Min/Max wrong: %g %g", Min(xs), Max(xs))
	}
}

func TestPercentile(t *testing.T) {
	xs := []float64{1, 2, 3, 4, 5}
	cases := []struct{ p, want float64 }{
		{0, 1}, {50, 3}, {100, 5}, {25, 2}, {-5, 1}, {110, 5}, {10, 1.4},
	}
	for _, c := range cases {
		if got := Percentile(xs, c.p); math.Abs(got-c.want) > 1e-9 {
			t.Errorf("Percentile(%g) = %g, want %g", c.p, got, c.want)
		}
	}
	// Percentile must not mutate its input.
	xs2 := []float64{5, 1, 3}
	Percentile(xs2, 50)
	if xs2[0] != 5 {
		t.Errorf("Percentile sorted its input in place")
	}
}

func TestPercentileEdgeCases(t *testing.T) {
	// Out-of-range p clamps to the extremes.
	xs := []float64{4, 1, 9}
	if got := Percentile(xs, -30); got != 1 {
		t.Errorf("Percentile(p<0) = %g, want min", got)
	}
	if got := Percentile(xs, 100); got != 9 {
		t.Errorf("Percentile(p=100) = %g, want max", got)
	}
	if got := Percentile(xs, 250); got != 9 {
		t.Errorf("Percentile(p>100) = %g, want max", got)
	}
	// A single element is every percentile.
	for _, p := range []float64{-1, 0, 37, 50, 100, 200} {
		if got := Percentile([]float64{42}, p); got != 42 {
			t.Errorf("Percentile([42], %g) = %g", p, got)
		}
	}
	// NaN anywhere in the sample propagates instead of corrupting the
	// sort order silently.
	for _, in := range [][]float64{
		{math.NaN()},
		{1, math.NaN(), 3},
		{math.NaN(), math.NaN()},
	} {
		if got := Percentile(in, 50); !math.IsNaN(got) {
			t.Errorf("Percentile(%v) = %g, want NaN", in, got)
		}
	}
}

func TestPercentilePanicsOnEmpty(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("Percentile(nil) should panic")
		}
	}()
	Percentile(nil, 50)
}

func TestSummarize(t *testing.T) {
	s := Summarize([]float64{1, 2, 3, 4, 5})
	if s.N != 5 || s.Mean != 3 || s.Min != 1 || s.Max != 5 || s.P50 != 3 {
		t.Errorf("Summarize = %+v", s)
	}
	if z := Summarize(nil); z.N != 0 {
		t.Errorf("Summarize(nil) = %+v", z)
	}
}

func TestLinearFitExact(t *testing.T) {
	xs := []float64{1, 2, 3, 4}
	ys := []float64{5, 7, 9, 11} // y = 2x + 3
	slope, intercept, r2, err := LinearFit(xs, ys)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(slope-2) > 1e-9 || math.Abs(intercept-3) > 1e-9 || math.Abs(r2-1) > 1e-9 {
		t.Errorf("LinearFit = %g %g %g", slope, intercept, r2)
	}
}

func TestLinearFitErrors(t *testing.T) {
	if _, _, _, err := LinearFit([]float64{1}, []float64{1}); err == nil {
		t.Error("single-point fit should error")
	}
	if _, _, _, err := LinearFit([]float64{1, 1}, []float64{1, 2}); err == nil {
		t.Error("zero x-variance should error")
	}
	if _, _, _, err := LinearFit([]float64{1, 2}, []float64{1}); err == nil {
		t.Error("length mismatch should error")
	}
}

func TestLinearFitFlatData(t *testing.T) {
	slope, _, r2, err := LinearFit([]float64{1, 2, 3}, []float64{4, 4, 4})
	if err != nil {
		t.Fatal(err)
	}
	if slope != 0 || r2 != 1 {
		t.Errorf("flat fit slope=%g r2=%g", slope, r2)
	}
}

func TestFitPowerLaw(t *testing.T) {
	xs := []float64{1, 2, 4, 8, 16}
	ys := make([]float64, len(xs))
	for i, x := range xs {
		ys[i] = 3 * x * x // A=3, B=2
	}
	fit, err := FitPowerLaw(xs, ys)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(fit.B-2) > 1e-9 || math.Abs(fit.A-3) > 1e-9 {
		t.Errorf("FitPowerLaw = %+v", fit)
	}
}

func TestFitPowerLawSkipsNonPositive(t *testing.T) {
	xs := []float64{-1, 0, 1, 2, 4}
	ys := []float64{9, 9, 5, 10, 20} // usable tail: y = 5x
	fit, err := FitPowerLaw(xs, ys)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(fit.B-1) > 1e-9 {
		t.Errorf("B = %g, want 1", fit.B)
	}
}

func TestFitPowerLawErrors(t *testing.T) {
	if _, err := FitPowerLaw([]float64{1}, []float64{1, 2}); err == nil {
		t.Error("length mismatch should error")
	}
	if _, err := FitPowerLaw([]float64{-1, -2}, []float64{1, 2}); err == nil {
		t.Error("no positive points should error")
	}
}

func TestQuantileAtYield(t *testing.T) {
	xs := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	if q := QuantileAtYield(xs, 1.0); q != 10 {
		t.Errorf("yield 1.0 quantile = %g", q)
	}
	if q := QuantileAtYield(xs, 0); q != 1 {
		t.Errorf("yield 0 quantile = %g", q)
	}
	q := QuantileAtYield(xs, 0.5)
	if q < 5 || q > 6 {
		t.Errorf("yield 0.5 quantile = %g", q)
	}
}

func TestUniformFillMatchesSequentialUniform(t *testing.T) {
	a, b := NewRNG(42), NewRNG(42)
	batch := make([]float64, 64)
	a.UniformFill(batch, 0.5, 1.5)
	for i, got := range batch {
		if want := b.Uniform(0.5, 1.5); got != want {
			t.Fatalf("sample %d: UniformFill %v != Uniform %v", i, got, want)
		}
	}
	if x := a.Float64(); x != b.Float64() {
		t.Error("streams diverged after the batch")
	}
}

func TestUniformFillEmpty(t *testing.T) {
	NewRNG(1).UniformFill(nil, 0, 1) // must not panic
}
