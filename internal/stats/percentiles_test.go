package stats

import (
	"math"
	"testing"
)

// TestPercentilesMatchesPercentile pins the batched path to the
// single-quantile wrapper over random samples: any divergence between
// the two implementations is a semantics change.
func TestPercentilesMatchesPercentile(t *testing.T) {
	rng := NewRNG(42)
	ps := []float64{-5, 0, 1, 12.5, 50, 90, 95, 99, 99.9, 100, 250}
	for trial := 0; trial < 50; trial++ {
		n := 1 + rng.Intn(200)
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = rng.Normal(0, 100)
		}
		got := Percentiles(xs, ps...)
		if len(got) != len(ps) {
			t.Fatalf("len = %d, want %d", len(got), len(ps))
		}
		for i, p := range ps {
			want := Percentile(xs, p)
			if got[i] != want {
				t.Fatalf("trial %d: Percentiles(...)[%d] (p=%g) = %v, Percentile = %v", trial, i, p, got[i], want)
			}
		}
	}
}

func TestPercentilesDoesNotMutateInput(t *testing.T) {
	xs := []float64{9, 1, 5, 3, 7}
	Percentiles(xs, 10, 50, 90)
	want := []float64{9, 1, 5, 3, 7}
	for i := range xs {
		if xs[i] != want[i] {
			t.Fatalf("input mutated: %v", xs)
		}
	}
}

func TestPercentilesNaNPoisonsAll(t *testing.T) {
	out := Percentiles([]float64{1, math.NaN(), 3}, 0, 50, 100)
	for i, v := range out {
		if !math.IsNaN(v) {
			t.Errorf("result %d = %v, want NaN", i, v)
		}
	}
}

func TestPercentilesEmptyBatchAndEmptyInput(t *testing.T) {
	// No quantiles requested is fine — one sort, zero results.
	if out := Percentiles([]float64{1, 2, 3}); len(out) != 0 {
		t.Errorf("no-ps call returned %v", out)
	}
	defer func() {
		if r := recover(); r == nil {
			t.Error("empty input should panic like Percentile")
		}
	}()
	Percentiles(nil, 50)
}

func TestPercentilesOrderedBatch(t *testing.T) {
	// On a 0..100 ramp the p-th percentile is p itself; a batch must
	// hold that for every requested quantile at once.
	xs := make([]float64, 101)
	for i := range xs {
		xs[i] = float64(100 - i) // reversed, so sorting matters
	}
	ps := []float64{0, 25, 50, 75, 90, 99, 100}
	out := Percentiles(xs, ps...)
	for i, p := range ps {
		if math.Abs(out[i]-p) > 1e-9 {
			t.Errorf("p=%g: got %v, want %v", p, out[i], p)
		}
	}
}
