// Package stats provides the seeded randomness and statistical helpers
// used throughout the reproduction: summary statistics, percentile
// estimation, power-law fitting for growth-rate measurements (e.g. fitting
// σ(n) ≈ a·n^b to verify the Ω(n) mesh skew lower bound), and the
// random-walk machinery behind the paper's Section VII √n yield analysis.
//
// Every source of randomness in the repository flows through NewRNG so
// that all experiments are reproducible bit-for-bit from their seeds.
package stats

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"sync/atomic"
)

// RNG is the repository's random number generator. It wraps math/rand with
// an explicit seed so experiments are deterministic.
//
// An RNG is single-goroutine: sampling methods detect overlapping calls
// from multiple goroutines and panic instead of silently racing on the
// underlying math/rand state (which would destroy reproducibility).
// Concurrent code must give each goroutine its own generator, derived
// with Fork so results stay deterministic at any parallelism.
type RNG struct {
	rand *rand.Rand
	seed int64
	// busy guards rand: set while a sampling method is running, so a
	// second goroutine entering concurrently is caught deterministically.
	busy atomic.Bool
}

// NewRNG returns a deterministic generator for the given seed.
func NewRNG(seed int64) *RNG {
	return &RNG{rand: rand.New(rand.NewSource(seed)), seed: seed}
}

// Seed returns the seed the generator was created with.
func (r *RNG) Seed() int64 { return r.seed }

// enter marks the generator busy; it panics if another goroutine is
// mid-call, turning a data race into a deterministic error.
func (r *RNG) enter() {
	if !r.busy.CompareAndSwap(false, true) {
		panic("stats: RNG used concurrently from multiple goroutines; give each goroutine its own generator via Fork")
	}
}

// exit marks the generator free again.
func (r *RNG) exit() { r.busy.Store(false) }

// Float64 returns a sample from U[0, 1).
func (r *RNG) Float64() float64 {
	r.enter()
	defer r.exit()
	return r.rand.Float64()
}

// Intn returns a uniform sample from [0, n); it panics if n <= 0.
func (r *RNG) Intn(n int) int {
	r.enter()
	defer r.exit()
	return r.rand.Intn(n)
}

// Int63 returns a uniform non-negative 63-bit integer.
func (r *RNG) Int63() int64 {
	r.enter()
	defer r.exit()
	return r.rand.Int63()
}

// Fork derives an independent generator from r, keyed by id. Forked
// generators let concurrent or per-entity streams stay reproducible
// regardless of consumption order elsewhere.
func (r *RNG) Fork(id int64) *RNG {
	return NewRNG(r.forkSeed(id))
}

// ForkInto reseeds dst in place to exactly the stream Fork(id) would
// return and returns dst: every later draw is bit-identical to the
// fork's, but no new source is allocated. dst must come from NewRNG
// (or Fork) and must not be in use by another goroutine; hot loops that
// fork once per trial keep one dst per worker.
func (r *RNG) ForkInto(id int64, dst *RNG) *RNG {
	seed := r.forkSeed(id)
	dst.enter()
	defer dst.exit()
	dst.rand.Seed(seed)
	dst.seed = seed
	return dst
}

// forkSeed derives the seed of r's fork keyed by id.
func (r *RNG) forkSeed(id int64) int64 {
	return mix64(uint64(r.seed)) ^ mix64(uint64(id)*0x9E3779B97F4A7C15+1)
}

// mix64 is the SplitMix64 finalizer, used to decorrelate fork seeds.
func mix64(z uint64) int64 {
	z += 0x9E3779B97F4A7C15
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return int64(z ^ (z >> 31))
}

// Uniform returns a sample from U[lo, hi).
func (r *RNG) Uniform(lo, hi float64) float64 {
	r.enter()
	defer r.exit()
	return lo + (hi-lo)*r.rand.Float64()
}

// UniformFill fills dst with samples from U[lo, hi). The draws come from
// the same underlying stream as len(dst) successive Uniform calls — the
// values are bit-identical — but the concurrent-use guard is taken once
// for the whole batch instead of per sample, which matters in tight
// loops like the skew Monte-Carlo trial that draws one delay per tree
// edge.
func (r *RNG) UniformFill(dst []float64, lo, hi float64) {
	r.enter()
	defer r.exit()
	span := hi - lo
	for i := range dst {
		dst[i] = lo + span*r.rand.Float64()
	}
}

// Float64Fill fills dst with samples from U[0, 1). The draws come from
// the same underlying stream as len(dst) successive Float64 calls — the
// values are bit-identical — but the concurrent-use guard is taken once
// for the whole batch. Engine kernels use it to batch per-cell Bernoulli
// decisions (compare each sample against p) without perturbing the
// stream relative to the reference implementations.
func (r *RNG) Float64Fill(dst []float64) {
	r.enter()
	defer r.exit()
	for i := range dst {
		dst[i] = r.rand.Float64()
	}
}

// Normal returns a sample from N(mean, sd²).
func (r *RNG) Normal(mean, sd float64) float64 {
	r.enter()
	defer r.exit()
	return mean + sd*r.rand.NormFloat64()
}

// Bernoulli returns true with probability p.
func (r *RNG) Bernoulli(p float64) bool {
	r.enter()
	defer r.exit()
	return r.rand.Float64() < p
}

// Mean returns the arithmetic mean of xs, or 0 for an empty slice.
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var sum float64
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// Variance returns the population variance of xs, or 0 for fewer than two
// samples.
func Variance(xs []float64) float64 {
	if len(xs) < 2 {
		return 0
	}
	m := Mean(xs)
	var sum float64
	for _, x := range xs {
		d := x - m
		sum += d * d
	}
	return sum / float64(len(xs))
}

// StdDev returns the population standard deviation of xs.
func StdDev(xs []float64) float64 { return math.Sqrt(Variance(xs)) }

// Min returns the smallest element of xs; it panics on an empty slice.
func Min(xs []float64) float64 {
	m := xs[0]
	for _, x := range xs[1:] {
		if x < m {
			m = x
		}
	}
	return m
}

// Max returns the largest element of xs; it panics on an empty slice.
func Max(xs []float64) float64 {
	m := xs[0]
	for _, x := range xs[1:] {
		if x > m {
			m = x
		}
	}
	return m
}

// Percentile returns the p-th percentile of xs using linear interpolation
// between order statistics. p below 0 or above 100 clamps to the minimum
// and maximum. Any NaN in xs propagates: the result is NaN, since NaN has
// no place in a sorted order. It panics on an empty slice.
//
// Percentile copies and sorts xs on every call; callers extracting
// several quantiles from one sample (p50/p90/p99 over a Monte-Carlo
// run, latency summaries) should use Percentiles, which sorts once.
func Percentile(xs []float64, p float64) float64 {
	return Percentiles(xs, p)[0]
}

// Percentiles returns the percentile of xs at each p in ps, with the
// same semantics as Percentile — linear interpolation between order
// statistics, clamping below 0 and above 100, NaN anywhere in xs
// making every result NaN, and a panic on an empty xs — but one copy
// and one sort for the whole batch instead of one per quantile.
func Percentiles(xs []float64, ps ...float64) []float64 {
	if len(xs) == 0 {
		panic("stats: Percentile of empty slice")
	}
	out := make([]float64, len(ps))
	for _, x := range xs {
		if math.IsNaN(x) {
			for i := range out {
				out[i] = math.NaN()
			}
			return out
		}
	}
	sorted := append([]float64(nil), xs...)
	sort.Float64s(sorted)
	for i, p := range ps {
		out[i] = percentileSorted(sorted, p)
	}
	return out
}

// percentileSorted interpolates the p-th percentile of an
// already-sorted, NaN-free, non-empty slice.
func percentileSorted(sorted []float64, p float64) float64 {
	if p <= 0 {
		return sorted[0]
	}
	if p >= 100 {
		return sorted[len(sorted)-1]
	}
	pos := p / 100 * float64(len(sorted)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	if lo == hi {
		return sorted[lo]
	}
	frac := pos - float64(lo)
	return sorted[lo]*(1-frac) + sorted[hi]*frac
}

// Summary holds the descriptive statistics of a sample.
type Summary struct {
	N             int
	Mean, Std     float64
	Min, Max      float64
	P50, P90, P99 float64
}

// Summarize computes descriptive statistics for xs. A nil or empty input
// yields a zero Summary.
func Summarize(xs []float64) Summary {
	if len(xs) == 0 {
		return Summary{}
	}
	qs := Percentiles(xs, 50, 90, 99)
	return Summary{
		N:    len(xs),
		Mean: Mean(xs),
		Std:  StdDev(xs),
		Min:  Min(xs),
		Max:  Max(xs),
		P50:  qs[0],
		P90:  qs[1],
		P99:  qs[2],
	}
}

// PowerLawFit is the result of fitting y ≈ A·x^B by least squares on
// log-transformed data. R2 is the coefficient of determination in log
// space.
type PowerLawFit struct {
	A, B, R2 float64
}

// FitPowerLaw fits y ≈ A·x^B over points with strictly positive x and y
// (other points are skipped). It returns an error if fewer than two usable
// points remain or all x values coincide.
//
// The exponent B is the growth rate used by the experiment suite: a mesh
// skew lower bound σ(n) = Ω(n) should fit with B ≈ 1, while a constant
// spine-clock skew fits with B ≈ 0.
func FitPowerLaw(xs, ys []float64) (PowerLawFit, error) {
	if len(xs) != len(ys) {
		return PowerLawFit{}, fmt.Errorf("stats: FitPowerLaw length mismatch %d vs %d", len(xs), len(ys))
	}
	var lx, ly []float64
	for i := range xs {
		if xs[i] > 0 && ys[i] > 0 {
			lx = append(lx, math.Log(xs[i]))
			ly = append(ly, math.Log(ys[i]))
		}
	}
	slope, intercept, r2, err := LinearFit(lx, ly)
	if err != nil {
		return PowerLawFit{}, err
	}
	return PowerLawFit{A: math.Exp(intercept), B: slope, R2: r2}, nil
}

// LinearFit fits y ≈ slope·x + intercept by ordinary least squares and
// returns the fit along with R². It returns an error if fewer than two
// points are given or all x values coincide.
func LinearFit(xs, ys []float64) (slope, intercept, r2 float64, err error) {
	if len(xs) != len(ys) {
		return 0, 0, 0, fmt.Errorf("stats: LinearFit length mismatch %d vs %d", len(xs), len(ys))
	}
	if len(xs) < 2 {
		return 0, 0, 0, fmt.Errorf("stats: LinearFit needs at least 2 points, got %d", len(xs))
	}
	mx, my := Mean(xs), Mean(ys)
	var sxx, sxy, syy float64
	for i := range xs {
		dx, dy := xs[i]-mx, ys[i]-my
		sxx += dx * dx
		sxy += dx * dy
		syy += dy * dy
	}
	if sxx == 0 {
		return 0, 0, 0, fmt.Errorf("stats: LinearFit has zero x-variance")
	}
	slope = sxy / sxx
	intercept = my - slope*mx
	if syy == 0 {
		r2 = 1 // perfectly flat data is perfectly explained
	} else {
		r2 = sxy * sxy / (sxx * syy)
	}
	return slope, intercept, r2, nil
}

// QuantileAtYield returns the value v such that a fraction `yield` of the
// samples are ≤ v. It is the "accepted chips" threshold of Section VII:
// with a fixed yield, the accepted discrepancy bound grows like √n.
func QuantileAtYield(samples []float64, yield float64) float64 {
	return Percentile(samples, yield*100)
}
