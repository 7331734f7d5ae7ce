package main

import (
	"fmt"
	"math"
	"sort"
)

// minBeyond is how many samples must lie above a reported percentile:
// a tail percentile resting on fewer is refused rather than reported.
const minBeyond = 10

// percentile returns the nearest-rank p-th percentile (0 < p < 100) of
// samples, refusing one with fewer than minBeyond samples above it.
func percentile(samples []float64, p float64) (float64, error) {
	n := len(samples)
	if n == 0 || p <= 0 || p >= 100 {
		return 0, fmt.Errorf("percentile %g of %d samples is undefined", p, n)
	}
	rank := int(math.Ceil(p / 100 * float64(n)))
	if beyond := n - rank; beyond < minBeyond {
		return 0, fmt.Errorf("p%g of %d samples has %d beyond it, want at least %d", p, n, beyond, minBeyond)
	}
	s := append([]float64(nil), samples...)
	sort.Float64s(s)
	return s[rank-1], nil
}

// tailPercentile returns the highest of p99, p95 and p90 that percentile
// accepts for n samples, and 0 when none is.
func tailPercentile(n int) float64 {
	for _, p := range []float64{99, 95, 90} {
		if n-int(math.Ceil(p/100*float64(n))) >= minBeyond {
			return p
		}
	}
	return 0
}

func median(samples []float64) float64 {
	if len(samples) == 0 {
		return 0
	}
	s := append([]float64(nil), samples...)
	sort.Float64s(s)
	if n := len(s); n%2 == 1 {
		return s[n/2]
	} else {
		return (s[n/2-1] + s[n/2]) / 2
	}
}

func mean(samples []float64) float64 {
	if len(samples) == 0 {
		return 0
	}
	var sum float64
	for _, v := range samples {
		sum += v
	}
	return sum / float64(len(samples))
}

// windowedPercentile splits samples (in send order) into k consecutive
// equal parts and returns the median of the parts' p-th percentiles.
// Each part must support p on its own.
func windowedPercentile(samples []float64, p float64, k int) (float64, error) {
	per := make([]float64, k)
	for i := range per {
		v, err := percentile(samples[i*len(samples)/k:(i+1)*len(samples)/k], p)
		if err != nil {
			return 0, fmt.Errorf("window %d of %d: %w", i+1, k, err)
		}
		per[i] = v
	}
	return median(per), nil
}
