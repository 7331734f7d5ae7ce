// Package selftimed models fully self-timed (asynchronous, handshaking)
// execution of processor arrays — the alternative to clocking that
// Section I of the paper weighs and mostly rejects for regular arrays.
//
// A self-timed array is a marked dataflow graph: every communication edge
// starts holding one initial token (the reset register value), and a cell
// fires its k-th step as soon as the k-th token is present on each of its
// input edges and its single-buffered output edges have been drained of
// their (k−1)-th tokens. Because the token game is deterministic (a Kahn
// network), the *values* computed are identical to the ideal lock-step
// run; what self-timing changes is only the *timing*. This package
// therefore simulates the firing-time recurrence directly, with random
// per-firing cell delays, and measures throughput.
//
// The paper's Section I argument is quantitative: if a cell avoids its
// worst-case delay with probability p, a wave of computation crossing a
// k-cell path escapes the worst case only with probability p^k, so
//
//	P(worst case on path) = 1 − p^k → 1,
//
// and large self-timed arrays run at worst-case speed anyway — clocking
// loses nothing. WorstCaseProb and the Run measurements reproduce this.
package selftimed

import (
	"fmt"
	"math"

	"repro/internal/comm"
	"repro/internal/faults"
	"repro/internal/stats"
)

// Delays parameterizes the self-timed timing model.
type Delays struct {
	// Fast is a cell's step delay when it avoids the worst case.
	Fast float64
	// Worst is the worst-case step delay (Fast ≤ Worst).
	Worst float64
	// PWorst is the probability that a given firing takes Worst.
	PWorst float64
	// Handshake is the req/ack overhead added to every token transfer.
	Handshake float64
}

func (d Delays) validate() error {
	if d.Fast <= 0 || d.Worst < d.Fast {
		return fmt.Errorf("selftimed: need 0 < Fast ≤ Worst, got fast=%g worst=%g", d.Fast, d.Worst)
	}
	if d.PWorst < 0 || d.PWorst > 1 {
		return fmt.Errorf("selftimed: PWorst must be in [0,1], got %g", d.PWorst)
	}
	if d.Handshake < 0 {
		return fmt.Errorf("selftimed: Handshake must be ≥ 0, got %g", d.Handshake)
	}
	return nil
}

// Result reports a self-timed run.
type Result struct {
	// Makespan is the completion time of the last firing.
	Makespan float64
	// MeanInterval is Makespan divided by the number of waves — the
	// effective cycle time of the self-timed array.
	MeanInterval float64
	// WorstFraction is the fraction of firings that hit the worst case.
	WorstFraction float64
	// Waves is the number of steps each cell executed.
	Waves int
}

// Run simulates K waves of self-timed execution of g's cells under the
// delay model with single-buffered (1-deep) channels, returning timing
// statistics. Host edges are always ready (the host is assumed fast).
// Randomness comes from rng; a nil rng is allowed when PWorst is 0 or 1.
func Run(g *comm.Graph, waves int, d Delays, rng *stats.RNG) (Result, error) {
	return RunElastic(g, waves, d, 1, rng)
}

// RunElastic is Run with configurable channel depth: each communication
// edge can hold `depth` unconsumed tokens before its producer stalls.
// Deeper buffers decouple the cells further, letting the array absorb
// more delay variance — the quantitative counterpoint to Section I's
// rigid-wave analysis. depth must be ≥ 1.
func RunElastic(g *comm.Graph, waves int, d Delays, depth int, rng *stats.RNG) (Result, error) {
	return RunElasticFaulty(g, waves, d, depth, rng, nil)
}

// RunElasticFaulty is RunElastic with fault injection on the token
// transfers: each req/ack transfer of a wave-k token across an edge may
// be dropped (and retransmitted after the injector's timeout), delayed,
// or stalled in the consumer's synchronizer. A consumer still waits for
// the token, so faults postpone firings but never reorder the token game
// — the values computed are untouched, and the makespan exceeds the
// clean run's by at most inj.TotalExtra(). A nil injector is RunElastic.
//
// RunElasticFaulty builds a throwaway Kernel; callers sweeping waves,
// delays, depths, or seeds over one graph should build the Kernel once
// and call it directly. The pre-kernel implementation is retained as
// ReferenceRunElasticFaulty and the two agree bit for bit.
func RunElasticFaulty(g *comm.Graph, waves int, d Delays, depth int, rng *stats.RNG, inj *faults.Injector) (Result, error) {
	return NewKernel(g).RunElasticFaulty(waves, d, depth, rng, inj)
}

// RunRigid simulates the wave model behind the paper's 1 − p^k argument:
// every wave advances as a rigid front, so each wave costs the maximum
// delay of any cell participating in it (plus handshake). This is the
// behavior of arrays whose waves must be collected synchronously (e.g.
// when the host consumes one result per wave in order); the elastic Run
// model with 1-deep buffers absorbs part of the variance, so it sits
// between the mean delay and this rigid bound.
func RunRigid(g *comm.Graph, waves int, d Delays, rng *stats.RNG) (Result, error) {
	return NewKernel(g).RunRigid(waves, d, rng)
}

// WorstCaseProb returns the paper's 1 − p^k: the probability that at
// least one cell on a k-cell path is at its worst case, when each cell
// independently avoids the worst case with probability p.
func WorstCaseProb(p float64, k int) float64 {
	return 1 - math.Pow(p, float64(k))
}
