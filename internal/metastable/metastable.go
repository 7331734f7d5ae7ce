// Package metastable quantifies the synchronization-failure argument of
// Section VI: a flip-flop that samples an asynchronous signal can enter a
// metastable state if the signal transitions inside the latch's aperture
// window, and the probability that it has not resolved after time t
// decays as exp(−t/τ). The mean time between synchronization failures of
// a synchronizer given resolution time tr is the classical
//
//	MTBF = e^(tr/τc) / (Tw · fclk · fdata),
//
// where Tw is the aperture width, fclk the sampling clock frequency, and
// fdata the asynchronous event rate.
//
// The paper's hybrid scheme sidesteps the problem structurally: "an
// element stops its clock synchronously and has its clock started
// asynchronously", so no latch ever samples an unsynchronized signal and
// the failure rate is exactly zero. This package provides the model that
// makes the comparison quantitative: a conventional synchronizer has a
// finite MTBF that shrinks linearly with the number of asynchronous
// boundary crossings, while the hybrid handshake network has none.
package metastable

import (
	"fmt"
	"math"

	"repro/internal/stats"
)

// Synchronizer models one clocked latch sampling an asynchronous input.
type Synchronizer struct {
	// Tau is the metastability resolution time constant τc.
	Tau float64
	// Window is the aperture width Tw around the clock edge within which
	// an input transition causes metastability.
	Window float64
	// ClockFreq is the sampling clock frequency.
	ClockFreq float64
	// DataRate is the asynchronous input transition rate.
	DataRate float64
}

func (s Synchronizer) validate() error {
	if s.Tau <= 0 || s.Window <= 0 || s.ClockFreq <= 0 || s.DataRate <= 0 {
		return fmt.Errorf("metastable: all parameters must be positive, got %+v", s)
	}
	return nil
}

// FailureProbPerSample returns the probability that one sample both
// catches a transition in the aperture and remains unresolved after the
// given resolution time.
func (s Synchronizer) FailureProbPerSample(resolve float64) (float64, error) {
	if err := s.validate(); err != nil {
		return 0, err
	}
	if resolve < 0 {
		return 0, fmt.Errorf("metastable: negative resolution time %g", resolve)
	}
	pCatch := s.Window * s.DataRate // probability a transition lands in the window
	if pCatch > 1 {
		pCatch = 1
	}
	return pCatch * math.Exp(-resolve/s.Tau), nil
}

// MTBF returns the mean time between synchronization failures given the
// resolution time allowed before the sampled value is used.
func (s Synchronizer) MTBF(resolve float64) (float64, error) {
	p, err := s.FailureProbPerSample(resolve)
	if err != nil {
		return 0, err
	}
	rate := p * s.ClockFreq
	if rate == 0 {
		return math.Inf(1), nil
	}
	return 1 / rate, nil
}

// SystemMTBF returns the MTBF of a system with the given number of
// independent asynchronous boundary crossings: failures accumulate, so
// the system MTBF is the single-synchronizer MTBF divided by the count.
// This is what dooms ad-hoc asynchronous interfacing in large arrays —
// and what the hybrid scheme's zero-crossing design avoids.
func (s Synchronizer) SystemMTBF(resolve float64, crossings int) (float64, error) {
	if crossings < 0 {
		return 0, fmt.Errorf("metastable: negative crossing count %d", crossings)
	}
	if crossings == 0 {
		// No asynchronous boundary is ever sampled — the hybrid case.
		return math.Inf(1), nil
	}
	mtbf, err := s.MTBF(resolve)
	if err != nil {
		return 0, err
	}
	return mtbf / float64(crossings), nil
}

// ResolveTimeForMTBF returns the resolution time required to reach the
// target MTBF with the given number of crossings — the latency cost a
// conventional synchronizer design pays, growing logarithmically with
// both the target and the crossing count.
func (s Synchronizer) ResolveTimeForMTBF(target float64, crossings int) (float64, error) {
	if err := s.validate(); err != nil {
		return 0, err
	}
	if target <= 0 || crossings < 1 {
		return 0, fmt.Errorf("metastable: need positive target and ≥1 crossing, got %g, %d", target, crossings)
	}
	pCatch := s.Window * s.DataRate
	if pCatch > 1 {
		pCatch = 1
	}
	// target = e^(tr/τ) / (pCatch · fclk · crossings)
	tr := s.Tau * math.Log(target*pCatch*s.ClockFreq*float64(crossings))
	if tr < 0 {
		tr = 0
	}
	return tr, nil
}

// SimulateFailures Monte-Carlo samples the synchronizer for the given
// number of clock cycles and returns the observed failure count: each
// cycle, a transition lands in the aperture with probability
// Window·DataRate, and an in-aperture event stays metastable past the
// resolution time with probability exp(−resolve/τ).
func (s Synchronizer) SimulateFailures(cycles int, resolve float64, rng *stats.RNG) (int, error) {
	if err := s.validate(); err != nil {
		return 0, err
	}
	if cycles < 0 {
		return 0, fmt.Errorf("metastable: negative cycle count %d", cycles)
	}
	if rng == nil {
		return 0, fmt.Errorf("metastable: need an RNG")
	}
	pCatch := s.Window * s.DataRate
	if pCatch > 1 {
		pCatch = 1
	}
	pHold := math.Exp(-resolve / s.Tau)
	failures := 0
	for i := 0; i < cycles; i++ {
		if rng.Bernoulli(pCatch) && rng.Bernoulli(pHold) {
			failures++
		}
	}
	return failures, nil
}
