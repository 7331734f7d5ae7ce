// Package wiresim simulates clock-event transmission along buffered lines
// — the substrate for the paper's Section VII experiment. A long clock
// wire is replaced by a string of inverters (Section II's prescription for
// pipelined clocking on chips); the package measures the cycle time of
// equipotential clocking (one event on the whole line at a time, A6)
// against pipelined clocking (several events in flight, A7/A8), including
// the rise/fall asymmetry mechanisms Section VII analyzes:
//
//   - an odd/even inverter impedance mismatch makes the rise/fall
//     discrepancy accumulate linearly along the string (the effect that
//     dominated on the paper's 2048-inverter chip and capped its
//     pipelined cycle at 500 ns — a 68× speedup over the 34 µs
//     equipotential cycle);
//   - random per-stage variation makes the discrepancy a random walk, so
//     at fixed yield the acceptable cycle time grows as √n;
//   - time-varying delays (violating assumption A8) break pipelining
//     entirely, motivating the hybrid scheme of Section VI.
package wiresim

import (
	"fmt"
	"math"
	"sync"

	"repro/internal/des"
	"repro/internal/stats"
)

// Polarity is the direction of a clock edge.
type Polarity int

// Edge polarities.
const (
	Rising Polarity = iota
	Falling
)

// Invert returns the opposite polarity.
func (p Polarity) Invert() Polarity { return 1 - p }

// InverterString models a chain of inverters used as a clock distribution
// line. rise[i] (fall[i]) is the propagation delay of stage i for a rising
// (falling) edge arriving at its input.
//
// The string is immutable after NewString, which precomputes a kernel
// over it: cumulative delay prefixes for both launch polarities (built
// with exactly the incremental accumulation the retained reference
// loops perform, so lookups are bit-identical) and the accumulated
// rise/fall discrepancy. TraversalTime, EquipotentialCycle,
// MaxDiscrepancy, MinPipelinedPeriod, and Speedup are therefore O(1)
// and allocation-free; the pre-kernel loops survive as the Reference*
// methods in reference.go and zero-tolerance tests hold the two sides
// equal.
type InverterString struct {
	rise, fall []float64
	// MinSeparation is the smallest spacing two consecutive edges may
	// have anywhere on the string before the later edge swallows the
	// earlier one (a pulse collapses).
	MinSeparation float64

	// cumRise[j] (cumFall[j]) is the cumulative delay of an edge
	// launched rising (falling) through the first j stages.
	cumRise, cumFall []float64
	maxDisc          float64
	scratch          sync.Pool // *wsArena, PipelinedRun fast-path state
}

// wsArena is one worker's PipelinedRun scratch: the per-boundary
// previous-arrival times. Reused via the string's pool so repeated runs
// over one string allocate only their result slice.
type wsArena struct {
	last []float64
}

func errBadPeriod(period float64) error {
	return fmt.Errorf("wiresim: period must be positive, got %g", period)
}

func errBadCycles(cycles int) error {
	return fmt.Errorf("wiresim: need ≥ 1 cycle, got %d", cycles)
}

func errJitterNeedsRNG() error {
	return fmt.Errorf("wiresim: jitterSD set but no RNG given")
}

// Config describes the physical parameters of an inverter string.
type Config struct {
	N          int     // number of inverters
	StageDelay float64 // nominal per-stage propagation delay
	// EvenBias and OddBias are added to the rising-edge delay (and
	// subtracted from the falling-edge delay) of even- and odd-indexed
	// stages. When EvenBias == OddBias the discrepancy cancels pairwise
	// (the paper's matched-impedance case); a mismatch accumulates
	// linearly along the string.
	EvenBias, OddBias float64
	// NoiseSD is the standard deviation of independent per-stage random
	// delay variation (fabrication variation; Section VII's N(0, V)).
	NoiseSD float64
	// MinSeparation for the built string; if zero, 2·StageDelay is used.
	MinSeparation float64
	// OneShot models the paper's proposed fix for rise/fall asymmetry:
	// "make each buffer respond only to rising edges on its input and
	// generate its own falling edges with a one-shot pulse generator."
	// Each stage then delays both edge polarities identically (the
	// rising-edge delay), so bias cannot accumulate — at the cost of a
	// wired-in or programmable pulse width.
	OneShot bool
}

// SectionVIIConfig returns parameters calibrated to the paper's test chip:
// 2048 minimum nMOS inverters, a 34 µs equipotential cycle, and a slight
// design bias toward falling edges that caps the pipelined cycle near
// 500 ns (time unit: seconds).
func SectionVIIConfig() Config {
	return Config{
		N:          2048,
		StageDelay: 8.3e-9, // 2·2048·8.3ns ≈ 34 µs equipotential cycle
		EvenBias:   0.057e-9,
		OddBias:    -0.057e-9, // ≈0.114 ns/stage of discrepancy accumulates to ≈233 ns
		NoiseSD:    0.01e-9,
		// A minimum inverter needs roughly a stage delay of separation to
		// pass a clean edge.
		MinSeparation: 16.6e-9,
	}
}

// NewString builds an inverter string from cfg. Randomness (NoiseSD) is
// drawn from rng; a nil rng is allowed when NoiseSD is zero.
func NewString(cfg Config, rng *stats.RNG) (*InverterString, error) {
	if cfg.N < 1 {
		return nil, fmt.Errorf("wiresim: need ≥ 1 inverter, got %d", cfg.N)
	}
	if cfg.StageDelay <= 0 {
		return nil, fmt.Errorf("wiresim: stage delay must be positive, got %g", cfg.StageDelay)
	}
	if cfg.NoiseSD > 0 && rng == nil {
		return nil, fmt.Errorf("wiresim: NoiseSD set but no RNG given")
	}
	s := &InverterString{
		rise:          make([]float64, cfg.N),
		fall:          make([]float64, cfg.N),
		MinSeparation: cfg.MinSeparation,
	}
	if s.MinSeparation == 0 {
		s.MinSeparation = 2 * cfg.StageDelay
	}
	for i := 0; i < cfg.N; i++ {
		bias := cfg.EvenBias
		if i%2 == 1 {
			bias = cfg.OddBias
		}
		var nr, nf float64
		if cfg.NoiseSD > 0 {
			nr = rng.Normal(0, cfg.NoiseSD)
			nf = rng.Normal(0, cfg.NoiseSD)
		}
		s.rise[i] = cfg.StageDelay + bias + nr
		if cfg.OneShot {
			// One-shot stages regenerate falling edges locally, so both
			// polarities see the rising-edge timing.
			s.fall[i] = s.rise[i]
		} else {
			s.fall[i] = cfg.StageDelay - bias + nf
		}
		if s.rise[i] <= 0 || s.fall[i] <= 0 {
			return nil, fmt.Errorf("wiresim: stage %d has non-positive delay (bias/noise too large)", i)
		}
	}
	s.precompute()
	return s, nil
}

// precompute builds the kernel over the finished stage delays: both
// launch polarities' cumulative prefixes and the worst rise/fall gap.
// The accumulation is the reference loops' own (tr += stageDelay in
// stage order), so prefix lookups reproduce their sums bit for bit.
func (s *InverterString) precompute() {
	n := len(s.rise)
	s.cumRise = make([]float64, n+1)
	s.cumFall = make([]float64, n+1)
	var tr, tf, worst float64
	p := Rising
	for i := 0; i < n; i++ {
		tr += s.stageDelay(i, p)
		tf += s.stageDelay(i, p.Invert())
		s.cumRise[i+1] = tr
		s.cumFall[i+1] = tf
		if d := math.Abs(tr - tf); d > worst {
			worst = d
		}
		p = p.Invert()
	}
	s.maxDisc = worst
	s.scratch.New = func() any { return &wsArena{} }
}

// N returns the number of inverters.
func (s *InverterString) N() int { return len(s.rise) }

// stageDelay returns the delay of stage i for an edge of polarity p
// arriving at its input.
func (s *InverterString) stageDelay(i int, p Polarity) float64 {
	if p == Rising {
		return s.rise[i]
	}
	return s.fall[i]
}

// TraversalTime returns the total time for a single edge of the given
// launch polarity to propagate through the whole string. The edge's
// polarity flips at every inverter. O(1): the cumulative prefixes are
// precomputed, bit-identical to ReferenceTraversalTime's loop.
func (s *InverterString) TraversalTime(launch Polarity) float64 {
	if launch == Rising {
		return s.cumRise[len(s.rise)]
	}
	return s.cumFall[len(s.rise)]
}

// EquipotentialCycle returns the cycle time of conventional single-phase
// clocking on this line: the driver must propagate the rising edge to the
// far end and then the falling edge before the next cycle begins (A6: τ
// grows with line length).
func (s *InverterString) EquipotentialCycle() float64 {
	return s.TraversalTime(Rising) + s.TraversalTime(Falling)
}

// MaxDiscrepancy returns max over stage boundaries j of |D_j(rising) −
// D_j(falling)|, where D_j(p) is the cumulative delay of an edge launched
// with polarity p through the first j stages. This is the accumulated
// rise/fall discrepancy of Section VII: consecutive pipelined clock edges
// launched T/2 apart arrive at stage j with spacing T/2 ± Δ_j, so the
// discrepancy decides the minimum pipelined period. O(1): precomputed,
// bit-identical to ReferenceMaxDiscrepancy's walk.
func (s *InverterString) MaxDiscrepancy() float64 {
	return s.maxDisc
}

// MinPipelinedPeriod returns the smallest clock period at which a 50%-duty
// pipelined clock traverses the string with every edge separation at every
// stage staying at or above MinSeparation:
//
//	T = 2 · (MinSeparation + MaxDiscrepancy).
func (s *InverterString) MinPipelinedPeriod() float64 {
	return 2 * (s.MinSeparation + s.MaxDiscrepancy())
}

// Speedup returns EquipotentialCycle / MinPipelinedPeriod — the figure of
// merit Section VII reports as 68× for the test chip.
func (s *InverterString) Speedup() float64 {
	return s.EquipotentialCycle() / s.MinPipelinedPeriod()
}

// RunResult reports a pipelined clock simulation.
type RunResult struct {
	// MinSpacing is the smallest inter-edge spacing observed at any stage.
	MinSpacing float64
	// Violations counts edge pairs whose spacing fell below MinSeparation.
	Violations int
	// EdgesDelivered counts edges that reached the far end.
	EdgesDelivered int
	// OutputSpacings are the spacings between consecutive edges at the
	// far end of the string.
	OutputSpacings []float64
}

// PipelinedRun simulates driving the string with a 50%-duty clock of the
// given period for the given number of cycles. jitterSD, when positive,
// adds fresh random noise to every stage traversal of every edge — the
// time-varying behavior that violates assumption A8 and defeats pipelined
// clocking (Section VI's starting point).
//
// Without jitter the stage delays are fixed, so each edge's arrival
// times are a deterministic replay; PipelinedRun then walks the edges
// in launch order over flat arrays instead of paying the event heap,
// falling back to the reference discrete-event simulation the moment a
// later edge overtakes an earlier one (where launch order stops being
// arrival order). Either way the result is bit-identical to
// ReferencePipelinedRun.
func (s *InverterString) PipelinedRun(period float64, cycles int, jitterSD float64, rng *stats.RNG) (RunResult, error) {
	if period <= 0 {
		return RunResult{}, errBadPeriod(period)
	}
	if cycles < 1 {
		return RunResult{}, errBadCycles(cycles)
	}
	if jitterSD > 0 && rng == nil {
		return RunResult{}, errJitterNeedsRNG()
	}
	if jitterSD <= 0 {
		if res, ok := s.fastPipelinedRun(period, cycles); ok {
			return res, nil
		}
	}
	return s.desPipelinedRun(period, cycles, jitterSD, rng), nil
}

// fastPipelinedRun is the deterministic fast path: every edge's arrival
// times are accumulated with the DES's own float operations (launch +
// per-stage additions), and the per-boundary spacing bookkeeping is
// replayed in launch order. Reports ok=false — caller must run the DES
// — if any spacing goes negative, i.e. an edge overtook its
// predecessor and launch order is no longer arrival order.
func (s *InverterString) fastPipelinedRun(period float64, cycles int) (RunResult, bool) {
	n := s.N()
	ar := s.scratch.Get().(*wsArena)
	if cap(ar.last) < n+1 {
		ar.last = make([]float64, n+1)
	} else {
		ar.last = ar.last[:n+1]
	}
	last := ar.last
	for i := range last {
		last[i] = math.Inf(-1)
	}
	res := RunResult{MinSpacing: math.Inf(1)}
	lastOut := math.Inf(-1)
	edges := 2 * cycles
	res.OutputSpacings = make([]float64, 0, edges-1)
	for k := 0; k < edges; k++ {
		p := Rising
		if k%2 == 1 {
			p = Falling
		}
		t := float64(k) * period / 2
		for i := 0; i <= n; i++ {
			if spacing := t - last[i]; !math.IsInf(spacing, -1) {
				if spacing < 0 {
					s.scratch.Put(ar)
					return RunResult{}, false
				}
				if spacing < res.MinSpacing {
					res.MinSpacing = spacing
				}
				if spacing < s.MinSeparation-1e-15 {
					res.Violations++
				}
			}
			last[i] = t
			if i == n {
				res.EdgesDelivered++
				if !math.IsInf(lastOut, -1) {
					res.OutputSpacings = append(res.OutputSpacings, t-lastOut)
				}
				lastOut = t
				break
			}
			t += s.stageDelay(i, p)
			p = p.Invert()
		}
	}
	s.scratch.Put(ar)
	return res, true
}

// desPipelinedRun is the retained pre-kernel discrete-event simulation,
// shared by ReferencePipelinedRun and PipelinedRun's jitter/fallback
// paths. Inputs are assumed validated.
func (s *InverterString) desPipelinedRun(period float64, cycles int, jitterSD float64, rng *stats.RNG) RunResult {
	n := s.N()
	res := RunResult{MinSpacing: math.Inf(1)}
	lastArrival := make([]float64, n+1) // per stage boundary, time of previous edge
	for i := range lastArrival {
		lastArrival[i] = math.Inf(-1)
	}
	var sim des.Sim
	var lastOut float64 = math.Inf(-1)

	// inject schedules edge arrival at stage boundary i (i == n means the
	// far end) at time t with polarity p.
	var inject func(i int, t float64, p Polarity)
	inject = func(i int, t float64, p Polarity) {
		sim.At(t, func() {
			if spacing := sim.Now() - lastArrival[i]; !math.IsInf(spacing, -1) {
				if spacing < res.MinSpacing {
					res.MinSpacing = spacing
				}
				if spacing < s.MinSeparation-1e-15 {
					res.Violations++
				}
			}
			lastArrival[i] = sim.Now()
			if i == n {
				res.EdgesDelivered++
				if !math.IsInf(lastOut, -1) {
					res.OutputSpacings = append(res.OutputSpacings, sim.Now()-lastOut)
				}
				lastOut = sim.Now()
				return
			}
			d := s.stageDelay(i, p)
			if jitterSD > 0 {
				d += rng.Normal(0, jitterSD)
				if d < 1e-15 {
					d = 1e-15
				}
			}
			inject(i+1, sim.Now()+d, p.Invert())
		})
	}
	for k := 0; k < 2*cycles; k++ {
		p := Rising
		if k%2 == 1 {
			p = Falling
		}
		inject(0, float64(k)*period/2, p)
	}
	sim.Run(int64(2*cycles) * int64(n+2) * 2)
	return res
}
