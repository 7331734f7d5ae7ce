package skew

import (
	"fmt"
	"math"

	"repro/internal/clocktree"
	"repro/internal/comm"
	"repro/internal/faults"
	"repro/internal/stats"
)

// ClockParams are the electrical parameters of a clock distribution
// network, the inputs of clocksim's delay regimes (clocksim.Params is
// this type). They live here, beside the kernel whose methods run the
// regimes, so that clocksim can build on the kernel without an import
// cycle; their errors keep clocksim's prefix, the package that states
// the regimes.
type ClockParams struct {
	// M is the nominal delay per unit of wire length; Eps the variation
	// band (Section III): unit delays lie in [M−Eps, M+Eps].
	M, Eps float64
	// BufferDelay is the fixed delay added at every buffer node (A7).
	BufferDelay float64
	// MinSeparation is the smallest spacing two consecutive clock events
	// may have anywhere in the tree before a pulse collapses.
	MinSeparation float64
	// RiseFallBias is the per-buffer difference between rising- and
	// falling-edge delays; consecutive events accumulate it along root
	// paths (the Section VII mechanism, on a tree).
	RiseFallBias float64
}

// Validate reports parameters no regime can run with.
func (p ClockParams) Validate() error {
	if p.M <= 0 || p.Eps < 0 || p.Eps > p.M {
		return fmt.Errorf("clocksim: need 0 < M and 0 ≤ Eps ≤ M, got M=%g Eps=%g", p.M, p.Eps)
	}
	if p.BufferDelay < 0 {
		return fmt.Errorf("clocksim: BufferDelay must be ≥ 0, got %g", p.BufferDelay)
	}
	return nil
}

// clock propagates one clock event down the tree's preorder into
// a.arrival: node v's edge delays it by its electrical length times the
// unit delay a.units[draw[v]], plus BufferDelay at a buffer node, plus
// inj's excess for the edge when inj is non-nil. Per edge, the operands
// and their order are those of clocksim's reference traversal, so every
// arrival is bit-identical to it.
func (k *Kernel) clock(a *mcArena, p ClockParams, inj *faults.Injector) {
	t, at, draw := k.tree, a.arrival, k.drawOrder()
	parent := t.Parents()[:len(at)]
	at[0] = 0
	for v := 1; v < len(at); v++ {
		id := clocktree.NodeID(v)
		buf := 0.0
		if t.IsBuffer(id) {
			buf = p.BufferDelay
		}
		at[v] = at[parent[v]] + t.EdgeLen(id)*a.units[draw[v]] + buf
		if inj != nil {
			at[v] += inj.EdgeJitter(uint64(v))
		}
	}
}

// regime validates p, runs one regime in a pooled arena — fill sets the
// arena's unit delays — and returns the worst comm-pair skew. A
// streamed-tier kernel has no per-node scratch and returns its
// *SizeError.
func (k *Kernel) regime(p ClockParams, inj *faults.Injector, fill func(units []float64) error) (float64, error) {
	if k.sizeErr != nil {
		return 0, k.sizeErr
	}
	if err := p.Validate(); err != nil {
		return 0, err
	}
	a := k.arenas.Get().(*mcArena)
	defer k.arenas.Put(a)
	if err := fill(a.units); err != nil {
		return 0, err
	}
	k.clock(a, p, inj)
	return k.pairSkew(a.arrival), nil
}

// NominalSkew returns the worst comm-pair skew with every wire at
// exactly M per unit. Steady state allocates nothing.
func (k *Kernel) NominalSkew(p ClockParams) (float64, error) {
	return k.regime(p, nil, func(units []float64) error {
		setAll(units, p.M)
		return nil
	})
}

// RandomSkew runs one trial of the random regime — an independent
// U[M−Eps, M+Eps] unit delay per edge, drawn from rng in clocksim's
// order — and returns the worst comm-pair skew. Steady state allocates
// nothing.
func (k *Kernel) RandomSkew(p ClockParams, rng *stats.RNG) (float64, error) {
	return k.drawn("Random", p, rng, nil)
}

// JitteredSkew is RandomSkew plus inj's per-edge excess beyond the band,
// keyed by the edge's child node ID. A nil injector is RandomSkew.
func (k *Kernel) JitteredSkew(p ClockParams, rng *stats.RNG, inj *faults.Injector) (float64, error) {
	return k.drawn("Jittered", p, rng, inj)
}

// drawn runs the regime named fn, whose unit delays are drawn from rng.
func (k *Kernel) drawn(fn string, p ClockParams, rng *stats.RNG, inj *faults.Injector) (float64, error) {
	return k.regime(p, inj, func(units []float64) error {
		if rng == nil {
			return fmt.Errorf("clocksim: %s needs an RNG", fn)
		}
		rng.UniformFill(units, p.M-p.Eps, p.M+p.Eps)
		return nil
	})
}

// AdversarialSkew returns the worst comm-pair skew under the
// worst-case-consistent assignment for the cell pair (a, b): wires on
// a's side of their lowest common ancestor run slow (M+Eps per unit),
// wires on b's side fast (M−Eps), and every other wire at M.
func (k *Kernel) AdversarialSkew(p ClockParams, a, b comm.CellID) (float64, error) {
	return k.regime(p, nil, func(units []float64) error {
		na, ok := k.tree.CellNode(a)
		if !ok {
			return fmt.Errorf("clocksim: cell %d not clocked by tree %q", a, k.tree.Name)
		}
		nb, ok := k.tree.CellNode(b)
		if !ok {
			return fmt.Errorf("clocksim: cell %d not clocked by tree %q", b, k.tree.Name)
		}
		setAll(units, p.M)
		draw, lca := k.drawOrder(), k.tree.LCA(na, nb)
		for v := nb; v != lca; v = k.tree.Parent(v) {
			units[draw[v]] = p.M - p.Eps
		}
		for v := na; v != lca; v = k.tree.Parent(v) {
			units[draw[v]] = p.M + p.Eps
		}
		return nil
	})
}

func setAll(units []float64, u float64) {
	for i := range units {
		units[i] = u
	}
}

// MaxEventDrift returns the maximum accumulated rise/fall drift between
// consecutive clock events anywhere in the tree: RiseFallBias times the
// worst root-path buffer count, which the kernel counts at build on
// either tier.
func (k *Kernel) MaxEventDrift(p ClockParams) float64 {
	return math.Abs(p.RiseFallBias) * float64(k.worstBuffers)
}

// MinPipelinedPeriod returns the smallest period at which a 50%-duty
// pipelined clock can be driven through the tree without any two
// consecutive events closing within MinSeparation:
// T = 2 · (MinSeparation + MaxEventDrift).
func (k *Kernel) MinPipelinedPeriod(p ClockParams) float64 {
	return 2 * (p.MinSeparation + k.MaxEventDrift(p))
}
