package propcheck

import (
	"fmt"

	"repro/internal/array"
	"repro/internal/clocktree"
	"repro/internal/comm"
	"repro/internal/faults"
	"repro/internal/hybrid"
	"repro/internal/selftimed"
	"repro/internal/skew"
	"repro/internal/stats"
)

// Seeded random-instance generators. Each draws everything it needs from
// the passed RNG so that one seed reproduces one instance; none of them
// is uniform over any particular distribution — they only need to cover
// the space of small instances densely.

// intIn returns a uniform int in [lo, hi].
func intIn(rng *stats.RNG, lo, hi int) int {
	return lo + rng.Intn(hi-lo+1)
}

// Graph1D generates a random one-dimensional array graph — linear,
// bidirectional, dual-channel, or ring — of n cells, minN ≤ n ≤ maxN.
func Graph1D(rng *stats.RNG, minN, maxN int) (*comm.Graph, error) {
	n := intIn(rng, minN, maxN)
	switch rng.Intn(4) {
	case 0:
		return comm.Linear(n)
	case 1:
		return comm.Bidirectional(n)
	case 2:
		return comm.LinearDual(n)
	default:
		return comm.Ring(n)
	}
}

// MeshGraph generates a random rows×cols mesh with each side in
// [minSide, maxSide].
func MeshGraph(rng *stats.RNG, minSide, maxSide int) (*comm.Graph, error) {
	return comm.Mesh(intIn(rng, minSide, maxSide), intIn(rng, minSide, maxSide))
}

// AnyGraph generates a random small array graph of any supported
// topology: the 1D families, meshes, hexagonal arrays, and tori.
func AnyGraph(rng *stats.RNG) (*comm.Graph, error) {
	switch rng.Intn(4) {
	case 0:
		return Graph1D(rng, 3, 12)
	case 1:
		return MeshGraph(rng, 2, 5)
	case 2:
		return comm.Hex(intIn(rng, 2, 4))
	default:
		return comm.Torus(intIn(rng, 3, 4), intIn(rng, 3, 4))
	}
}

// TreeFor generates a random clock tree covering g: a spine chain, an
// H-tree, or a random binary topology — the same spread of shapes
// StandardFactories uses for the lower-bound search.
func TreeFor(rng *stats.RNG, g *comm.Graph) (*clocktree.Tree, error) {
	switch rng.Intn(3) {
	case 0:
		return clocktree.Spine(g)
	case 1:
		return clocktree.HTree(g)
	default:
		return clocktree.RandomBinary(g, rng.Fork(777))
	}
}

// LeafTreeFor generates a random clock tree covering g whose cell nodes
// are all leaves — the shape Equalize can tune to equal root distances
// (a spine's mid-chain cells cannot be equalized by leaf slack).
func LeafTreeFor(rng *stats.RNG, g *comm.Graph) (*clocktree.Tree, error) {
	if rng.Intn(2) == 0 {
		return clocktree.HTree(g)
	}
	return clocktree.RandomBinary(g, rng.Fork(777))
}

// LinearModel generates a random Section III linear skew model with
// 0 ≤ Eps ≤ M.
func LinearModel(rng *stats.RNG) skew.Linear {
	m := rng.Uniform(0.5, 2)
	return skew.Linear{M: m, Eps: rng.Uniform(0, m)}
}

// HybridConfig generates a random valid Section VI hybrid configuration.
func HybridConfig(rng *stats.RNG) hybrid.Config {
	cell := rng.Uniform(0.5, 3)
	return hybrid.Config{
		ElementSize:       float64(intIn(rng, 1, 4)),
		Handshake:         rng.Uniform(0.1, 1),
		LocalDistribution: rng.Uniform(0, 0.5),
		CellDelay:         cell,
		HoldDelay:         rng.Uniform(0.1, 1) * cell,
	}
}

// SelfTimedDelays generates a random valid self-timed delay model.
func SelfTimedDelays(rng *stats.RNG) selftimed.Delays {
	fast := rng.Uniform(0.5, 2)
	return selftimed.Delays{
		Fast:      fast,
		Worst:     fast * rng.Uniform(1, 4),
		PWorst:    rng.Uniform(0, 1),
		Handshake: rng.Uniform(0, 0.5),
	}
}

// MessageFaults generates a random fault configuration for handshake
// messages — drops, delays, and metastable stalls, each at a nonzero
// moderate rate so fault paths are actually exercised.
func MessageFaults(rng *stats.RNG) faults.Config {
	return faults.Config{
		DropProb:          rng.Uniform(0.05, 0.4),
		RetransmitTimeout: rng.Uniform(0.5, 5),
		DelayProb:         rng.Uniform(0.05, 0.4),
		MaxDelay:          rng.Uniform(0.2, 3),
		MetastableProb:    rng.Uniform(0, 0.2),
		MetastableStall:   rng.Uniform(0.1, 1),
	}
}

// JitterFaults generates a random clock-tree jitter fault configuration.
func JitterFaults(rng *stats.RNG) faults.Config {
	return faults.Config{
		JitterProb: rng.Uniform(0.05, 0.5),
		MaxJitter:  rng.Uniform(0.1, 2),
	}
}

// AffineMachine builds a machine on g whose cells compute random affine
// combinations of their inputs — enough variety that any timing error
// almost surely corrupts some traced output. Host inputs are cycling
// streams offset by a random phase.
func AffineMachine(rng *stats.RNG, g *comm.Graph) (*array.Machine, error) {
	logic := func(id comm.CellID) array.Logic {
		r := rng.Fork(int64(id))
		bias := r.Uniform(-1, 1)
		wx := r.Uniform(-1, 1)
		wy := r.Uniform(-1, 1)
		return array.LogicFunc(func(in map[string]array.Value) map[string]array.Value {
			sum := bias
			for label, v := range in {
				w := wx
				if label == "y" {
					w = wy
				}
				sum += w * v
			}
			return map[string]array.Value{"x": sum, "y": sum / 2}
		})
	}
	inputs := make(map[array.HostIn]array.Stream)
	for ei := 0; ei < g.NumEdges(); ei++ {
		e := g.Edge(ei)
		if e.From == comm.Host {
			phase := rng.Uniform(0, 1)
			inputs[array.HostIn{To: e.To, Label: e.Label}] = func(k int) array.Value {
				return float64(k%5) + phase
			}
		}
	}
	if len(inputs) == 0 {
		return nil, fmt.Errorf("propcheck: graph %q has no host inputs", g.Name)
	}
	return array.New(g, logic, inputs)
}
