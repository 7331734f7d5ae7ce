// Package clocksim simulates clock-event propagation through a buffered
// clock tree, closing the loop between the clock-tree geometry
// (internal/clocktree) and array execution (internal/array): the
// simulated per-cell clock arrival times become the clock offsets a
// clocked array runs with.
//
// Three delay regimes are provided, matching Section III of the paper:
//
//   - Nominal: every unit of wire delays an edge by exactly M — arrival
//     time is M times the root distance; skew between cells is M·d (the
//     difference model's best case).
//   - Random: each tree edge's unit delay is drawn independently from
//     U[M−Eps, M+Eps] — fabrication variation; skews land between the
//     difference and summation predictions.
//   - Adversarial: a worst-case-consistent assignment that drives two
//     chosen cells exactly Eps·s apart (s = their tree-path length),
//     realizing the summation model's lower bound A11.
//
// The package also models pipelined distribution on the tree itself:
// with per-buffer rise/fall bias, consecutive clock events drift apart
// along root paths, bounding the minimum period exactly as the Section
// VII inverter string does (wiresim), but on arbitrary tree topologies.
package clocksim

import (
	"fmt"
	"math"

	"repro/internal/array"
	"repro/internal/clocktree"
	"repro/internal/comm"
	"repro/internal/faults"
	"repro/internal/skew"
	"repro/internal/stats"
)

// Params are the electrical parameters of a clock distribution network
// (see skew.ClockParams for the fields). The type is shared with
// skew.Kernel, whose methods run the regimes over a cached recipe.
type Params = skew.ClockParams

// Arrivals holds the simulated clock arrival time of every tree node.
type Arrivals struct {
	tree *clocktree.Tree
	at   []float64
}

// At returns the arrival time at tree node v.
func (a *Arrivals) At(v clocktree.NodeID) float64 { return a.at[v] }

// CellArrival returns the arrival time at the node clocking cell c.
func (a *Arrivals) CellArrival(c comm.CellID) (float64, error) {
	id, ok := a.tree.CellNode(c)
	if !ok {
		return 0, fmt.Errorf("clocksim: cell %d not clocked by tree %q", c, a.tree.Name)
	}
	return a.at[id], nil
}

// MaxCommSkew returns the largest arrival-time difference between
// communicating cells of g.
func (a *Arrivals) MaxCommSkew(g *comm.Graph) (float64, error) {
	var worst float64
	c := g.PairIndex().Cursor(0)
	for pa, pb, ok := c.Next(); ok; pa, pb, ok = c.Next() {
		ta, err := a.CellArrival(pa)
		if err != nil {
			return 0, err
		}
		tb, err := a.CellArrival(pb)
		if err != nil {
			return 0, err
		}
		if d := math.Abs(ta - tb); d > worst {
			worst = d
		}
	}
	return worst, nil
}

// Offsets converts the arrivals into array clock offsets for machine
// execution: per-cell offsets shifted to be non-negative, with the host
// write port tied to the earliest cell and the host read port to the
// latest (the Fig. 5 folded-host convention).
func (a *Arrivals) Offsets(g *comm.Graph) (array.Offsets, error) {
	off := array.Offsets{Cell: make([]float64, g.NumCells())}
	min, max := math.Inf(1), math.Inf(-1)
	for id := comm.CellID(0); int(id) < g.NumCells(); id++ {
		c := g.Cell(id)
		t, err := a.CellArrival(c.ID)
		if err != nil {
			return array.Offsets{}, err
		}
		off.Cell[c.ID] = t
		if t < min {
			min = t
		}
		if t > max {
			max = t
		}
	}
	for i := range off.Cell {
		off.Cell[i] -= min
	}
	off.Host = 0
	off.HostRead = max - min
	return off, nil
}

// Nominal simulates distribution with every wire at exactly M per unit.
//
// Nominal, like every regime function below, runs the retained
// closure-traversal implementation in reference.go. Callers running many
// regimes, trials, or seeds over one (graph, tree) pair build a Kernel
// once and query its skews directly; the two agree bit for bit.
func Nominal(tree *clocktree.Tree, p Params) (*Arrivals, error) {
	return ReferenceNominal(tree, p)
}

// Random simulates distribution with independent per-edge unit delays in
// U[M−Eps, M+Eps].
func Random(tree *clocktree.Tree, p Params, rng *stats.RNG) (*Arrivals, error) {
	return ReferenceRandom(tree, p, rng)
}

// Jittered simulates distribution with independent per-edge unit delays
// in U[M−Eps, M+Eps] plus injected per-edge excess beyond the band: each
// edge additionally suffers the injector's EdgeJitter, keyed by its child
// node ID. This models a tree whose fabrication-variation assumption
// (Section III's A9–A11) is violated on a random subset of wires; the
// resulting skews can exceed every model's prediction, which is exactly
// what the fault-sweep experiment measures. A nil injector is Random.
func Jittered(tree *clocktree.Tree, p Params, rng *stats.RNG, inj *faults.Injector) (*Arrivals, error) {
	return ReferenceJittered(tree, p, rng, inj)
}

// Adversarial simulates the worst-case-consistent assignment for a cell
// pair (a, b): wires on a's side of their lowest common ancestor run slow
// (M+Eps per unit) and wires on b's side fast (M−Eps), so the pair's
// skew is exactly Eps times their tree-path length — assumption A11's
// lower bound, realized. All other edges run at the nominal M.
func Adversarial(tree *clocktree.Tree, p Params, a, b comm.CellID) (*Arrivals, error) {
	return ReferenceAdversarial(tree, p, a, b)
}

// MaxEventDrift returns the maximum accumulated rise/fall drift between
// consecutive clock events anywhere in the tree: each buffer on a root
// path shifts alternating events apart by RiseFallBias, so the worst
// node sees a drift of RiseFallBias times its root-path buffer count.
func MaxEventDrift(tree *clocktree.Tree, p Params) float64 {
	return ReferenceMaxEventDrift(tree, p)
}

// MinPipelinedPeriod returns the smallest period at which a 50%-duty
// pipelined clock can be driven through the tree without any two
// consecutive events anywhere closing within MinSeparation:
//
//	T = 2 · (MinSeparation + MaxEventDrift).
//
// Under A8 (time-invariant delays) this is exact, by the same argument
// as the Section VII inverter string.
func MinPipelinedPeriod(tree *clocktree.Tree, p Params) float64 {
	return 2 * (p.MinSeparation + MaxEventDrift(tree, p))
}

// errNeedRNG and errNotClocked are the reference regimes' errors, worded
// as skew.Kernel's, so differential tests can compare failure modes too.
func errNeedRNG(fn string) error {
	return fmt.Errorf("clocksim: %s needs an RNG", fn)
}

func errNotClocked(c comm.CellID, tree *clocktree.Tree) error {
	return fmt.Errorf("clocksim: cell %d not clocked by tree %q", c, tree.Name)
}
