package clocksim

import (
	"math"

	"repro/internal/clocktree"
	"repro/internal/comm"
	"repro/internal/faults"
	"repro/internal/stats"
)

// This file retains the pre-kernel regime implementations verbatim as
// executable reference oracles. skew.Kernel's regime methods must
// agree with these exactly — zero
// tolerance — which the differential tests and the propcheck invariant
// "clocksim-kernel-matches-reference" assert over random layouts, every
// tree builder, and random parameters. The references deliberately avoid
// every kernel-era shortcut: arrival times are computed by an explicit
// stack traversal calling per-edge closures, each random delay is drawn
// with a separate Uniform call, and the adversarial path sets are
// rebuilt as maps on every call, their meeting point found by a plain
// parent walk.

// referencePropagate computes arrival times with a per-edge unit-delay
// function and an optional flat per-edge extra delay (nil means none).
// It is the pre-kernel propagate, retained verbatim: the kernel's edge
// schedule replays this traversal order, so random delays are drawn in
// exactly the same sequence.
func referencePropagate(tree *clocktree.Tree, p Params, unitDelay func(child clocktree.NodeID) float64, extra func(child clocktree.NodeID) float64) *Arrivals {
	at := make([]float64, tree.NumNodes())
	stack := []clocktree.NodeID{tree.Root()}
	for len(stack) > 0 {
		v := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, c := range tree.AppendChildren(nil, v) {
			buf := 0.0
			if tree.Node(c).Buffer {
				buf = p.BufferDelay
			}
			at[c] = at[v] + tree.EdgeLen(c)*unitDelay(c) + buf
			if extra != nil {
				at[c] += extra(c)
			}
			stack = append(stack, c)
		}
	}
	return &Arrivals{tree: tree, at: at}
}

// ReferenceNominal is the pre-kernel Nominal: every wire at exactly M
// per unit, computed through the closure-based traversal.
func ReferenceNominal(tree *clocktree.Tree, p Params) (*Arrivals, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	return referencePropagate(tree, p, func(clocktree.NodeID) float64 { return p.M }, nil), nil
}

// ReferenceRandom is the pre-kernel Random: one Uniform call per edge,
// drawn mid-traversal.
func ReferenceRandom(tree *clocktree.Tree, p Params, rng *stats.RNG) (*Arrivals, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	if rng == nil {
		return nil, errNeedRNG("Random")
	}
	return referencePropagate(tree, p, func(clocktree.NodeID) float64 {
		return rng.Uniform(p.M-p.Eps, p.M+p.Eps)
	}, nil), nil
}

// ReferenceJittered is the pre-kernel Jittered: Uniform band delay plus
// the injector's per-edge excess, both resolved through closures during
// the traversal.
func ReferenceJittered(tree *clocktree.Tree, p Params, rng *stats.RNG, inj *faults.Injector) (*Arrivals, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	if rng == nil {
		return nil, errNeedRNG("Jittered")
	}
	return referencePropagate(tree, p, func(clocktree.NodeID) float64 {
		return rng.Uniform(p.M-p.Eps, p.M+p.Eps)
	}, func(c clocktree.NodeID) float64 {
		return inj.EdgeJitter(uint64(c))
	}), nil
}

// referencePathEdgeSet marks the child endpoints of the edges on the
// path from node up to (but not including) ancestor — the pre-kernel
// map-based set the adversarial assignment was built from.
func referencePathEdgeSet(tree *clocktree.Tree, node, ancestor clocktree.NodeID) map[clocktree.NodeID]bool {
	set := make(map[clocktree.NodeID]bool)
	for v := node; v != ancestor; v = tree.Parent(v) {
		set[v] = true
		if tree.Parent(v) < 0 {
			break
		}
	}
	return set
}

// ReferenceAdversarial is the pre-kernel Adversarial: the slow and fast
// path-edge sets are rebuilt as maps and consulted per edge through the
// unit-delay closure.
func ReferenceAdversarial(tree *clocktree.Tree, p Params, a, b comm.CellID) (*Arrivals, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	na, ok := tree.CellNode(a)
	if !ok {
		return nil, errNotClocked(a, tree)
	}
	nb, ok := tree.CellNode(b)
	if !ok {
		return nil, errNotClocked(b, tree)
	}
	// The lowest common ancestor, by plain parent walks and independently
	// of the tree's jump-pointer search: mark na's ancestors, then climb
	// from nb to the first marked node.
	anc := referencePathEdgeSet(tree, na, -1)
	lca := nb
	for !anc[lca] {
		lca = tree.Parent(lca)
	}
	slow := referencePathEdgeSet(tree, na, lca)
	fast := referencePathEdgeSet(tree, nb, lca)
	return referencePropagate(tree, p, func(c clocktree.NodeID) float64 {
		switch {
		case slow[c]:
			return p.M + p.Eps
		case fast[c]:
			return p.M - p.Eps
		default:
			return p.M
		}
	}, nil), nil
}

// ReferenceMaxEventDrift is the pre-kernel MaxEventDrift: a full stack
// walk counting root-path buffers on every call instead of reading the
// kernel's precomputed worst count.
func ReferenceMaxEventDrift(tree *clocktree.Tree, p Params) float64 {
	buffers := make([]int, tree.NumNodes())
	worst := 0
	stack := []clocktree.NodeID{tree.Root()}
	for len(stack) > 0 {
		v := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, c := range tree.AppendChildren(nil, v) {
			buffers[c] = buffers[v]
			if tree.Node(c).Buffer {
				buffers[c]++
			}
			if buffers[c] > worst {
				worst = buffers[c]
			}
			stack = append(stack, c)
		}
	}
	return math.Abs(p.RiseFallBias) * float64(worst)
}

// ReferenceMinPipelinedPeriod is the pre-kernel MinPipelinedPeriod,
// built on the reference drift computation.
func ReferenceMinPipelinedPeriod(tree *clocktree.Tree, p Params) float64 {
	return 2 * (p.MinSeparation + ReferenceMaxEventDrift(tree, p))
}
