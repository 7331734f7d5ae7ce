package skew

import (
	"fmt"
	"math"
	"sort"

	"repro/internal/clocktree"
	"repro/internal/comm"
	"repro/internal/stats"
)

// This file retains the pre-kernel implementations verbatim as executable
// reference oracles. The kernel-backed fast paths in skew.go and kernel.go
// must agree with these exactly — zero tolerance — which the differential
// tests and the propcheck invariant "kernel-matches-reference" assert over
// random layouts, every tree builder, and random models. The references
// deliberately avoid every kernel-era shortcut: pairs are re-enumerated
// from the raw edge set (no memoization), distances are recomputed per
// query through a plain parent-walk LCA of this file's own (the kernel
// uses the tree's jump-pointer search instead), and the Monte-Carlo
// trial walks the tree with a recursive closure and draws each delay
// with a separate Uniform call.

// referencePairs re-enumerates the communicating pairs of g from its raw
// edge list with a set and a sort, independently of comm's PairIndex:
// the same canonical order, no duplicates, no self-pairs.
func referencePairs(g *comm.Graph) [][2]comm.CellID {
	seen := make(map[[2]comm.CellID]bool)
	for ei := 0; ei < g.NumEdges(); ei++ {
		e := g.Edge(ei)
		if e.From == comm.Host || e.To == comm.Host || e.From == e.To {
			continue
		}
		a, b := e.From, e.To
		if a > b {
			a, b = b, a
		}
		seen[[2]comm.CellID{a, b}] = true
	}
	pairs := make([][2]comm.CellID, 0, len(seen))
	for p := range seen {
		pairs = append(pairs, p)
	}
	sort.Slice(pairs, func(i, j int) bool {
		if pairs[i][0] != pairs[j][0] {
			return pairs[i][0] < pairs[j][0]
		}
		return pairs[i][1] < pairs[j][1]
	})
	return pairs
}

// referenceCellDiffDist recomputes the difference distance with the
// tree's exact pre-kernel formula |rootDist(a) − rootDist(b)|, so the
// comparison against the kernel's cached value is bit-exact.
func referenceCellDiffDist(tree *clocktree.Tree, a, b comm.CellID) float64 {
	na, _ := tree.CellNode(a)
	nb, _ := tree.CellNode(b)
	return math.Abs(tree.RootDist(na) - tree.RootDist(nb))
}

// referenceCellPathLen recomputes the tree-path length with the tree's
// exact pre-kernel formula rootDist(a) + rootDist(b) − 2·rootDist(lca)
// — resolving each LCA with referenceLCA, independently of the tree's
// jump-pointer search, so a wrong search answer (a different node,
// hence a different rootDist) cannot go unnoticed.
func referenceCellPathLen(tree *clocktree.Tree, a, b comm.CellID) float64 {
	na, _ := tree.CellNode(a)
	nb, _ := tree.CellNode(b)
	l := referenceLCA(tree, na, nb)
	return tree.RootDist(na) + tree.RootDist(nb) - 2*tree.RootDist(l)
}

// referenceLCA walks parent links only: it counts both nodes' depths,
// lifts the deeper node to the shallower's depth, then climbs both in
// lockstep until they meet.
func referenceLCA(tree *clocktree.Tree, a, b clocktree.NodeID) clocktree.NodeID {
	depth := func(v clocktree.NodeID) (d int) {
		for ; v != tree.Root(); v = tree.Parent(v) {
			d++
		}
		return d
	}
	da, db := depth(a), depth(b)
	for ; da > db; da-- {
		a = tree.Parent(a)
	}
	for ; db > da; db-- {
		b = tree.Parent(b)
	}
	for a != b {
		a, b = tree.Parent(a), tree.Parent(b)
	}
	return a
}

// ReferenceAnalyze is the pre-kernel Analyze: a full per-pair traversal
// recomputing both distances for every pair on every call.
func ReferenceAnalyze(g *comm.Graph, tree *clocktree.Tree, model Model) (Analysis, error) {
	if !tree.Covers(g) {
		return Analysis{}, fmt.Errorf("skew: tree %q does not clock every cell of %q", tree.Name, g.Name)
	}
	out := Analysis{Model: model.Name(), Tree: tree.Name}
	for _, p := range referencePairs(g) {
		d := referenceCellDiffDist(tree, p[0], p[1])
		s := referenceCellPathLen(tree, p[0], p[1])
		sk := model.Bound(d, s)
		out.Pairs++
		if d > out.MaxD {
			out.MaxD = d
		}
		if s > out.MaxS {
			out.MaxS = s
		}
		if sk > out.MaxSkew {
			out.MaxSkew = sk
			out.WorstPair = PairSkew{A: p[0], B: p[1], D: d, S: s, Skew: sk}
		}
	}
	return out, nil
}

// ReferenceGuaranteedMinSkew is the pre-kernel GuaranteedMinSkew.
func ReferenceGuaranteedMinSkew(g *comm.Graph, tree *clocktree.Tree, model Model) float64 {
	lb, ok := model.(LowerBounder)
	if !ok {
		return 0
	}
	var worst float64
	for _, p := range referencePairs(g) {
		if v := lb.LowerBound(referenceCellPathLen(tree, p[0], p[1])); v > worst {
			worst = v
		}
	}
	return worst
}

// ReferenceMonteCarlo is the pre-kernel MonteCarlo: per-trial allocation,
// recursive tree walk, one Uniform call per edge. It must produce
// bit-identical results to Kernel.MonteCarlo for the same seed because
// both draw the same underlying stream in the same order.
func ReferenceMonteCarlo(g *comm.Graph, tree *clocktree.Tree, m Linear, trials int, rng *stats.RNG) (float64, error) {
	if !tree.Covers(g) {
		return 0, fmt.Errorf("skew: tree %q does not clock every cell of %q", tree.Name, g.Name)
	}
	if m.Eps < 0 || m.M < m.Eps {
		return 0, fmt.Errorf("skew: need 0 ≤ Eps ≤ M, got M=%g Eps=%g", m.M, m.Eps)
	}
	pairs := referencePairs(g)
	var worst float64
	for trial := 0; trial < trials; trial++ {
		if w := referenceTrial(g, tree, m, pairs, rng.Fork(int64(trial))); w > worst {
			worst = w
		}
	}
	return worst, nil
}

// referenceTrial draws one random per-segment delay assignment from r
// and returns the trial's worst arrival-time difference over pairs.
func referenceTrial(g *comm.Graph, tree *clocktree.Tree, m Linear, pairs [][2]comm.CellID, r *stats.RNG) float64 {
	arrival := make([]float64, tree.NumNodes())
	// Arrival time = parent's arrival + edge length · random unit delay.
	var walk func(v clocktree.NodeID)
	walk = func(v clocktree.NodeID) {
		for _, c := range tree.AppendChildren(nil, v) {
			unit := r.Uniform(m.M-m.Eps, m.M+m.Eps)
			arrival[c] = arrival[v] + tree.EdgeLen(c)*unit
			walk(c)
		}
	}
	arrival[tree.Root()] = 0
	walk(tree.Root())
	var worst float64
	for _, p := range pairs {
		na, _ := tree.CellNode(p[0])
		nb, _ := tree.CellNode(p[1])
		if d := math.Abs(arrival[na] - arrival[nb]); d > worst {
			worst = d
		}
	}
	return worst
}
