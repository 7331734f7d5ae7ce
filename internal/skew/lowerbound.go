package skew

import (
	"fmt"
	"math"
	"slices"
	"sort"

	"repro/internal/clocktree"
	"repro/internal/comm"
	"repro/internal/stats"
)

// CertifiedResult is the outcome of running the Section V-B proof
// machinery against a concrete clock tree.
type CertifiedResult struct {
	// Bound is a certified lower bound on the worst-case skew σ between
	// communicating cells under the summation model with constant β: no
	// adversarial-but-A11-consistent delay assignment can keep the skew
	// below it.
	Bound float64
	// SeparatorChild is the clock-tree node below the Lemma-5 separator
	// edge; the subtree rooted there is the proof's cell set A.
	SeparatorChild clocktree.NodeID
	// SideA and SideB are the cell counts of the two subtrees.
	SideA, SideB int
}

// MeshCertifiedLowerBound runs the Section V-B argument on an r×c mesh
// clocked by an arbitrary binary clock tree, and returns a certified lower
// bound on the maximum skew σ between communicating cells under the
// summation model with lower-bound constant beta (A11). For square meshes
// the bound is Ω(n); for rectangular meshes it is Ω(min(r, c)) — the
// general σ = Ω(W(N)) form of Theorem 6, since a mesh's bisection width
// is its shorter side.
//
// The argument, mechanized exactly as in the paper:
//  1. Lemma 5 finds a clock-tree edge splitting the cells into sets A and
//     B, each at most ~2/3 of the mesh.
//  2. For a candidate skew value σ, consider the circle of radius σ/β
//     centered at the separator subtree's root u. Cells of A outside the
//     circle cannot communicate with B: their clock-tree path to any cell
//     of B runs through u, so its physical length exceeds σ/β and by A11
//     the skew would exceed σ.
//  3. If the circle holds fewer than n²/10 cells, then moving the circle
//     cells into A yields a partition (Ā, B̄) whose connecting mesh edges
//     all cross the circle's boundary; with unit-width wires (A3) there
//     are at most 2π·σ/β of them. If that is smaller than the Lemma-4
//     bisection bound for the partition's balance, σ is contradicted.
//
// The returned bound is the largest σ that is contradicted, found by
// bisection; the true worst-case skew must exceed it. It is Ω(n).
func MeshCertifiedLowerBound(g *comm.Graph, tree *clocktree.Tree, beta float64) (CertifiedResult, error) {
	if g.Kind() != comm.KindMesh || g.Rows() < 1 || g.Cols() < 1 {
		return CertifiedResult{}, fmt.Errorf("skew: certified bound needs a mesh, got %q", g.Name)
	}
	if beta <= 0 {
		return CertifiedResult{}, fmt.Errorf("skew: beta must be positive, got %g", beta)
	}
	if !tree.Covers(g) {
		return CertifiedResult{}, fmt.Errorf("skew: tree %q does not clock every cell of %q", tree.Name, g.Name)
	}
	width := g.Rows() // the cut bound is governed by the shorter side
	if g.Cols() < width {
		width = g.Cols()
	}
	long := g.Rows()
	if g.Cols() > long {
		long = g.Cols()
	}
	total := g.Rows() * g.Cols()

	sep, err := tree.Separator()
	if err != nil {
		return CertifiedResult{}, fmt.Errorf("skew: separator: %w", err)
	}
	u := tree.Node(sep).Pos

	// Side A is the cells clocked in sep's subtree. Parents precede
	// children, so one forward sweep from sep marks the subtree.
	inSub := make([]bool, tree.NumNodes())
	inSub[sep] = true
	for v := sep + 1; int(v) < len(inSub); v++ {
		inSub[v] = inSub[tree.Parent(v)]
	}
	// Distances from u of A's cells (filled from the front) and of the
	// other cells (from the back), each sorted, so that counting either
	// side's cells in a circle is a binary search.
	dist := make([]float64, total)
	sizeA, b := 0, total
	for i := 0; i < total; i++ {
		id := comm.CellID(i)
		node, _ := tree.CellNode(id)
		if d := g.Cell(id).Pos.Dist(u); inSub[node] {
			dist[sizeA] = d
			sizeA++
		} else {
			b--
			dist[b] = d
		}
	}
	distA, distB := dist[:sizeA], dist[sizeA:]
	slices.Sort(distA)
	slices.Sort(distB)

	threshold := (total + 9) / 10 // ⌈n²/10⌉

	contradicted := func(sigma float64) bool {
		r := sigma / beta
		edge := r + 1e-12
		// Cells strictly inside the circle.
		inCircle := sort.SearchFloat64s(distA, edge) + sort.SearchFloat64s(distB, edge)
		if inCircle >= threshold {
			// Case 1 of the proof applies: the area argument bounds σ
			// from below but does not contradict this σ.
			return false
		}
		// Ā = A ∪ the other cells inside or on the circle.
		abar := sizeA + sort.Search(len(distB), func(i int) bool { return distB[i] > edge })
		minSide := abar
		if total-abar < minSide {
			minSide = total - abar
		}
		if minSide == 0 {
			return false
		}
		cutUpper := 2 * math.Pi * r // A3: edges crossing the circle boundary
		cutLower := float64(meshCutLowerBound(width, minSide))
		return cutUpper < cutLower
	}

	// The contradicted set is a down-closed interval in σ (cutUpper grows
	// and the circle only gains cells as σ grows), so bisect its upper end.
	lo, hi := 0.0, beta*float64(3*long)
	if !contradicted(lo + 1e-12) {
		// Degenerate tiny meshes may admit no contradiction at all.
		return CertifiedResult{SeparatorChild: sep, SideA: sizeA, SideB: total - sizeA}, nil
	}
	for hi-lo > 1e-9*(1+hi) {
		mid := (lo + hi) / 2
		if contradicted(mid) {
			lo = mid
		} else {
			hi = mid
		}
	}
	return CertifiedResult{Bound: lo, SeparatorChild: sep, SideA: sizeA, SideB: total - sizeA}, nil
}

// meshCutLowerBound returns a lower bound on the number of edges that must
// be removed from an n×n mesh to detach a set of k cells (k ≤ n²/2), via
// the grid edge-isoperimetric inequality: cutting off k vertices requires
// at least min(⌈√k⌉, n) edges. This is the quantitative form of the
// paper's Lemma 4 (which it cites from Lipton–Eisenstat–DeMillo).
func meshCutLowerBound(n, k int) int {
	if k <= 0 {
		return 0
	}
	s := 0
	for (s+1)*(s+1) <= k {
		s++
	}
	if s*s < k {
		s++
	}
	if s > n {
		s = n
	}
	return s
}

// TreeFactory builds a candidate clock tree for a graph.
type TreeFactory struct {
	Name  string
	Build func(g *comm.Graph) (*clocktree.Tree, error)
}

// StandardFactories returns the candidate clock-tree constructions used by
// the lower-bound experiments: H-tree, serpentine, and `randoms` seeded
// random binary trees.
func StandardFactories(randoms int, seed int64) []TreeFactory {
	fs := []TreeFactory{
		{Name: "htree", Build: clocktree.HTree},
		{Name: "serpentine", Build: clocktree.Serpentine},
	}
	for i := 0; i < randoms; i++ {
		i := i
		fs = append(fs, TreeFactory{
			Name: fmt.Sprintf("random-%d", i),
			Build: func(g *comm.Graph) (*clocktree.Tree, error) {
				return clocktree.RandomBinary(g, stats.NewRNG(seed+int64(i)))
			},
		})
	}
	return fs
}

// BestTreeResult reports the skew-minimizing tree among a candidate set.
type BestTreeResult struct {
	TreeName string
	// MinGuaranteedSkew is the smallest guaranteed worst-case skew (A11
	// lower bound over communicating pairs) achieved by any candidate.
	MinGuaranteedSkew float64
	// Certified is the Section V-B certified bound for the winning tree
	// (zero unless the graph is a square mesh).
	Certified float64
}

// MinSkewOverTrees builds every candidate tree for g and returns the one
// whose guaranteed worst-case summation-model skew is smallest. The
// Section V-B theorem predicts that even this minimum grows as Ω(n) on
// n×n meshes.
func MinSkewOverTrees(g *comm.Graph, model Summation, factories []TreeFactory) (BestTreeResult, error) {
	if len(factories) == 0 {
		return BestTreeResult{}, fmt.Errorf("skew: no tree factories given")
	}
	best := BestTreeResult{MinGuaranteedSkew: math.Inf(1)}
	var bestTree *clocktree.Tree
	for _, f := range factories {
		tr, err := f.Build(g)
		if err != nil {
			return BestTreeResult{}, fmt.Errorf("skew: building %s: %w", f.Name, err)
		}
		guaranteed := GuaranteedMinSkew(g, tr, model)
		if guaranteed < best.MinGuaranteedSkew {
			best.MinGuaranteedSkew = guaranteed
			best.TreeName = f.Name
			bestTree = tr
		}
	}
	if g.Kind() == comm.KindMesh && model.Beta > 0 {
		cert, err := MeshCertifiedLowerBound(g, bestTree, model.Beta)
		if err != nil {
			return BestTreeResult{}, err
		}
		best.Certified = cert.Bound
	}
	return best, nil
}
