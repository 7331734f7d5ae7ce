// fir1d demonstrates Theorem 3 end to end: a one-dimensional systolic
// FIR filter clocked by a spine stays correct at a clock period that does
// not grow with the array, while an H-tree clock under the summation
// model forces both delay padding and the clock period up. Skew is
// absorbed the way the paper says real designs absorb it: "lowering
// clock rates and/or adding delay to circuits" — cells are padded so
// that their contamination delay covers the worst receiver clock lag
// (otherwise hold violations corrupt data at *any* period), and then the
// minimum working period is found by bisection against the ideal trace.
package main

import (
	"fmt"
	"log"

	vlsisync "repro"
	"repro/internal/array"
	"repro/internal/clocktree"
	"repro/internal/comm"
	"repro/internal/systolic"
)

// Wire delay parameters of Section III: every unit of clock wire delays
// the edge by m ± eps, and fabrication variation (the adversary of the
// summation model) chooses the sign. The worst case for a communicating
// pair at tree distance s is a skew of eps·s (assumption A11).
const (
	wireM   = 1.0
	wireEps = 0.2
)

func main() {
	fmt.Println("minimum working clock period of an n-tap systolic FIR filter")
	fmt.Println("(base δ = 1; wire delay m = 1 ± 0.2 per pitch; bisected to 1e-3)")
	fmt.Println()
	fmt.Println("  n    spine period   htree pad δ   htree period")
	for _, n := range []int{4, 8, 16, 32, 64} {
		spine, _, err := minPeriod(n, "spine")
		if err != nil {
			log.Fatal(err)
		}
		htree, pad, err := minPeriod(n, "htree")
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%4d    %9.3f   %11.3f   %12.3f\n", n, spine, pad, htree)
	}
	fmt.Println()
	fmt.Println("The spine column is flat (Theorem 3); the H-tree column grows,")
	fmt.Println("because under the summation model cells adjacent in the array can")
	fmt.Println("be far apart on the H-tree (the Section V failure).")

	// Fig. 6: the comb layout gives a 1D array any aspect ratio while
	// keeping the spine's neighbor distances bounded.
	base, err := vlsisync.LinearArray(32)
	if err != nil {
		log.Fatal(err)
	}
	comb, err := vlsisync.CombLinear(base, 4)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\ncomb layout: 32 cells in a %.0f x %.0f bounding box (aspect %.2g)\n",
		comb.Bounds().Width(), comb.Bounds().Height(), comb.Bounds().AspectRatio())
}

// minPeriod builds an n-tap FIR, derives per-cell clock arrival times
// from the chosen clock tree under the A11 adversary, pads the cell
// delay to cover the worst receiver clock lag (the paper's "adding delay
// to circuits"), and bisects for the smallest period that still
// reproduces the ideal trace. It returns (period, padded δ).
func minPeriod(n int, scheme string) (float64, float64, error) {
	weights := make([]float64, n)
	for i := range weights {
		weights[i] = 1 / float64(i+1)
	}
	fir, err := systolic.NewFIR(weights, []float64{1, 2, 3, 4, 5, 6})
	if err != nil {
		return 0, 0, err
	}
	g := fir.Machine.Graph()

	var tree *clocktree.Tree
	switch scheme {
	case "spine":
		tree, err = clocktree.Spine(g)
	case "htree":
		tree, err = clocktree.HTree(g)
	}
	if err != nil {
		return 0, 0, err
	}

	// Adversarial summation-model arrival times: wires in the clock
	// root's first subtree run slow (m + eps per unit), the rest fast
	// (m − eps). Cells on opposite sides of the root then skew apart by
	// eps times their full tree distance — the A11 worst case. On the
	// spine (a chain, one subtree) the same adversary can only shift
	// neighbors by (m ± eps) per cell pitch.
	off := array.Offsets{Cell: make([]float64, g.NumCells())}
	for id := comm.CellID(0); int(id) < g.NumCells(); id++ {
		c := g.Cell(id)
		node, _ := tree.CellNode(c.ID)
		off.Cell[c.ID] = tree.RootDist(node) * (wireM + wireEps*side(tree, node))
	}
	shiftNonNegative(off.Cell)
	off.Host = off.Cell[0]
	off.HostRead = off.Cell[g.NumCells()-1]

	// Pad δ so the contamination delay covers the worst receiver lag —
	// without this, hold violations corrupt the array at any period.
	delta := 1.0
	if lag := maxReceiverLag(fir.Machine, off); lag*1.05 > delta {
		delta = lag * 1.05
	}
	timing := array.Timing{CellDelay: delta, HoldDelay: delta}
	p, err := fir.Machine.MinWorkingPeriod(fir.Cycles, timing, off, 0, 100, 1e-3)
	return p, delta, err
}

// side maps a tree node to +1 (slow wires) if it lies in the root's first
// child subtree and −1 (fast wires) otherwise.
func side(tree *clocktree.Tree, node clocktree.NodeID) float64 {
	prev := node
	for p := tree.Parent(node); p >= 0; p = tree.Parent(prev) {
		if p == tree.Root() {
			// Trees number their nodes in preorder: the root's first
			// child is the node after it.
			if prev == tree.Root()+1 {
				return 1
			}
			return -1
		}
		prev = p
	}
	return 1
}

func shiftNonNegative(xs []float64) {
	min := xs[0]
	for _, x := range xs {
		if x < min {
			min = x
		}
	}
	for i := range xs {
		xs[i] -= min
	}
}

// maxReceiverLag returns the largest amount by which any receiver's clock
// trails its sender's — the hold exposure the cell delay must cover.
func maxReceiverLag(m *array.Machine, off array.Offsets) float64 {
	var worst float64
	at := func(c comm.CellID, host float64) float64 {
		if c == comm.Host {
			return host
		}
		return off.Cell[c]
	}
	for ei := 0; ei < m.Graph().NumEdges(); ei++ {
		e := m.Graph().Edge(ei)
		lag := at(e.To, off.HostRead) - at(e.From, off.Host)
		if lag > worst {
			worst = lag
		}
	}
	return worst
}
