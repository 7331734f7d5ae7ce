package graph

import (
	"math"

	"repro/internal/stats"
)

// Bisection is a two-way partition of a graph together with its cut size.
type Bisection struct {
	Side         []bool // Side[v] == true means v is in part A
	Cut          int
	SizeA, SizeB int
}

// KernighanLinBisect searches for a balanced bisection of g with a small
// cut using the Kernighan–Lin pass structure with random restarts. It is a
// heuristic *upper* bound on the bisection width: together with
// BisectionLowerBoundMesh it brackets the true width used in the Section
// V-B argument.
func KernighanLinBisect(g *Graph, restarts int, rng *stats.RNG) Bisection {
	n := g.N()
	best := Bisection{Cut: math.MaxInt}
	if n == 0 {
		return Bisection{Side: []bool{}}
	}
	for r := 0; r < restarts; r++ {
		side := randomBalancedSide(n, rng.Fork(int64(r)))
		klRefine(g, side)
		cut := g.CutSize(side)
		if cut < best.Cut {
			a := 0
			for _, s := range side {
				if s {
					a++
				}
			}
			best = Bisection{Side: append([]bool(nil), side...), Cut: cut, SizeA: a, SizeB: n - a}
		}
	}
	return best
}

// randomBalancedSide returns a uniformly random half/half split.
func randomBalancedSide(n int, rng *stats.RNG) []bool {
	perm := rng.Perm(n)
	side := make([]bool, n)
	for i := 0; i < n/2; i++ {
		side[perm[i]] = true
	}
	return side
}

// klRefine runs Kernighan–Lin improvement passes (pair swaps) until a pass
// yields no gain.
func klRefine(g *Graph, side []bool) {
	n := g.N()
	gain := func(v int) int {
		// External minus internal degree: positive gain means moving v
		// across would reduce the cut by that amount.
		ext, in := 0, 0
		for _, u := range g.Neighbors(v) {
			if side[u] != side[v] {
				ext++
			} else {
				in++
			}
		}
		return ext - in
	}
	for pass := 0; pass < 20; pass++ {
		improved := false
		// Greedy single best swap per iteration; simple but effective for
		// the modest sizes the experiments use.
		for iter := 0; iter < n; iter++ {
			bestGain, bestA, bestB := 0, -1, -1
			for a := 0; a < n; a++ {
				if !side[a] {
					continue
				}
				ga := gain(a)
				if ga+1 <= bestGain { // even a perfectly paired b cannot beat best
					continue
				}
				for _, b := range candidateBs(g, side) {
					gb := gain(b)
					swapGain := ga + gb
					if g.HasEdge(a, b) {
						swapGain -= 2
					}
					if swapGain > bestGain {
						bestGain, bestA, bestB = swapGain, a, b
					}
				}
			}
			if bestA < 0 {
				break
			}
			side[bestA], side[bestB] = false, true
			improved = true
		}
		if !improved {
			return
		}
	}
}

// candidateBs lists the vertices currently on side B.
func candidateBs(g *Graph, side []bool) []int {
	out := make([]int, 0, g.N()/2)
	for v := 0; v < g.N(); v++ {
		if !side[v] {
			out = append(out, v)
		}
	}
	return out
}
