package skew

import (
	"math"
	"testing"
	"testing/quick"

	"repro/internal/clocktree"
	"repro/internal/comm"
	"repro/internal/stats"
)

func linearArray(t *testing.T, n int) *comm.Graph {
	t.Helper()
	g, err := comm.Linear(n)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func meshArray(t *testing.T, n int) *comm.Graph {
	t.Helper()
	g, err := comm.Mesh(n, n)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func TestModelBounds(t *testing.T) {
	d, s := 2.0, 5.0
	if got := (Difference{}).Bound(d, s); got != 2 {
		t.Errorf("Difference identity = %g", got)
	}
	dm := Difference{F: func(x float64) float64 { return 3 * x }}
	if got := dm.Bound(d, s); got != 6 {
		t.Errorf("Difference F = %g", got)
	}
	if got := (Summation{}).Bound(d, s); got != 5 {
		t.Errorf("Summation identity = %g", got)
	}
	sm := Summation{G: func(x float64) float64 { return x / 2 }, Beta: 0.1}
	if got := sm.Bound(d, s); got != 2.5 {
		t.Errorf("Summation G = %g", got)
	}
	if got := sm.LowerBound(s); got != 0.5 {
		t.Errorf("Summation lower = %g", got)
	}
	lin := Linear{M: 1, Eps: 0.1}
	if got := lin.Bound(d, s); math.Abs(got-2.5) > 1e-12 {
		t.Errorf("Linear = %g, want 2.5", got)
	}
	if got := lin.LowerBound(s); math.Abs(got-0.5) > 1e-12 {
		t.Errorf("Linear lower = %g", got)
	}
}

func TestModelNames(t *testing.T) {
	if (Difference{}).Name() != "difference" || (Summation{}).Name() != "summation" || (Linear{}).Name() != "linear" {
		t.Error("model names wrong")
	}
}

// Theorem 2 regime: H-tree under difference model gives zero skew on
// power-of-two meshes and constant skew as arrays grow.
func TestHTreeDifferenceModelConstantSkew(t *testing.T) {
	for _, n := range []int{4, 8, 16} {
		g := meshArray(t, n)
		tr, err := clocktree.HTree(g)
		if err != nil {
			t.Fatal(err)
		}
		a, err := Analyze(g, tr, Difference{})
		if err != nil {
			t.Fatal(err)
		}
		if a.MaxSkew > 1e-9 {
			t.Errorf("n=%d: H-tree difference skew = %g, want 0", n, a.MaxSkew)
		}
		if int64(a.Pairs) != g.PairIndex().NumPairs() {
			t.Errorf("pair count mismatch")
		}
	}
}

// Section V opening: the same H-tree fails under the summation model on
// linear arrays — skew grows with n.
func TestHTreeSummationModelSkewGrows(t *testing.T) {
	var prev float64
	for _, n := range []int{8, 16, 32, 64} {
		g := linearArray(t, n)
		tr, err := clocktree.HTree(g)
		if err != nil {
			t.Fatal(err)
		}
		a, err := Analyze(g, tr, Summation{Beta: 1})
		if err != nil {
			t.Fatal(err)
		}
		if a.MaxSkew <= prev {
			t.Errorf("n=%d: summation skew %g did not grow from %g", n, a.MaxSkew, prev)
		}
		prev = a.MaxSkew
	}
}

// Theorem 3: spine clocking keeps summation-model skew constant (= cell
// pitch) on linear arrays of any size, including folded and comb layouts.
func TestSpineSummationModelConstant(t *testing.T) {
	for _, n := range []int{4, 32, 256} {
		g := linearArray(t, n)
		for _, variant := range []struct {
			name string
			g    *comm.Graph
		}{
			{"straight", g},
			{"folded", mustFold(t, g)},
			{"comb", mustComb(t, g, 4)},
		} {
			tr, err := clocktree.Spine(variant.g)
			if err != nil {
				t.Fatal(err)
			}
			a, err := Analyze(variant.g, tr, Summation{})
			if err != nil {
				t.Fatal(err)
			}
			if a.MaxSkew > 2+1e-9 {
				t.Errorf("n=%d %s: spine summation skew = %g, want ≤ 2", n, variant.name, a.MaxSkew)
			}
		}
	}
}

func mustFold(t *testing.T, g *comm.Graph) *comm.Graph {
	t.Helper()
	f, err := comm.FoldLinear(g)
	if err != nil {
		t.Fatal(err)
	}
	return f
}

func mustComb(t *testing.T, g *comm.Graph, h int) *comm.Graph {
	t.Helper()
	c, err := comm.CombLinear(g, h)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func TestAnalyzeRejectsNonCoveringTree(t *testing.T) {
	g := linearArray(t, 4)
	small := linearArray(t, 2)
	tr, err := clocktree.Spine(small)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Analyze(g, tr, Difference{}); err == nil {
		t.Error("non-covering tree accepted")
	}
}

func TestGuaranteedMinSkew(t *testing.T) {
	g := linearArray(t, 10)
	tr, err := clocktree.Spine(g)
	if err != nil {
		t.Fatal(err)
	}
	if got := GuaranteedMinSkew(g, tr, Summation{Beta: 0.25}); math.Abs(got-0.25) > 1e-9 {
		t.Errorf("spine guaranteed skew = %g, want 0.25 (β·pitch)", got)
	}
	// Models without lower bounds contribute nothing.
	if got := GuaranteedMinSkew(g, tr, Difference{}); got != 0 {
		t.Errorf("difference guaranteed = %g, want 0", got)
	}
}

func TestMonteCarloWithinLinearBound(t *testing.T) {
	g := meshArray(t, 6)
	tr, err := clocktree.HTree(g)
	if err != nil {
		t.Fatal(err)
	}
	m := Linear{M: 1, Eps: 0.2}
	worst, err := MonteCarlo(g, tr, m, 30, stats.NewRNG(17))
	if err != nil {
		t.Fatal(err)
	}
	a, err := Analyze(g, tr, m)
	if err != nil {
		t.Fatal(err)
	}
	if worst > a.MaxSkew+1e-9 {
		t.Errorf("Monte-Carlo skew %g exceeds Linear model bound %g", worst, a.MaxSkew)
	}
	if worst <= 0 {
		t.Errorf("Monte-Carlo skew = %g, want > 0", worst)
	}
}

func TestMonteCarloDeterministic(t *testing.T) {
	g := linearArray(t, 12)
	tr, _ := clocktree.Spine(g)
	m := Linear{M: 1, Eps: 0.1}
	a, err := MonteCarlo(g, tr, m, 10, stats.NewRNG(5))
	if err != nil {
		t.Fatal(err)
	}
	b, err := MonteCarlo(g, tr, m, 10, stats.NewRNG(5))
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Errorf("Monte-Carlo not deterministic: %g vs %g", a, b)
	}
}

func TestMonteCarloValidation(t *testing.T) {
	g := linearArray(t, 4)
	tr, _ := clocktree.Spine(g)
	if _, err := MonteCarlo(g, tr, Linear{M: 1, Eps: 2}, 1, stats.NewRNG(0)); err == nil {
		t.Error("Eps > M accepted")
	}
	small := linearArray(t, 2)
	ts, _ := clocktree.Spine(small)
	if _, err := MonteCarlo(g, ts, Linear{M: 1, Eps: 0.1}, 1, stats.NewRNG(0)); err == nil {
		t.Error("non-covering tree accepted")
	}
}

func TestMonteCarloRespectsSummationScalingProperty(t *testing.T) {
	// For a spine on a linear array, Monte-Carlo neighbor skew can never
	// exceed (M+Eps)·maxPairPath and never goes negative.
	f := func(seed int64, nn uint8) bool {
		n := int(nn%16) + 2
		g, err := comm.Linear(n)
		if err != nil {
			return false
		}
		tr, err := clocktree.Spine(g)
		if err != nil {
			return false
		}
		m := Linear{M: 1, Eps: 0.3}
		worst, err := MonteCarlo(g, tr, m, 3, stats.NewRNG(seed))
		if err != nil {
			return false
		}
		return worst >= 0 && worst <= (m.M+m.Eps)*1.0+1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

// The core Section V-B result: the certified lower bound is positive,
// grows linearly with n, and never exceeds the guaranteed skew of the tree
// it certifies (soundness of the mechanized proof).
func TestMeshCertifiedLowerBound(t *testing.T) {
	beta := 0.5
	var bounds []float64
	var ns []float64
	for _, n := range []int{8, 12, 16, 24} {
		g := meshArray(t, n)
		for _, f := range StandardFactories(2, 99) {
			tr, err := f.Build(g)
			if err != nil {
				t.Fatal(err)
			}
			cert, err := MeshCertifiedLowerBound(g, tr, beta)
			if err != nil {
				t.Fatal(err)
			}
			if n >= 8 && cert.Bound <= 0 {
				t.Errorf("n=%d tree=%s: certified bound %g, want > 0", n, f.Name, cert.Bound)
			}
			guaranteed := GuaranteedMinSkew(g, tr, Summation{Beta: beta})
			if cert.Bound > guaranteed+1e-6 {
				t.Errorf("n=%d tree=%s: certified %g exceeds guaranteed %g — proof unsound",
					n, f.Name, cert.Bound, guaranteed)
			}
			if cert.SideA+cert.SideB != n*n {
				t.Errorf("separator sides %d+%d != %d", cert.SideA, cert.SideB, n*n)
			}
			if f.Name == "htree" {
				bounds = append(bounds, cert.Bound)
				ns = append(ns, float64(n))
			}
		}
	}
	fit, err := stats.FitPowerLaw(ns, bounds)
	if err != nil {
		t.Fatal(err)
	}
	if fit.B < 0.7 || fit.B > 1.3 {
		t.Errorf("certified bound growth exponent = %g, want ≈1 (Ω(n))", fit.B)
	}
}

func TestMeshCertifiedLowerBoundValidation(t *testing.T) {
	g := meshArray(t, 4)
	tr, _ := clocktree.HTree(g)
	if _, err := MeshCertifiedLowerBound(g, tr, 0); err == nil {
		t.Error("beta=0 accepted")
	}
	lin := linearArray(t, 4)
	trl, _ := clocktree.Spine(lin)
	if _, err := MeshCertifiedLowerBound(lin, trl, 1); err == nil {
		t.Error("non-mesh accepted")
	}
	// Rectangular meshes are supported (general Theorem 6 form).
	rect, _ := comm.Mesh(2, 4)
	trr, _ := clocktree.HTree(rect)
	if _, err := MeshCertifiedLowerBound(rect, trr, 1); err != nil {
		t.Errorf("rectangular mesh rejected: %v", err)
	}
	smallTree, _ := clocktree.HTree(meshArray(t, 3))
	if _, err := MeshCertifiedLowerBound(g, smallTree, 1); err == nil {
		t.Error("non-covering tree accepted")
	}
}

func TestMinSkewOverTreesGrowsLinearly(t *testing.T) {
	model := Summation{Beta: 1}
	factories := StandardFactories(3, 7)
	var ns, skews []float64
	for _, n := range []int{6, 10, 16, 24} {
		g := meshArray(t, n)
		best, err := MinSkewOverTrees(g, model, factories)
		if err != nil {
			t.Fatal(err)
		}
		if best.MinGuaranteedSkew <= 0 {
			t.Fatalf("n=%d: min guaranteed skew %g", n, best.MinGuaranteedSkew)
		}
		if best.Certified > best.MinGuaranteedSkew+1e-6 {
			t.Errorf("n=%d: certified %g > guaranteed %g", n, best.Certified, best.MinGuaranteedSkew)
		}
		ns = append(ns, float64(n))
		skews = append(skews, best.MinGuaranteedSkew)
	}
	fit, err := stats.FitPowerLaw(ns, skews)
	if err != nil {
		t.Fatal(err)
	}
	if fit.B < 0.6 {
		t.Errorf("best-tree skew growth exponent = %g; Theorem 6 demands Ω(n)", fit.B)
	}
}

func TestMinSkewOverTreesNoFactories(t *testing.T) {
	g := meshArray(t, 4)
	if _, err := MinSkewOverTrees(g, Summation{Beta: 1}, nil); err == nil {
		t.Error("empty factory list accepted")
	}
}

// Theorem 6's general form: σ = Ω(W(N)) where W is the bisection width.
// A thin r×c mesh (r ≪ c) has W ≈ r, so a serpentine threading the short
// dimension achieves skew Θ(r) — far below the Θ(√N) a square mesh of
// the same cell count is stuck with.
func TestThinMeshSkewTracksBisectionWidth(t *testing.T) {
	model := Summation{Beta: 1}
	// 4×64 thin mesh (256 cells): serpentine along the short side.
	thin, err := comm.Mesh(64, 4) // 64 rows of 4 — rows are the snake runs
	if err != nil {
		t.Fatal(err)
	}
	thinTree, err := clocktree.Serpentine(thin)
	if err != nil {
		t.Fatal(err)
	}
	thinSkew := GuaranteedMinSkew(thin, thinTree, model)

	square, err := comm.Mesh(16, 16) // same 256 cells
	if err != nil {
		t.Fatal(err)
	}
	best, err := MinSkewOverTrees(square, model, StandardFactories(2, 5))
	if err != nil {
		t.Fatal(err)
	}
	// Thin-mesh skew ≈ 2·(short side) = 8; square ≈ 2·16 = 32.
	if thinSkew > 10 {
		t.Errorf("thin mesh skew = %g, want ≈ 2·width = 8", thinSkew)
	}
	if best.MinGuaranteedSkew < 2*thinSkew {
		t.Errorf("square mesh skew %g not ≫ thin mesh %g — W(N) ordering violated",
			best.MinGuaranteedSkew, thinSkew)
	}
}

// The general Theorem 6 form on rectangles: the certified bound of an
// r×c mesh tracks the shorter side (its bisection width), not the longer.
func TestRectangularCertifiedBoundTracksShortSide(t *testing.T) {
	beta := 1.0
	bound := func(r, c int) float64 {
		g, err := comm.Mesh(r, c)
		if err != nil {
			t.Fatal(err)
		}
		tr, err := clocktree.HTree(g)
		if err != nil {
			t.Fatal(err)
		}
		cert, err := MeshCertifiedLowerBound(g, tr, beta)
		if err != nil {
			t.Fatal(err)
		}
		return cert.Bound
	}
	thin := bound(4, 64)    // W ≈ 4
	square := bound(16, 16) // W ≈ 16, same 256 cells
	wide := bound(8, 128)   // W ≈ 8
	if thin >= square {
		t.Errorf("thin mesh certified bound %g not below square %g", thin, square)
	}
	if thin >= wide {
		t.Errorf("4-wide bound %g not below 8-wide %g", thin, wide)
	}
	if thin <= 0 || wide <= 0 {
		t.Errorf("rectangular bounds must be positive: %g %g", thin, wide)
	}
}
