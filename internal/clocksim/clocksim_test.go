package clocksim

import (
	"math"
	"testing"
	"testing/quick"

	"repro/internal/array"
	"repro/internal/clocktree"
	"repro/internal/comm"
	"repro/internal/stats"
	"repro/internal/systolic"
)

func params() Params {
	return Params{M: 1, Eps: 0.2, BufferDelay: 0.1, MinSeparation: 2, RiseFallBias: 0.05}
}

func spineOn(t *testing.T, n int) (*comm.Graph, *clocktree.Tree) {
	t.Helper()
	g, err := comm.Linear(n)
	if err != nil {
		t.Fatal(err)
	}
	tr, err := clocktree.Spine(g)
	if err != nil {
		t.Fatal(err)
	}
	return g, tr
}

func htreeOn(t *testing.T, n int) (*comm.Graph, *clocktree.Tree) {
	t.Helper()
	g, err := comm.Mesh(n, n)
	if err != nil {
		t.Fatal(err)
	}
	tr, err := clocktree.HTree(g)
	if err != nil {
		t.Fatal(err)
	}
	return g, tr
}

func TestParamsValidation(t *testing.T) {
	_, tr := spineOn(t, 4)
	if _, err := Nominal(tr, Params{M: 0}); err == nil {
		t.Error("M=0 accepted")
	}
	if _, err := Nominal(tr, Params{M: 1, Eps: 2}); err == nil {
		t.Error("Eps>M accepted")
	}
	if _, err := Nominal(tr, Params{M: 1, BufferDelay: -1}); err == nil {
		t.Error("negative buffer delay accepted")
	}
	if _, err := Random(tr, Params{M: 1}, nil); err == nil {
		t.Error("Random without RNG accepted")
	}
}

func TestNominalArrivalsMatchRootDistance(t *testing.T) {
	g, tr := spineOn(t, 10)
	a, err := Nominal(tr, Params{M: 2})
	if err != nil {
		t.Fatal(err)
	}
	for id := comm.CellID(0); int(id) < g.NumCells(); id++ {
		c := g.Cell(id)
		node, _ := tr.CellNode(c.ID)
		want := 2 * tr.RootDist(node)
		got, err := a.CellArrival(c.ID)
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(got-want) > 1e-9 {
			t.Errorf("cell %d arrival = %g, want %g", c.ID, got, want)
		}
	}
}

func TestNominalHTreeZeroSkew(t *testing.T) {
	g, tr := htreeOn(t, 8)
	a, err := Nominal(tr, Params{M: 1})
	if err != nil {
		t.Fatal(err)
	}
	skew, err := a.MaxCommSkew(g)
	if err != nil {
		t.Fatal(err)
	}
	if skew > 1e-9 {
		t.Errorf("nominal H-tree skew = %g, want 0", skew)
	}
}

func TestRandomSkewWithinSummationBound(t *testing.T) {
	g, tr := htreeOn(t, 6)
	p := params()
	for seed := int64(0); seed < 10; seed++ {
		a, err := Random(tr, p, stats.NewRNG(seed))
		if err != nil {
			t.Fatal(err)
		}
		skew, err := a.MaxCommSkew(g)
		if err != nil {
			t.Fatal(err)
		}
		// Upper bound: M·d + Eps·s over all pairs (Section III).
		var bound float64
		c := g.PairIndex().Cursor(0)
		for pa, pb, ok := c.Next(); ok; pa, pb, ok = c.Next() {
			na, _ := tr.CellNode(pa)
			nb, _ := tr.CellNode(pb)
			b := p.M*tr.DiffDist(na, nb) + p.Eps*tr.PathLen(na, nb)
			if b > bound {
				bound = b
			}
		}
		if skew > bound+1e-9 {
			t.Errorf("seed %d: random skew %g exceeds σ ≤ m·d+ε·s bound %g", seed, skew, bound)
		}
	}
}

func TestAdversarialAchievesA11Bound(t *testing.T) {
	g, tr := htreeOn(t, 8)
	p := params()
	// Pick the worst communicating pair under the summation metric.
	var a, b comm.CellID
	var worstS float64
	c := g.PairIndex().Cursor(0)
	for pa, pb, ok := c.Next(); ok; pa, pb, ok = c.Next() {
		if s := tr.CellPathLen(pa, pb); s > worstS {
			worstS = s
			a, b = pa, pb
		}
	}
	arr, err := Adversarial(tr, p, a, b)
	if err != nil {
		t.Fatal(err)
	}
	ta, _ := arr.CellArrival(a)
	tb, _ := arr.CellArrival(b)
	want := p.Eps * worstS
	if math.Abs(math.Abs(ta-tb)-want) > 1e-9 {
		t.Errorf("adversarial pair skew = %g, want exactly ε·s = %g", math.Abs(ta-tb), want)
	}
}

func TestAdversarialUnknownCell(t *testing.T) {
	_, tr := spineOn(t, 4)
	if _, err := Adversarial(tr, params(), 0, 99); err == nil {
		t.Error("unknown cell accepted")
	}
	if _, err := Adversarial(tr, params(), 99, 0); err == nil {
		t.Error("unknown cell accepted")
	}
}

func TestOffsetsNonNegativeAndAnchored(t *testing.T) {
	g, tr := spineOn(t, 12)
	a, err := Random(tr, params(), stats.NewRNG(3))
	if err != nil {
		t.Fatal(err)
	}
	off, err := a.Offsets(g)
	if err != nil {
		t.Fatal(err)
	}
	min, max := math.Inf(1), math.Inf(-1)
	for _, o := range off.Cell {
		if o < 0 {
			t.Fatalf("negative offset %g", o)
		}
		min = math.Min(min, o)
		max = math.Max(max, o)
	}
	if min != 0 {
		t.Errorf("offsets not anchored at 0 (min %g)", min)
	}
	if off.Host != 0 || math.Abs(off.HostRead-max) > 1e-12 {
		t.Errorf("host offsets = %g/%g, want 0/%g", off.Host, off.HostRead, max)
	}
}

// End-to-end: simulated spine clock arrivals drive a real FIR machine;
// with the pipelined clock traveling alongside the data, the array works
// at a period independent of its size.
func TestSpineClockDrivesFIREndToEnd(t *testing.T) {
	for _, n := range []int{4, 12} {
		weights := make([]float64, n)
		for i := range weights {
			weights[i] = float64(i%3) - 1
		}
		fir, err := systolic.NewFIR(weights, []float64{1, 2, 3, 4})
		if err != nil {
			t.Fatal(err)
		}
		g := fir.Machine.Graph()
		tr, err := clocktree.Spine(g)
		if err != nil {
			t.Fatal(err)
		}
		arr, err := Random(tr, params(), stats.NewRNG(int64(n)))
		if err != nil {
			t.Fatal(err)
		}
		off, err := arr.Offsets(g)
		if err != nil {
			t.Fatal(err)
		}
		// Receiver clocks trail senders by ≈ M per pitch, so pad δ to
		// cover the lag (holds) and clock at δ + directed skew (setup).
		delta := 1.0 + (params().M+params().Eps)*1.05
		timing := array.Timing{
			Period:    delta + fir.Machine.MaxDirectedSkew(off) + 0.1,
			CellDelay: delta,
			HoldDelay: delta,
		}
		got, err := fir.Machine.RunClocked(fir.Cycles, timing, off)
		if err != nil {
			t.Fatal(err)
		}
		if !got.Equal(fir.Golden(fir.Cycles), 1e-9) {
			t.Errorf("n=%d: spine-clocked FIR diverged from golden", n)
		}
	}
}

func TestMaxEventDriftCountsBuffers(t *testing.T) {
	_, tr := spineOn(t, 16)
	buffered, err := clocktree.Buffered(tr, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	p := params()
	drift := MaxEventDrift(buffered, p)
	// Spine of length 15 with 0.5 spacing: ≥ 15 buffers on the deepest
	// path; drift = bias × count.
	if drift < 15*p.RiseFallBias-1e-9 {
		t.Errorf("drift = %g, want ≥ %g", drift, 15*p.RiseFallBias)
	}
	if unbuffered := MaxEventDrift(tr, p); unbuffered != 0 {
		t.Errorf("unbuffered tree drift = %g, want 0", unbuffered)
	}
}

func TestMinPipelinedPeriodGrowsWithDepthButNotSize(t *testing.T) {
	p := params()
	// For an H-tree, the buffered depth grows like √N, so the pipelined
	// period grows like √N times the bias — the tree analogue of E7.
	_, tr4 := htreeOn(t, 4)
	_, tr16 := htreeOn(t, 16)
	b4, err := clocktree.Buffered(tr4, 1)
	if err != nil {
		t.Fatal(err)
	}
	b16, err := clocktree.Buffered(tr16, 1)
	if err != nil {
		t.Fatal(err)
	}
	p4 := MinPipelinedPeriod(b4, p)
	p16 := MinPipelinedPeriod(b16, p)
	if p16 <= p4 {
		t.Errorf("period did not grow with tree depth: %g vs %g", p4, p16)
	}
	// But equipotential τ grows faster (A6: alpha times the root
	// distance, with a much bigger constant in practice).
	if b16.MaxRootDist() <= b4.MaxRootDist() {
		t.Errorf("equipotential tau did not grow")
	}
}

func TestRandomArrivalsDeterministicPerSeed(t *testing.T) {
	g, tr := spineOn(t, 8)
	a1, err := Random(tr, params(), stats.NewRNG(5))
	if err != nil {
		t.Fatal(err)
	}
	a2, err := Random(tr, params(), stats.NewRNG(5))
	if err != nil {
		t.Fatal(err)
	}
	for id := comm.CellID(0); int(id) < g.NumCells(); id++ {
		c := g.Cell(id)
		t1, _ := a1.CellArrival(c.ID)
		t2, _ := a2.CellArrival(c.ID)
		if t1 != t2 {
			t.Fatalf("cell %d arrivals differ", c.ID)
		}
	}
}

func TestArrivalsMonotoneAlongTreeProperty(t *testing.T) {
	// Arrival times must increase from parent to child (positive delays).
	f := func(seed int64, nn uint8) bool {
		n := int(nn%12) + 2
		g, err := comm.Linear(n)
		if err != nil {
			return false
		}
		tr, err := clocktree.HTree(g)
		if err != nil {
			return false
		}
		a, err := Random(tr, params(), stats.NewRNG(seed))
		if err != nil {
			return false
		}
		for v := 0; v < tr.NumNodes(); v++ {
			id := clocktree.NodeID(v)
			if p := tr.Parent(id); p >= 0 && a.At(id) < a.At(p) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

// TestAlongCommTreeArrivalsFollowCells pins the data-path clock's
// per-cell arrivals to a walk over the heap-indexed COMM tree itself,
// whose numbering AlongCommTree's nodes had before they were numbered
// in DFS preorder. Both walks draw one delay per edge in clocksim's
// stack order with siblings in ascending cell order, so every cell's
// random and adversarial arrival, and the kernel's random skew, are
// those of the heap-indexed tree.
func TestAlongCommTreeArrivalsFollowCells(t *testing.T) {
	g, err := comm.CompleteBinaryTree(7)
	if err != nil {
		t.Fatal(err)
	}
	tr, err := clocktree.AlongCommTree(g)
	if err != nil {
		t.Fatal(err)
	}
	if err := tr.Validate(); err != nil {
		t.Fatal(err)
	}
	n := g.NumCells()
	parent := func(c int) int { return (c - 1) / 2 }
	// heapWalk is clocksim's stack traversal over cells, cell c's edge
	// delaying it by its wire length times unit(c).
	heapWalk := func(unit func(c int) float64) []float64 {
		at := make([]float64, n)
		stack := []int{0}
		for len(stack) > 0 {
			c := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			for _, ch := range []int{2*c + 1, 2*c + 2} {
				if ch < n {
					l := g.Cell(comm.CellID(ch)).Pos.ManhattanDist(g.Cell(comm.CellID(c)).Pos)
					at[ch] = at[c] + l*unit(ch) + 0.0
					stack = append(stack, ch)
				}
			}
		}
		return at
	}
	sameCells := func(name string, arr *Arrivals, want []float64) {
		t.Helper()
		for c := range want {
			got, err := arr.CellArrival(comm.CellID(c))
			if err != nil {
				t.Fatal(err)
			}
			if got != want[c] {
				t.Fatalf("%s: cell %d arrives at %v, heap walk %v", name, c, got, want[c])
			}
		}
	}
	p := params()
	k, err := NewKernel(g, tr)
	if err != nil {
		t.Fatal(err)
	}
	for seed := int64(1); seed <= 3; seed++ {
		arr, err := Random(tr, p, stats.NewRNG(seed))
		if err != nil {
			t.Fatal(err)
		}
		rng := stats.NewRNG(seed)
		want := heapWalk(func(int) float64 { return rng.Uniform(p.M-p.Eps, p.M+p.Eps) })
		sameCells("random", arr, want)
		var worst float64
		c := g.PairIndex().Cursor(0)
		for a, b, ok := c.Next(); ok; a, b, ok = c.Next() {
			worst = math.Max(worst, math.Abs(want[a]-want[b]))
		}
		if got, err := k.RandomSkew(p, stats.NewRNG(seed)); err != nil || got != worst {
			t.Fatalf("seed %d: kernel random skew %v (%v), heap walk %v", seed, got, err, worst)
		}
	}
	for _, pr := range [][2]int{{n - 1, n / 2}, {63, 64}, {5, 0}} {
		arr, err := Adversarial(tr, p, comm.CellID(pr[0]), comm.CellID(pr[1]))
		if err != nil {
			t.Fatal(err)
		}
		onPath := func(from, c int) bool {
			for v := from; v > 0; v = parent(v) {
				if v == c {
					return true
				}
			}
			return false
		}
		lca := pr[0]
		for !onPath(pr[1], lca) && lca != 0 {
			lca = parent(lca)
		}
		want := heapWalk(func(c int) float64 {
			switch {
			case onPath(pr[0], c) && !onPath(lca, c) && c != lca:
				return p.M + p.Eps
			case onPath(pr[1], c) && !onPath(lca, c) && c != lca:
				return p.M - p.Eps
			}
			return p.M
		})
		sameCells("adversarial", arr, want)
	}
}
