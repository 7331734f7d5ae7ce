package core

import (
	"math"
	"testing"

	"repro/internal/comm"
)

func assumptions(model ModelKind) Assumptions {
	a := Assumptions{
		Model:         model,
		M:             1,
		Eps:           0.1,
		Delta:         2,
		BufferSpacing: 1,
	}
	if model == NoPipelining {
		a.Alpha = 1
	}
	return a
}

func TestValidation(t *testing.T) {
	g, _ := comm.Linear(4)
	bad := []Assumptions{
		{Model: DifferenceModel, M: 0, Delta: 1, BufferSpacing: 1},
		{Model: DifferenceModel, M: 1, Eps: 2, Delta: 1, BufferSpacing: 1},
		{Model: DifferenceModel, M: 1, Delta: 0, BufferSpacing: 1},
		{Model: DifferenceModel, M: 1, Delta: 1, BufferSpacing: 0},
		{Model: NoPipelining, M: 1, Delta: 1, BufferSpacing: 1, Alpha: 0},
		{Model: "nonsense", M: 1, Delta: 1, BufferSpacing: 1},
	}
	for i, a := range bad {
		if _, err := NewPlan(g, a); err == nil {
			t.Errorf("bad assumptions %d accepted", i)
		}
	}
}

func TestDifferenceModelPicksHTree(t *testing.T) {
	for _, n := range []int{4, 8, 16} {
		g, err := comm.Mesh(n, n)
		if err != nil {
			t.Fatal(err)
		}
		p, err := NewPlan(g, assumptions(DifferenceModel))
		if err != nil {
			t.Fatal(err)
		}
		if p.Scheme != SchemeHTree {
			t.Fatalf("scheme = %s", p.Scheme)
		}
		if !p.SizeIndependent {
			t.Error("H-tree plan not size independent")
		}
		if p.Sigma > 1e-9 {
			t.Errorf("n=%d: equalized H-tree sigma = %g, want 0", n, p.Sigma)
		}
		// Period = δ + τ, independent of n.
		want := 2.0 + 1.0
		if math.Abs(p.Period-want) > 1e-9 {
			t.Errorf("n=%d: period = %g, want %g", n, p.Period, want)
		}
		if p.Tree == nil || !p.Tree.Covers(g) {
			t.Error("plan tree missing or not covering")
		}
	}
}

func TestSummationModel1DPicksSpine(t *testing.T) {
	var periods []float64
	for _, n := range []int{8, 64, 256} {
		g, err := comm.Linear(n)
		if err != nil {
			t.Fatal(err)
		}
		p, err := NewPlan(g, assumptions(SummationModel))
		if err != nil {
			t.Fatal(err)
		}
		if p.Scheme != SchemeSpine {
			t.Fatalf("scheme = %s", p.Scheme)
		}
		periods = append(periods, p.Period)
	}
	for i := 1; i < len(periods); i++ {
		if math.Abs(periods[i]-periods[0]) > 1e-9 {
			t.Errorf("spine period varies with n: %v", periods)
		}
	}
}

func TestSummationModel2DPicksHybrid(t *testing.T) {
	g, err := comm.Mesh(12, 12)
	if err != nil {
		t.Fatal(err)
	}
	p, err := NewPlan(g, assumptions(SummationModel))
	if err != nil {
		t.Fatal(err)
	}
	if p.Scheme != SchemeHybrid {
		t.Fatalf("scheme = %s, want hybrid", p.Scheme)
	}
	if p.Hybrid == nil {
		t.Fatal("hybrid plan missing partition")
	}
	if !p.SizeIndependent {
		t.Error("hybrid plan not size independent")
	}
	if p.CertifiedSkewLowerBound <= 0 {
		t.Errorf("certified bound = %g, want > 0 on a 12×12 mesh", p.CertifiedSkewLowerBound)
	}
	if p.Rationale == "" {
		t.Error("empty rationale")
	}
}

func TestCertifiedBoundGrowsWithMesh(t *testing.T) {
	bound := func(n int) float64 {
		g, err := comm.Mesh(n, n)
		if err != nil {
			t.Fatal(err)
		}
		p, err := NewPlan(g, assumptions(SummationModel))
		if err != nil {
			t.Fatal(err)
		}
		return p.CertifiedSkewLowerBound
	}
	b8, b32 := bound(8), bound(32)
	if b32 < 3*b8 {
		t.Errorf("certified bound grew %g→%g; want ≈4× for 4× mesh side", b8, b32)
	}
}

func TestNoPipeliningFallsBackToHybrid(t *testing.T) {
	g, err := comm.Mesh(8, 8)
	if err != nil {
		t.Fatal(err)
	}
	p, err := NewPlan(g, assumptions(NoPipelining))
	if err != nil {
		t.Fatal(err)
	}
	if p.Scheme != SchemeHybrid {
		t.Fatalf("scheme = %s, want hybrid", p.Scheme)
	}
	if p.Tau <= 0 {
		t.Errorf("equipotential tau = %g, want > 0", p.Tau)
	}
}

func TestPlanRejectsEmptyGraph(t *testing.T) {
	g := &comm.Graph{}
	if _, err := NewPlan(g, assumptions(DifferenceModel)); err == nil {
		t.Error("empty graph accepted")
	}
}

func TestRingCountsAsOneDimensional(t *testing.T) {
	g, err := comm.Ring(12)
	if err != nil {
		t.Fatal(err)
	}
	p, err := NewPlan(g, assumptions(SummationModel))
	if err != nil {
		t.Fatal(err)
	}
	if p.Scheme != SchemeSpine {
		t.Errorf("ring scheme = %s, want spine", p.Scheme)
	}
}
