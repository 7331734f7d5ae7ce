package embed

import (
	"math"
	"testing"
	"testing/quick"
)

func TestIdentity(t *testing.T) {
	e, err := Identity(3, 4)
	if err != nil {
		t.Fatal(err)
	}
	m, err := Measure(e)
	if err != nil {
		t.Fatal(err)
	}
	if m.Dilation != 1 || m.AreaFactor != 1 {
		t.Errorf("identity metrics = %+v", m)
	}
	p := e.Pos[2*e.SrcCols+3]
	r, c := p[0], p[1]
	if r != 2 || c != 3 {
		t.Errorf("At = %d,%d", r, c)
	}
	if _, err := Identity(0, 3); err == nil {
		t.Error("zero dims accepted")
	}
}

func TestSingleFoldDilationTwo(t *testing.T) {
	e, err := Identity(4, 16)
	if err != nil {
		t.Fatal(err)
	}
	f, err := Fold(e)
	if err != nil {
		t.Fatal(err)
	}
	if f.DstRows != 8 || f.DstCols != 8 {
		t.Errorf("folded dims = %d×%d, want 8×8", f.DstRows, f.DstCols)
	}
	m, err := Measure(f)
	if err != nil {
		t.Fatal(err)
	}
	if m.Dilation != 2 {
		t.Errorf("fold dilation = %d, want 2", m.Dilation)
	}
	if m.AreaFactor != 1 {
		t.Errorf("fold area factor = %g, want 1", m.AreaFactor)
	}
}

func TestFoldRejectsNarrow(t *testing.T) {
	e, _ := Identity(4, 1)
	if _, err := Fold(e); err == nil {
		t.Error("1-column fold accepted")
	}
}

func TestFoldToSquare(t *testing.T) {
	// The paper's example shape: n^(2/3) × n^(1/3) with n = 4096 is
	// 256×16... rows ≤ cols means 16×256.
	e, err := FoldToSquare(16, 256)
	if err != nil {
		t.Fatal(err)
	}
	m, err := Measure(e)
	if err != nil {
		t.Fatal(err)
	}
	if m.AspectRatio > 2+1e-9 {
		t.Errorf("aspect = %g, want ≤ 2", m.AspectRatio)
	}
	if m.AreaFactor > 1.5 {
		t.Errorf("area factor = %g, want ≤ 1.5", m.AreaFactor)
	}
	// Dilation O(√(cols/rows)) = O(4): folds = log2(256/16/2) = 3 → 2³.
	if m.Dilation > 8 {
		t.Errorf("dilation = %d, want ≤ 8", m.Dilation)
	}
}

func TestFoldToSquareRejectsTall(t *testing.T) {
	if _, err := FoldToSquare(10, 4); err == nil {
		t.Error("rows > cols accepted")
	}
}

func TestMeasureDetectsCollision(t *testing.T) {
	e, _ := Identity(2, 2)
	e.Pos[3] = e.Pos[0]
	if _, err := Measure(e); err == nil {
		t.Error("collision not detected")
	}
	e2, _ := Identity(2, 2)
	e2.Pos[1] = [2]int{5, 0}
	if _, err := Measure(e2); err == nil {
		t.Error("out-of-range not detected")
	}
}

func TestFoldPropertyInjective(t *testing.T) {
	f := func(rr, cc uint8) bool {
		rows := int(rr%6) + 1
		cols := int(cc%30) + rows // ensure cols ≥ rows
		e, err := FoldToSquare(rows, cols)
		if err != nil {
			return false
		}
		m, err := Measure(e)
		if err != nil {
			return false // Measure validates injectivity and bounds
		}
		// Dilation bounded by 2^folds; area never grows beyond 2×.
		folds := 0
		for c := cols; c > 2*rows<<(uint(folds)); {
			folds++
			c = (c + 1) / 2
		}
		return m.AreaFactor <= 2.0+1e-9 && m.Dilation <= 1<<uint(folds+1)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

func TestDilationGrowthMatchesSqrtAspect(t *testing.T) {
	// Iterated folding's documented weakness: dilation ~ √aspect.
	d := func(rows, cols int) int {
		e, err := FoldToSquare(rows, cols)
		if err != nil {
			t.Fatal(err)
		}
		m, err := Measure(e)
		if err != nil {
			t.Fatal(err)
		}
		return m.Dilation
	}
	d16 := d(4, 64)    // aspect 16
	d256 := d(4, 1024) // aspect 256
	ratio := float64(d256) / float64(d16)
	if math.Abs(ratio-4) > 2.1 {
		t.Errorf("dilation ratio = %g, expected ≈4 (√16)", ratio)
	}
}
