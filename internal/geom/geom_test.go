package geom

import (
	"math"
	"testing"
	"testing/quick"
)

func almost(a, b float64) bool { return math.Abs(a-b) <= 1e-9*(1+math.Abs(a)+math.Abs(b)) }

func TestPointArithmetic(t *testing.T) {
	p := Pt(1, 2)
	q := Pt(3, -4)
	if got := p.Add(q); got != Pt(4, -2) {
		t.Errorf("Add = %v", got)
	}
	if got := p.Sub(q); got != Pt(-2, 6) {
		t.Errorf("Sub = %v", got)
	}
	if got := p.Scale(2); got != Pt(2, 4) {
		t.Errorf("Scale = %v", got)
	}
}

func TestDistances(t *testing.T) {
	a, b := Pt(0, 0), Pt(3, 4)
	if d := a.Dist(b); !almost(d, 5) {
		t.Errorf("Dist = %g, want 5", d)
	}
	if d := a.ManhattanDist(b); !almost(d, 7) {
		t.Errorf("ManhattanDist = %g, want 7", d)
	}
}

func TestDistSymmetryProperty(t *testing.T) {
	f := func(ax, ay, bx, by float64) bool {
		for _, v := range []float64{ax, ay, bx, by} {
			if math.Abs(v) > 1e12 || math.IsNaN(v) {
				return true
			}
		}
		a, b := Pt(ax, ay), Pt(bx, by)
		return almost(a.Dist(b), b.Dist(a)) && almost(a.ManhattanDist(b), b.ManhattanDist(a))
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestTriangleInequalityProperty(t *testing.T) {
	f := func(ax, ay, bx, by, cx, cy float64) bool {
		// Guard against overflow-scale inputs where float error dominates.
		for _, v := range []float64{ax, ay, bx, by, cx, cy} {
			if math.Abs(v) > 1e12 || math.IsNaN(v) {
				return true
			}
		}
		a, b, c := Pt(ax, ay), Pt(bx, by), Pt(cx, cy)
		return a.Dist(c) <= a.Dist(b)+b.Dist(c)+1e-6
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestPathLength(t *testing.T) {
	p := Path{Pt(0, 0), Pt(3, 0), Pt(3, 4)}
	if got := p.Length(); !almost(got, 7) {
		t.Errorf("Length = %g, want 7", got)
	}
	if got := Path(nil).Length(); got != 0 {
		t.Errorf("nil path length = %g", got)
	}
	if got := (Path{Pt(1, 1)}).Length(); got != 0 {
		t.Errorf("single point length = %g", got)
	}
}

func TestPathAt(t *testing.T) {
	p := Path{Pt(0, 0), Pt(10, 0), Pt(10, 10)}
	cases := []struct {
		d    float64
		want Point
	}{
		{-1, Pt(0, 0)},
		{0, Pt(0, 0)},
		{5, Pt(5, 0)},
		{10, Pt(10, 0)},
		{15, Pt(10, 5)},
		{20, Pt(10, 10)},
		{99, Pt(10, 10)},
	}
	for _, c := range cases {
		if got := p.At(c.d); !got.Eq(c.want, 1e-9) {
			t.Errorf("At(%g) = %v, want %v", c.d, got, c.want)
		}
	}
}

func TestPathSplit(t *testing.T) {
	p := Path{Pt(0, 0), Pt(10, 0), Pt(10, 10)}
	a, b := p.Split(15)
	if !almost(a.Length(), 15) {
		t.Errorf("first half length = %g, want 15", a.Length())
	}
	if !almost(b.Length(), 5) {
		t.Errorf("second half length = %g, want 5", b.Length())
	}
	end, start := a[len(a)-1], b[0]
	if !end.Eq(start, 1e-9) {
		t.Errorf("halves do not share cut point: %v vs %v", end, start)
	}
	if !end.Eq(Pt(10, 5), 1e-9) {
		t.Errorf("cut point = %v, want (10,5)", end)
	}
}

func TestPathSplitEdgeCases(t *testing.T) {
	p := Path{Pt(0, 0), Pt(4, 0)}
	a, b := p.Split(0)
	if a.Length() != 0 || !almost(b.Length(), 4) {
		t.Errorf("Split(0) = %v | %v", a, b)
	}
	a, b = p.Split(100)
	if !almost(a.Length(), 4) || b.Length() != 0 {
		t.Errorf("Split(beyond) = %v | %v", a, b)
	}
	a, b = Path(nil).Split(1)
	if a != nil || b != nil {
		t.Errorf("Split on nil = %v | %v", a, b)
	}
}

func TestPathSplitConservesLengthProperty(t *testing.T) {
	f := func(d float64) bool {
		p := Path{Pt(0, 0), Pt(7, 0), Pt(7, 3), Pt(2, 3)}
		d = math.Mod(math.Abs(d), p.Length()+2)
		a, b := p.Split(d)
		return almost(a.Length()+b.Length(), p.Length())
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestRectBasics(t *testing.T) {
	r := Rect{Min: Pt(0, 0), Max: Pt(4, 2)}
	if r.Width() != 4 || r.Height() != 2 || r.Area() != 8 {
		t.Errorf("rect dims wrong: %v", r)
	}
	if !almost(r.AspectRatio(), 2) {
		t.Errorf("AspectRatio = %g, want 2", r.AspectRatio())
	}
}

func TestEmptyRect(t *testing.T) {
	e := EmptyRect()
	if !e.IsEmpty() {
		t.Fatal("EmptyRect not empty")
	}
	if e.Width() != 0 || e.Height() != 0 {
		t.Errorf("empty rect has extent")
	}
	r := Rect{Min: Pt(1, 1), Max: Pt(2, 2)}
	if got := e.Union(r); got != r {
		t.Errorf("empty Union r = %v", got)
	}
	if got := r.Union(e); got != r {
		t.Errorf("r Union empty = %v", got)
	}
}

func TestRectUnionExpand(t *testing.T) {
	a := Rect{Min: Pt(0, 0), Max: Pt(1, 1)}
	b := Rect{Min: Pt(2, -1), Max: Pt(3, 0.5)}
	u := a.Union(b)
	if u.Min != Pt(0, -1) || u.Max != Pt(3, 1) {
		t.Errorf("Union = %v", u)
	}
	x := a.Expand(0.5)
	if x.Min != Pt(-0.5, -0.5) || x.Max != Pt(1.5, 1.5) {
		t.Errorf("Expand = %v", x)
	}
}

func TestBoundingRect(t *testing.T) {
	r := BoundingRect(Pt(1, 5), Pt(-2, 0), Pt(3, 3))
	if r.Min != Pt(-2, 0) || r.Max != Pt(3, 5) {
		t.Errorf("BoundingRect = %v", r)
	}
	if !BoundingRect().IsEmpty() {
		t.Errorf("BoundingRect() should be empty")
	}
}

func TestRectilinear(t *testing.T) {
	p := Rectilinear(Pt(0, 0), Pt(3, 4))
	if len(p) != 3 {
		t.Fatalf("Rectilinear len = %d, want 3", len(p))
	}
	if !almost(p.Length(), 7) {
		t.Errorf("Rectilinear length = %g, want 7", p.Length())
	}
	if got := Rectilinear(Pt(1, 1), Pt(1, 1)); len(got) != 1 {
		t.Errorf("degenerate Rectilinear = %v", got)
	}
	if got := Rectilinear(Pt(0, 0), Pt(0, 5)); len(got) != 2 {
		t.Errorf("vertical Rectilinear = %v", got)
	}
	if got := Rectilinear(Pt(0, 0), Pt(5, 0)); len(got) != 2 {
		t.Errorf("horizontal Rectilinear = %v", got)
	}
}

func TestRectilinearLengthEqualsManhattanProperty(t *testing.T) {
	f := func(ax, ay, bx, by float64) bool {
		for _, v := range []float64{ax, ay, bx, by} {
			if math.Abs(v) > 1e12 || math.IsNaN(v) {
				return true
			}
		}
		a, b := Pt(ax, ay), Pt(bx, by)
		return almost(Rectilinear(a, b).Length(), a.ManhattanDist(b))
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestAspectRatioDegenerate(t *testing.T) {
	r := Rect{Min: Pt(0, 0), Max: Pt(5, 0)}
	if !math.IsInf(r.AspectRatio(), 1) {
		t.Errorf("degenerate aspect ratio = %g, want +Inf", r.AspectRatio())
	}
}
