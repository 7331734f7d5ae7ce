// Package geom provides the planar geometry primitives used by layouts of
// communication graphs and clock trees: points, polyline wire paths,
// rectangles, and area accounting.
//
// The unit of length is one cell pitch: per assumption A2 of the paper a
// cell occupies unit area, and per A3 a wire has unit width. Wire delay is
// treated as proportional to wire length (Section II: "we choose to treat
// them together as a 'distance' metric").
package geom

import (
	"fmt"
	"math"
)

// Point is a location in the plane, in cell-pitch units.
type Point struct {
	X, Y float64
}

// Pt is shorthand for Point{x, y}.
func Pt(x, y float64) Point { return Point{x, y} }

// Add returns p translated by q.
func (p Point) Add(q Point) Point { return Point{p.X + q.X, p.Y + q.Y} }

// Sub returns the vector from q to p.
func (p Point) Sub(q Point) Point { return Point{p.X - q.X, p.Y - q.Y} }

// Scale returns p scaled by k about the origin.
func (p Point) Scale(k float64) Point { return Point{p.X * k, p.Y * k} }

// Dist returns the Euclidean distance between p and q.
func (p Point) Dist(q Point) float64 {
	return math.Hypot(p.X-q.X, p.Y-q.Y)
}

// ManhattanDist returns the L1 distance between p and q. Wires in VLSI
// layouts are rectilinear, so Manhattan distance is the natural wire-length
// metric for point-to-point routes.
func (p Point) ManhattanDist(q Point) float64 {
	return math.Abs(p.X-q.X) + math.Abs(p.Y-q.Y)
}

// String implements fmt.Stringer.
func (p Point) String() string { return fmt.Sprintf("(%g,%g)", p.X, p.Y) }

// Eq reports whether p and q coincide to within tol.
func (p Point) Eq(q Point, tol float64) bool {
	return math.Abs(p.X-q.X) <= tol && math.Abs(p.Y-q.Y) <= tol
}

// Path is a polyline wire route through the plane. A nil or single-point
// Path has zero length.
type Path []Point

// Rect is an axis-aligned rectangle. Min is the lower-left corner and Max
// the upper-right; a Rect with Max.X < Min.X is treated as empty.
type Rect struct {
	Min, Max Point
}

// EmptyRect returns a rectangle that behaves as the identity for Union.
func EmptyRect() Rect {
	inf := math.Inf(1)
	return Rect{Min: Point{inf, inf}, Max: Point{-inf, -inf}}
}

// IsEmpty reports whether r contains no points.
func (r Rect) IsEmpty() bool { return r.Max.X < r.Min.X || r.Max.Y < r.Min.Y }

// Width returns the horizontal extent of r (0 if empty).
func (r Rect) Width() float64 {
	if r.IsEmpty() {
		return 0
	}
	return r.Max.X - r.Min.X
}

// Height returns the vertical extent of r (0 if empty).
func (r Rect) Height() float64 {
	if r.IsEmpty() {
		return 0
	}
	return r.Max.Y - r.Min.Y
}

// Area returns the area of r.
func (r Rect) Area() float64 { return r.Width() * r.Height() }

// AspectRatio returns max(w,h)/min(w,h), or +Inf for degenerate rectangles.
// The paper's Theorem 2 applies to layouts of bounded aspect ratio.
func (r Rect) AspectRatio() float64 {
	w, h := r.Width(), r.Height()
	lo, hi := math.Min(w, h), math.Max(w, h)
	if lo == 0 {
		return math.Inf(1)
	}
	return hi / lo
}

// Union returns the smallest rectangle containing both r and s.
func (r Rect) Union(s Rect) Rect {
	if r.IsEmpty() {
		return s
	}
	if s.IsEmpty() {
		return r
	}
	return Rect{
		Min: Point{math.Min(r.Min.X, s.Min.X), math.Min(r.Min.Y, s.Min.Y)},
		Max: Point{math.Max(r.Max.X, s.Max.X), math.Max(r.Max.Y, s.Max.Y)},
	}
}

// Expand returns r grown by margin on every side.
func (r Rect) Expand(margin float64) Rect {
	if r.IsEmpty() {
		return r
	}
	return Rect{
		Min: Point{r.Min.X - margin, r.Min.Y - margin},
		Max: Point{r.Max.X + margin, r.Max.Y + margin},
	}
}

// BoundingRect returns the smallest rectangle containing all the points.
func BoundingRect(pts ...Point) Rect {
	r := EmptyRect()
	for _, p := range pts {
		r = r.Union(Rect{Min: p, Max: p})
	}
	return r
}

// Rectilinear returns an L-shaped Manhattan route from a to b, turning at
// the corner (b.X, a.Y). For a == b it returns the single point.
func Rectilinear(a, b Point) Path {
	if a.Eq(b, 0) {
		return Path{a}
	}
	corner := Point{b.X, a.Y}
	if corner.Eq(a, 0) || corner.Eq(b, 0) {
		return Path{a, b}
	}
	return Path{a, corner, b}
}
