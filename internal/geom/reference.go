package geom

// The arc-length arithmetic of a wire path: clocktree's allocation-free
// buffer insertion (Buffered) cuts a node's wire in place exactly as
// Split would, summing segments in Length's order and placing the cut
// with At's arithmetic, and its tests check it against these.

// Length returns the total polyline length of the path.
func (p Path) Length() float64 {
	var sum float64
	for i := 1; i < len(p); i++ {
		sum += p[i].Dist(p[i-1])
	}
	return sum
}

// At returns the point at arc-length distance d along the path, clamped to
// the path's endpoints.
func (p Path) At(d float64) Point {
	if len(p) == 0 {
		return Point{}
	}
	if d <= 0 {
		return p[0]
	}
	for i := 1; i < len(p); i++ {
		seg := p[i].Dist(p[i-1])
		if d <= seg && seg > 0 {
			t := d / seg
			return Point{
				X: p[i-1].X + t*(p[i].X-p[i-1].X),
				Y: p[i-1].Y + t*(p[i].Y-p[i-1].Y),
			}
		}
		d -= seg
	}
	return p[len(p)-1]
}

// Split cuts the path at arc length d and returns the two halves. Both
// halves share the cut point. d is clamped to [0, Length].
func (p Path) Split(d float64) (Path, Path) {
	if len(p) == 0 {
		return nil, nil
	}
	if d <= 0 {
		return Path{p[0]}, append(Path(nil), p...)
	}
	for i := 1; i < len(p); i++ {
		seg := p[i].Dist(p[i-1])
		if d < seg {
			cut := p.At(p[:i+1].Length() - seg + d)
			// Rebuild explicitly to keep both halves simple polylines.
			first := append(append(Path(nil), p[:i]...), cut)
			second := append(Path{cut}, p[i:]...)
			return first, second
		}
		d -= seg
	}
	return append(Path(nil), p...), Path{p[len(p)-1]}
}
