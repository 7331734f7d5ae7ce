// Package viz renders layouts as SVG: cells as squares, communication
// edges as thin lines, clock trees as heavy polylines with buffer dots —
// the same visual vocabulary as the paper's Figs. 3–8. The renderer is
// deliberately minimal (stdlib only) but produces self-contained files
// suitable for documentation.
package viz

import (
	"fmt"
	"io"
	"math"
	"strings"

	"repro/internal/clocktree"
	"repro/internal/comm"
	"repro/internal/geom"
	"repro/internal/hybrid"
)

// Style holds the renderer's appearance parameters.
type Style struct {
	// Scale is the number of SVG pixels per cell pitch.
	Scale float64
	// Margin is the padding around the drawing, in pixels.
	Margin float64
	// CellFill, CommStroke, ClockStroke, BufferFill, ElementFill are CSS
	// colors.
	CellFill    string
	CommStroke  string
	ClockStroke string
	BufferFill  string
	ElementFill string
}

// DefaultStyle returns the paper-like appearance: light cells, thin
// communication edges, heavy clock lines.
func DefaultStyle() Style {
	return Style{
		Scale:       28,
		Margin:      20,
		CellFill:    "#e8eef7",
		CommStroke:  "#9aa7b8",
		ClockStroke: "#1a3d6d",
		BufferFill:  "#c2483b",
		ElementFill: "#f3e9d2",
	}
}

// Drawing accumulates SVG elements over a layout's coordinate system.
type Drawing struct {
	style  Style
	bounds geom.Rect
	body   strings.Builder
}

// NewDrawing creates a drawing covering the given layout bounds.
func NewDrawing(bounds geom.Rect, style Style) *Drawing {
	if style.Scale <= 0 {
		style = DefaultStyle()
	}
	return &Drawing{style: style, bounds: bounds}
}

// x and y map layout coordinates to SVG pixels (y grows upward in the
// layout, downward in SVG).
func (d *Drawing) x(v float64) float64 { return d.style.Margin + (v-d.bounds.Min.X)*d.style.Scale }
func (d *Drawing) y(v float64) float64 { return d.style.Margin + (d.bounds.Max.Y-v)*d.style.Scale }

// Graph draws a communication graph: unit squares at cell centers and
// thin lines for communication edges (host edges are dashed stubs).
func (d *Drawing) Graph(g *comm.Graph) {
	for ei := 0; ei < g.NumEdges(); ei++ {
		e := g.Edge(ei)
		if e.From == comm.Host || e.To == comm.Host {
			continue
		}
		a, b := g.Cell(e.From).Pos, g.Cell(e.To).Pos
		fmt.Fprintf(&d.body,
			`<line x1="%.1f" y1="%.1f" x2="%.1f" y2="%.1f" stroke="%s" stroke-width="1"/>`+"\n",
			d.x(a.X), d.y(a.Y), d.x(b.X), d.y(b.Y), d.style.CommStroke)
	}
	half := 0.35 * d.style.Scale
	for id := comm.CellID(0); int(id) < g.NumCells(); id++ {
		c := g.Cell(id)
		fmt.Fprintf(&d.body,
			`<rect x="%.1f" y="%.1f" width="%.1f" height="%.1f" fill="%s" stroke="#5b6775" stroke-width="1" rx="2"/>`+"\n",
			d.x(c.Pos.X)-half, d.y(c.Pos.Y)-half, 2*half, 2*half, d.style.CellFill)
	}
}

// ClockTree draws a clock tree: heavy polylines along each wire and dots
// at buffer nodes.
func (d *Drawing) ClockTree(t *clocktree.Tree) {
	for v := 0; v < t.NumNodes(); v++ {
		id := clocktree.NodeID(v)
		wire := t.Wire(id)
		if len(wire) < 2 {
			continue
		}
		var pts []string
		for _, p := range wire {
			pts = append(pts, fmt.Sprintf("%.1f,%.1f", d.x(p.X), d.y(p.Y)))
		}
		fmt.Fprintf(&d.body,
			`<polyline points="%s" fill="none" stroke="%s" stroke-width="2.5" stroke-linecap="round"/>`+"\n",
			strings.Join(pts, " "), d.style.ClockStroke)
	}
	for v := 0; v < t.NumNodes(); v++ {
		node := t.Node(clocktree.NodeID(v))
		if node.Buffer {
			fmt.Fprintf(&d.body,
				`<circle cx="%.1f" cy="%.1f" r="3" fill="%s"/>`+"\n",
				d.x(node.Pos.X), d.y(node.Pos.Y), d.style.BufferFill)
		}
	}
	root := t.Node(t.Root())
	fmt.Fprintf(&d.body,
		`<circle cx="%.1f" cy="%.1f" r="5" fill="%s" stroke="white" stroke-width="1.5"/>`+"\n",
		d.x(root.Pos.X), d.y(root.Pos.Y), d.style.ClockStroke)
}

// HybridElements shades each element's bounding tile and draws the
// handshake network between element centroids, reproducing Fig. 8's
// heavy-line/black-box vocabulary.
func (d *Drawing) HybridElements(g *comm.Graph, sys *hybrid.System) {
	centers := make([]geom.Point, sys.NumElements())
	counts := make([]int, sys.NumElements())
	boxes := make([]geom.Rect, sys.NumElements())
	for i := range boxes {
		boxes[i] = geom.EmptyRect()
	}
	for id := comm.CellID(0); int(id) < g.NumCells(); id++ {
		c := g.Cell(id)
		e := sys.ElementOf(c.ID)
		centers[e] = centers[e].Add(c.Pos)
		counts[e]++
		boxes[e] = boxes[e].Union(geom.Rect{Min: c.Pos, Max: c.Pos})
	}
	for e := range centers {
		if counts[e] > 0 {
			centers[e] = centers[e].Scale(1 / float64(counts[e]))
		}
		box := boxes[e].Expand(0.45)
		fmt.Fprintf(&d.body,
			`<rect x="%.1f" y="%.1f" width="%.1f" height="%.1f" fill="%s" stroke="#b09a5e" stroke-width="1" rx="4"/>`+"\n",
			d.x(box.Min.X), d.y(box.Max.Y),
			box.Width()*d.style.Scale, box.Height()*d.style.Scale, d.style.ElementFill)
	}
	// Handshake links between adjacent elements (deduplicated pairs).
	seen := map[[2]int]bool{}
	c := g.PairIndex().Cursor(0)
	for pa, pb, ok := c.Next(); ok; pa, pb, ok = c.Next() {
		a, b := sys.ElementOf(pa), sys.ElementOf(pb)
		if a == b {
			continue
		}
		k := [2]int{a, b}
		if a > b {
			k = [2]int{b, a}
		}
		if seen[k] {
			continue
		}
		seen[k] = true
		fmt.Fprintf(&d.body,
			`<line x1="%.1f" y1="%.1f" x2="%.1f" y2="%.1f" stroke="#5c4a1e" stroke-width="3" stroke-dasharray="6,3"/>`+"\n",
			d.x(centers[a].X), d.y(centers[a].Y), d.x(centers[b].X), d.y(centers[b].Y))
	}
	for e := range centers {
		fmt.Fprintf(&d.body,
			`<rect x="%.1f" y="%.1f" width="8" height="8" fill="#2b2b2b"/>`+"\n",
			d.x(centers[e].X)-4, d.y(centers[e].Y)-4)
	}
}

// Label places a caption at the top-left of the drawing.
func (d *Drawing) Label(text string) {
	fmt.Fprintf(&d.body,
		`<text x="%.1f" y="%.1f" font-family="sans-serif" font-size="13" fill="#333">%s</text>`+"\n",
		d.style.Margin, d.style.Margin*0.7, escape(text))
}

func escape(s string) string {
	r := strings.NewReplacer("&", "&amp;", "<", "&lt;", ">", "&gt;")
	return r.Replace(s)
}

// WriteSVG emits the complete SVG document.
func (d *Drawing) WriteSVG(w io.Writer) error {
	width := math.Max(d.bounds.Width(), 1)*d.style.Scale + 2*d.style.Margin
	height := math.Max(d.bounds.Height(), 1)*d.style.Scale + 2*d.style.Margin
	_, err := fmt.Fprintf(w,
		`<svg xmlns="http://www.w3.org/2000/svg" width="%.0f" height="%.0f" viewBox="0 0 %.0f %.0f">`+"\n"+
			`<rect width="100%%" height="100%%" fill="white"/>`+"\n%s</svg>\n",
		width, height, width, height, d.body.String())
	return err
}

// RenderGraphWithClock is a convenience wrapper: one SVG with the graph,
// its clock tree, and a caption.
func RenderGraphWithClock(w io.Writer, g *comm.Graph, t *clocktree.Tree, caption string) error {
	bounds := g.Bounds()
	if t != nil {
		bounds = bounds.Union(t.Bounds())
	}
	d := NewDrawing(bounds.Expand(0.5), DefaultStyle())
	if t != nil {
		d.ClockTree(t)
	}
	d.Graph(g)
	if caption != "" {
		d.Label(caption)
	}
	return d.WriteSVG(w)
}

// RenderHybrid is a convenience wrapper for Fig. 8-style drawings.
func RenderHybrid(w io.Writer, g *comm.Graph, sys *hybrid.System, caption string) error {
	d := NewDrawing(g.Bounds().Expand(0.8), DefaultStyle())
	d.HybridElements(g, sys)
	d.Graph(g)
	if caption != "" {
		d.Label(caption)
	}
	return d.WriteSVG(w)
}
