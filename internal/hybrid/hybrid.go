// Package hybrid implements the synchronization scheme of Section VI and
// Fig. 8: the layout is broken into bounded-size *elements*, each with a
// local clock distribution node; the element controllers synchronize with
// their neighbors through a self-timed handshake network and then
// distribute a clock tick to the cells of their element. Because all
// synchronization paths are local, the cycle time is a constant
// independent of array size — exactly what Section V-B proves a global
// clock cannot achieve for two-dimensional arrays under the summation
// model. Subordinating the local clocks to the handshake network also
// rules out metastability: an element stops its clock synchronously and
// has it restarted asynchronously.
package hybrid

import (
	"fmt"
	"math"

	"repro/internal/array"
	"repro/internal/comm"
)

// Config holds the hybrid scheme's timing parameters.
type Config struct {
	// ElementSize is the side length (in cell pitches) of the square
	// layout tiles that become elements. It bounds every element to at
	// most ElementSize² cells, keeping local clock distribution constant.
	ElementSize float64
	// Handshake is the time for an element controller to complete the
	// req/ack exchange with its neighbors before releasing a tick.
	Handshake float64
	// LocalDistribution is the time for a released tick to reach every
	// cell of the element from its local clock node (bounded because
	// elements are bounded).
	LocalDistribution float64
	// CellDelay and HoldDelay are the cells' electrical parameters, as in
	// array.Timing.
	CellDelay, HoldDelay float64
}

// Validate reports the first parameter New and WithConfig would reject.
func (c Config) Validate() error {
	if c.ElementSize <= 0 {
		return fmt.Errorf("hybrid: ElementSize must be positive, got %g", c.ElementSize)
	}
	if c.Handshake <= 0 {
		return fmt.Errorf("hybrid: Handshake must be positive, got %g", c.Handshake)
	}
	if c.LocalDistribution < 0 {
		return fmt.Errorf("hybrid: LocalDistribution must be ≥ 0, got %g", c.LocalDistribution)
	}
	if c.HoldDelay <= 0 || c.HoldDelay > c.CellDelay {
		return fmt.Errorf("hybrid: need 0 < HoldDelay ≤ CellDelay, got hold=%g cell=%g",
			c.HoldDelay, c.CellDelay)
	}
	return nil
}

// WaveCost is the constant per-wave cost of an element: handshake, local
// distribution, and cell compute/propagate time. The hybrid cycle time
// converges to this value regardless of array size.
func (c Config) WaveCost() float64 {
	return c.Handshake + c.LocalDistribution + c.CellDelay
}

// System is a partition of an array into elements plus the handshake
// adjacency between them.
type System struct {
	g         *comm.Graph
	cfg       Config
	elementOf []int // cell → element index
	elements  [][]comm.CellID
	adj       [][]int // element → neighboring elements (deduplicated)
	hostAdj   []int   // elements containing cells with host edges
	kernel    *Kernel // flattened adjacency + arenas, shared across configs
}

// New tiles g's layout into ElementSize × ElementSize squares and builds
// the element handshake network: two elements are neighbors iff some pair
// of their cells communicates.
func New(g *comm.Graph, cfg Config) (*System, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if g.NumCells() == 0 {
		return nil, fmt.Errorf("hybrid: empty graph")
	}
	bounds := g.Bounds()
	cols := int(math.Ceil(bounds.Width() / cfg.ElementSize))
	if cols < 1 {
		cols = 1
	}
	tileOf := func(p comm.Cell) int {
		ex := int((p.Pos.X - bounds.Min.X) / cfg.ElementSize)
		ey := int((p.Pos.Y - bounds.Min.Y) / cfg.ElementSize)
		return ey*cols + ex
	}
	// Compact tile ids to dense element indices.
	tileToElem := make(map[int]int)
	s := &System{g: g, cfg: cfg, elementOf: make([]int, g.NumCells())}
	for id := comm.CellID(0); int(id) < g.NumCells(); id++ {
		c := g.Cell(id)
		tile := tileOf(c)
		e, ok := tileToElem[tile]
		if !ok {
			e = len(s.elements)
			tileToElem[tile] = e
			s.elements = append(s.elements, nil)
		}
		s.elementOf[c.ID] = e
		s.elements[e] = append(s.elements[e], c.ID)
	}
	s.adj = make([][]int, len(s.elements))
	adjSet := make(map[[2]int]bool)
	c := g.PairIndex().Cursor(0)
	for pa, pb, ok := c.Next(); ok; pa, pb, ok = c.Next() {
		a, b := s.elementOf[pa], s.elementOf[pb]
		if a == b {
			continue
		}
		k := [2]int{a, b}
		if a > b {
			k = [2]int{b, a}
		}
		if !adjSet[k] {
			adjSet[k] = true
			s.adj[a] = append(s.adj[a], b)
			s.adj[b] = append(s.adj[b], a)
		}
	}
	hostSeen := make(map[int]bool)
	for _, e := range g.HostEdges() {
		cell := e.To
		if cell == comm.Host {
			cell = e.From
		}
		el := s.elementOf[cell]
		if !hostSeen[el] {
			hostSeen[el] = true
			s.hostAdj = append(s.hostAdj, el)
		}
	}
	s.kernel = newKernel(len(s.elements), s.adj, s.hostAdj)
	return s, nil
}

// WithConfig returns a System sharing s's partition, adjacency, and
// kernel but carrying different timing parameters. The partition
// depends on ElementSize, so the new config must keep it; everything
// else may change freely. This is what lets one kernel build amortize
// across a parameter sweep: the batch /v1/simulate endpoint partitions
// once and reuses the kernel for every config in the batch.
func (s *System) WithConfig(cfg Config) (*System, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if cfg.ElementSize != s.cfg.ElementSize {
		return nil, fmt.Errorf("hybrid: WithConfig cannot change ElementSize (%g → %g); the partition depends on it",
			s.cfg.ElementSize, cfg.ElementSize)
	}
	c := *s
	c.cfg = cfg
	return &c, nil
}

// Graph returns the communication graph the system partitions.
func (s *System) Graph() *comm.Graph { return s.g }

// NumElements returns the number of elements in the partition.
func (s *System) NumElements() int { return len(s.elements) }

// MaxElementCells returns the largest element's cell count — bounded by
// ElementSize² as long as cells occupy unit area (A2).
func (s *System) MaxElementCells() int {
	m := 0
	for _, cells := range s.elements {
		if len(cells) > m {
			m = len(cells)
		}
	}
	return m
}

// ElementOf returns the element index of a cell.
func (s *System) ElementOf(c comm.CellID) int { return s.elementOf[c] }

// FiringTimes computes the handshake-network firing recurrence for the
// given number of waves: element e completes wave k at
//
//	F(e,k) = max( F(e,k−1), max over neighbors e' of F(e',k−1) ) + WaveCost,
//
// with the host participating as a virtual element adjacent to every
// boundary element. The returned slice is indexed [wave][element]; the
// final entry of each wave row is the host's completion time.
func (s *System) FiringTimes(waves int) [][]float64 {
	return s.FiringTimesWithCost(waves, nil)
}

// FiringTimesWithCost is FiringTimes with per-(element, wave) extra cost
// injected by extra (nil means none; the host is element index
// NumElements()). It models transient stalls — a slow fabrication corner,
// a momentary local fault — and exposes the hybrid scheme's locality:
// a one-shot stall of X time units delays element e's neighbors only
// from the next wave on, spreads at one element hop per wave, and never
// grows beyond X.
// The pre-kernel row-by-row implementation is retained as
// ReferenceFiringTimesWithCost; the kernel path agrees with it bit for
// bit (the differential tests and the propcheck invariant
// "hybrid-kernel-matches-reference" hold it to tolerance 0).
func (s *System) FiringTimesWithCost(waves int, extra func(element, wave int) float64) [][]float64 {
	return s.kernel.firingTimes(waves, s.cfg.WaveCost(), extra)
}

// ElementHops returns the hop distances from element src over the full
// handshake network — element adjacency plus the host node, which links
// every boundary element it talks to (the host is the last index of the
// returned slice). Unreachable nodes get -1. Used to check
// stall-propagation locality.
func (s *System) ElementHops(src int) []int {
	ne := len(s.elements)
	dist := make([]int, ne+1)
	for i := range dist {
		dist[i] = -1
	}
	dist[src] = 0
	queue := []int{src}
	neighbors := func(v int) []int {
		if v == ne {
			return s.hostAdj
		}
		out := append([]int(nil), s.adj[v]...)
		for _, h := range s.hostAdj {
			if h == v {
				out = append(out, ne)
				break
			}
		}
		return out
	}
	for len(queue) > 0 {
		e := queue[0]
		queue = queue[1:]
		for _, o := range neighbors(e) {
			if dist[o] < 0 {
				dist[o] = dist[e] + 1
				queue = append(queue, o)
			}
		}
	}
	return dist
}

// CycleTime returns the asymptotic per-wave interval of the handshake
// network — the hybrid system's effective clock period. It equals
// WaveCost regardless of the number of elements.
// CycleTime runs on the kernel's ping-pong arena rows: steady state
// allocates nothing.
func (s *System) CycleTime(waves int) float64 {
	if waves < 1 {
		waves = 1
	}
	return s.kernel.cycleTime(waves, s.cfg.WaveCost())
}

// Schedule derives an array.Schedule from the firing recurrence, suitable
// for running a machine on g under hybrid synchronization:
//
//   - cells of element e latch cycle k at F(e,k−1) + Handshake +
//     LocalDistribution, plus a one-δ startup shift (within an element
//     the local tree is tuned equidistant, so local skew is zero);
//   - host inputs are handshaked: the cycle-k value toward a boundary
//     cell starts driving at that cell's previous latch (the ack), so it
//     is stable one wave before it is needed;
//   - host outputs are latched a half-handshake after they stabilize.
func (s *System) Schedule(waves int) array.Schedule {
	return s.ScheduleFrom(s.FiringTimes(waves))
}

// Run executes machine m (whose graph must be s's graph) for the given
// number of cycles under hybrid synchronization.
func (s *System) Run(m *array.Machine, cycles int) (*array.Trace, error) {
	if m.Graph() != s.g {
		return nil, fmt.Errorf("hybrid: machine graph %q is not the partitioned graph %q",
			m.Graph().Name, s.g.Name)
	}
	timing := array.Timing{Period: 1, CellDelay: s.cfg.CellDelay, HoldDelay: s.cfg.HoldDelay}
	return m.RunScheduled(cycles, timing, s.Schedule(cycles))
}
