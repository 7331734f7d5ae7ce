// Package array provides the execution machinery for processor arrays:
// the ideally synchronized lock-step semantics of assumption A1, and a
// continuous-time clocked implementation in which each cell ticks at its
// own clock arrival time. The clocked runner models register setup/hold
// behavior faithfully — an output wire carries a garbage value between a
// cell's earliest output change and its latest settling time, so driving
// the array with too small a period or too much skew corrupts data
// exactly as real hardware would. Comparing clocked output traces against
// the ideal trace turns assumption A5's clock-period formula σ + δ + τ
// into a measurable quantity (experiment E9).
package array

import (
	"fmt"
	"math"

	"repro/internal/comm"
	"repro/internal/des"
)

// Value is the data type flowing on communication edges.
type Value = float64

// Logic is one cell's combinational step function: it consumes the value
// latched on each in-edge (keyed by edge label) and produces values for
// its out-edges (keyed by edge label; missing keys emit 0).
type Logic interface {
	Step(in map[string]Value) map[string]Value
}

// LogicFunc adapts a function to the Logic interface.
type LogicFunc func(in map[string]Value) map[string]Value

// Step implements Logic.
func (f LogicFunc) Step(in map[string]Value) map[string]Value { return f(in) }

// Stream supplies the host's input value for each cycle.
type Stream func(cycle int) Value

// SliceStream returns a Stream that yields vals in order and pad after
// they are exhausted (and for negative cycles).
func SliceStream(vals []Value, pad Value) Stream {
	return func(cycle int) Value {
		if cycle < 0 || cycle >= len(vals) {
			return pad
		}
		return vals[cycle]
	}
}

// ZeroStream yields 0 forever.
func ZeroStream(int) Value { return 0 }

// HostIn identifies a host→cell input edge by target cell and label.
type HostIn struct {
	To    comm.CellID
	Label string
}

// HostOut identifies a cell→host output edge by source cell and label.
type HostOut struct {
	From  comm.CellID
	Label string
}

// Trace is the host-visible output of a run: for each host output edge,
// the sequence of values produced, indexed by the cycle in which the
// producing cell emitted them.
type Trace struct {
	Out    map[HostOut][]Value
	Cycles int
}

// Equal reports whether two traces agree on every output within tol.
// NaN values (corrupted data) never compare equal.
func (t *Trace) Equal(o *Trace, tol float64) bool {
	if len(t.Out) != len(o.Out) || t.Cycles != o.Cycles {
		return false
	}
	for k, vs := range t.Out {
		os, ok := o.Out[k]
		if !ok || len(vs) != len(os) {
			return false
		}
		for i := range vs {
			if math.IsNaN(vs[i]) || math.IsNaN(os[i]) || math.Abs(vs[i]-os[i]) > tol {
				return false
			}
		}
	}
	return true
}

// Machine binds a communication graph to per-cell logic and host input
// streams, ready to run under any synchronization discipline.
type Machine struct {
	g        *comm.Graph
	logicFor func(comm.CellID) Logic
	inputs   map[HostIn]Stream

	inEdges  [][]int // per cell, indices into g.Edges with To == cell
	outEdges [][]int // per cell, indices into g.Edges with From == cell
	hostIn   []int   // edge indices with From == Host
	hostOut  []int   // edge indices with To == Host
}

// New validates the wiring and returns a Machine. logicFor is called once
// per cell; inputs must provide a stream for every host input edge.
func New(g *comm.Graph, logicFor func(comm.CellID) Logic, inputs map[HostIn]Stream) (*Machine, error) {
	n := g.NumCells()
	m := &Machine{
		g:        g,
		logicFor: logicFor,
		inputs:   inputs,
		inEdges:  make([][]int, n),
		outEdges: make([][]int, n),
	}
	for id := 0; id < n; id++ {
		if logicFor(comm.CellID(id)) == nil {
			return nil, fmt.Errorf("array: nil logic for cell %d", id)
		}
	}
	inLabels := make(map[comm.CellID]map[string]bool)
	outLabels := make(map[comm.CellID]map[string]bool)
	addLabel := func(set map[comm.CellID]map[string]bool, c comm.CellID, label, kind string) error {
		if set[c] == nil {
			set[c] = make(map[string]bool)
		}
		if set[c][label] {
			return fmt.Errorf("array: cell %d has duplicate %s label %q", c, kind, label)
		}
		set[c][label] = true
		return nil
	}
	for i := 0; i < g.NumEdges(); i++ {
		e := g.Edge(i)
		switch {
		case e.From == comm.Host:
			m.hostIn = append(m.hostIn, i)
			if _, ok := inputs[HostIn{To: e.To, Label: e.Label}]; !ok {
				return nil, fmt.Errorf("array: no input stream for host edge to cell %d label %q", e.To, e.Label)
			}
			if err := addLabel(inLabels, e.To, e.Label, "input"); err != nil {
				return nil, err
			}
			m.inEdges[e.To] = append(m.inEdges[e.To], i)
		case e.To == comm.Host:
			m.hostOut = append(m.hostOut, i)
			if err := addLabel(outLabels, e.From, e.Label, "output"); err != nil {
				return nil, err
			}
			m.outEdges[e.From] = append(m.outEdges[e.From], i)
		default:
			if err := addLabel(inLabels, e.To, e.Label, "input"); err != nil {
				return nil, err
			}
			if err := addLabel(outLabels, e.From, e.Label, "output"); err != nil {
				return nil, err
			}
			m.inEdges[e.To] = append(m.inEdges[e.To], i)
			m.outEdges[e.From] = append(m.outEdges[e.From], i)
		}
	}
	return m, nil
}

// Graph returns the machine's communication graph.
func (m *Machine) Graph() *comm.Graph { return m.g }

// NumCells returns the number of cells.
func (m *Machine) NumCells() int { return m.g.NumCells() }

// freshLogic instantiates one Logic per cell. Cell logic may be stateful
// (FIR delay registers, matmul accumulators), so every run builds fresh
// instances — runs never contaminate each other.
func (m *Machine) freshLogic() []Logic {
	logic := make([]Logic, m.NumCells())
	for id := range logic {
		logic[id] = m.logicFor(comm.CellID(id))
	}
	return logic
}

// newTrace allocates an empty trace for this machine.
func (m *Machine) newTrace(cycles int) *Trace {
	t := &Trace{Out: make(map[HostOut][]Value, len(m.hostOut)), Cycles: cycles}
	for _, ei := range m.hostOut {
		e := m.g.Edge(ei)
		t.Out[HostOut{From: e.From, Label: e.Label}] = make([]Value, 0, cycles)
	}
	return t
}

// RunIdeal executes the array in perfect lock step (A1) for the given
// number of cycles and returns the host trace. Edge registers start at 0.
func (m *Machine) RunIdeal(cycles int) (*Trace, error) {
	if cycles < 1 {
		return nil, fmt.Errorf("array: cycles must be ≥ 1, got %d", cycles)
	}
	logic := m.freshLogic()
	wires := make([]Value, m.g.NumEdges())
	next := make([]Value, m.g.NumEdges())
	trace := m.newTrace(cycles)
	in := make(map[string]Value)
	for k := 0; k < cycles; k++ {
		// Host inputs for this cycle become visible before cells read.
		for _, ei := range m.hostIn {
			e := m.g.Edge(ei)
			wires[ei] = m.inputs[HostIn{To: e.To, Label: e.Label}](k)
		}
		copy(next, wires)
		for id := 0; id < m.NumCells(); id++ {
			for k := range in {
				delete(in, k)
			}
			for _, ei := range m.inEdges[id] {
				in[m.g.Edge(ei).Label] = wires[ei]
			}
			out := logic[id].Step(in)
			for _, ei := range m.outEdges[id] {
				next[ei] = out[m.g.Edge(ei).Label] // missing labels yield 0
			}
		}
		wires, next = next, wires
		for _, ei := range m.hostOut {
			e := m.g.Edge(ei)
			key := HostOut{From: e.From, Label: e.Label}
			trace.Out[key] = append(trace.Out[key], wires[ei])
		}
	}
	return trace, nil
}

// Timing holds the clocked implementation's electrical parameters.
type Timing struct {
	// Period is the clock period (A5's σ + δ + τ budget).
	Period float64
	// CellDelay δ is the time from a cell's clock tick until its outputs
	// are computed, propagated, and stable at the receiving cell.
	CellDelay float64
	// HoldDelay is the contamination delay: the earliest time after a
	// tick at which an output wire may start changing. It must be
	// positive and at most CellDelay.
	HoldDelay float64
}

func (t Timing) validate() error {
	if t.Period <= 0 {
		return fmt.Errorf("array: period must be positive, got %g", t.Period)
	}
	if t.HoldDelay <= 0 || t.HoldDelay > t.CellDelay {
		return fmt.Errorf("array: need 0 < HoldDelay ≤ CellDelay, got hold=%g cell=%g",
			t.HoldDelay, t.CellDelay)
	}
	return nil
}

// Offsets are clock arrival times: cell i's k-th tick occurs at
// (k+1)·Period + Cell[i]; the host's write tick k occurs at k·Period +
// Host (one period of lead, so cycle-k inputs are stable before cells
// latch cycle k), and its read tick k at (k+2)·Period + HostRead.
//
// The host has separate write- and read-port offsets because, with a
// pipelined spine clock, the host's input port taps the clock where the
// spine starts and its output port taps it where the spine returns — the
// folded layout of Fig. 5 brings both taps physically back to the host.
type Offsets struct {
	Cell     []float64
	Host     float64 // clock arrival at the host's write (input) port
	HostRead float64 // clock arrival at the host's read (output) port
}

// UniformOffsets returns zero skew offsets for n cells.
func UniformOffsets(n int) Offsets { return Offsets{Cell: make([]float64, n)} }

// MaxCommSkew returns the largest clock arrival difference between
// communicating cells (including the host, which communicates with cells
// on host edges) — the σ of assumption A5 for these offsets.
func (m *Machine) MaxCommSkew(off Offsets) float64 {
	var worst float64
	c := m.g.PairIndex().Cursor(0)
	for a, b, ok := c.Next(); ok; a, b, ok = c.Next() {
		if d := math.Abs(off.Cell[a] - off.Cell[b]); d > worst {
			worst = d
		}
	}
	for _, ei := range m.hostIn {
		if d := math.Abs(off.Cell[m.g.Edge(ei).To] - off.Host); d > worst {
			worst = d
		}
	}
	for _, ei := range m.hostOut {
		if d := math.Abs(off.Cell[m.g.Edge(ei).From] - off.HostRead); d > worst {
			worst = d
		}
	}
	return worst
}

// MaxDirectedSkew returns the largest amount by which a sender's clock
// leads its receiver's, over all directed edges (including host edges).
// The exact minimum working period is CellDelay + MaxDirectedSkew, while
// A5's σ + δ (using the symmetric MaxCommSkew) is the safe upper bound —
// the two coincide for bidirectional communication, and the paper notes
// that such exact formulas "exhibit the same type of growth".
func (m *Machine) MaxDirectedSkew(off Offsets) float64 {
	var worst float64
	for ei := 0; ei < m.g.NumEdges(); ei++ {
		e := m.g.Edge(ei)
		var from, to float64
		switch {
		case e.From == comm.Host:
			from, to = off.Host, off.Cell[e.To]
		case e.To == comm.Host:
			from, to = off.Cell[e.From], off.HostRead
		default:
			from, to = off.Cell[e.From], off.Cell[e.To]
		}
		if d := from - to; d > worst {
			worst = d
		}
	}
	return worst
}

// garbage is the value a wire carries while its driver is mid-transition;
// any latch that captures it corrupts the downstream computation visibly.
var garbage = math.NaN()

// Schedule gives absolute event times for every latch in a run: the
// clock-arrival times of each cell's cycles and the host's write/read
// moments. RunClocked uses a periodic schedule; the hybrid scheme of
// Section VI uses handshake-derived aperiodic schedules.
type Schedule struct {
	// CellTick returns the time cell c latches its cycle-k inputs.
	CellTick func(c comm.CellID, k int) float64
	// HostWrite returns the time the host begins driving the cycle-k
	// input value toward cell `to` (stable CellDelay later).
	HostWrite func(to comm.CellID, k int) float64
	// HostRead returns the time the host latches the cycle-k output of
	// cell `from`.
	HostRead func(from comm.CellID, k int) float64
}

// RunClocked executes the array as a globally clocked system for the
// given number of cycles: every cell latches its inputs and recomputes at
// each of its local clock ticks, outputs become garbage after HoldDelay
// and stable after CellDelay. If the period absorbs skew and delay (A5),
// the trace equals RunIdeal's; otherwise setup or hold failures corrupt
// it.
func (m *Machine) RunClocked(cycles int, timing Timing, off Offsets) (*Trace, error) {
	if err := timing.validate(); err != nil {
		return nil, err
	}
	if len(off.Cell) != m.NumCells() {
		return nil, fmt.Errorf("array: %d offsets for %d cells", len(off.Cell), m.NumCells())
	}
	minOff := math.Min(off.Host, off.HostRead)
	for _, o := range off.Cell {
		if o < minOff {
			minOff = o
		}
	}
	if minOff < 0 {
		return nil, fmt.Errorf("array: offsets must be non-negative (shift them), min is %g", minOff)
	}
	P := timing.Period
	sched := Schedule{
		CellTick:  func(c comm.CellID, k int) float64 { return float64(k+1)*P + off.Cell[c] },
		HostWrite: func(_ comm.CellID, k int) float64 { return float64(k)*P + off.Host },
		HostRead:  func(_ comm.CellID, k int) float64 { return float64(k+2)*P + off.HostRead },
	}
	return m.RunScheduled(cycles, timing, sched)
}

// RunScheduled executes the array with arbitrary per-cell latch times.
// The electrical model is the same as RunClocked's: after each latch a
// cell's output wires carry garbage from HoldDelay until CellDelay, so
// any schedule that violates setup or hold constraints corrupts the
// trace. Timing.Period is ignored.
func (m *Machine) RunScheduled(cycles int, timing Timing, sched Schedule) (*Trace, error) {
	if cycles < 1 {
		return nil, fmt.Errorf("array: cycles must be ≥ 1, got %d", cycles)
	}
	if timing.HoldDelay <= 0 || timing.HoldDelay > timing.CellDelay {
		return nil, fmt.Errorf("array: need 0 < HoldDelay ≤ CellDelay, got hold=%g cell=%g",
			timing.HoldDelay, timing.CellDelay)
	}
	if sched.CellTick == nil || sched.HostWrite == nil || sched.HostRead == nil {
		return nil, fmt.Errorf("array: schedule has nil components")
	}

	var sim des.Sim
	logic := m.freshLogic()
	wires := make([]Value, m.g.NumEdges())
	trace := m.newTrace(cycles)

	writeEdge := func(ei int, v Value, tick float64) {
		sim.At(tick+timing.HoldDelay, func() { wires[ei] = garbage })
		sim.At(tick+timing.CellDelay, func() { wires[ei] = v })
	}

	for k := 0; k < cycles; k++ {
		k := k
		// Host writes cycle-k inputs.
		for _, ei := range m.hostIn {
			ei := ei
			e := m.g.Edge(ei)
			t := sched.HostWrite(e.To, k)
			if t < 0 {
				return nil, fmt.Errorf("array: negative host write time %g (cell %d cycle %d)", t, e.To, k)
			}
			sim.At(t, func() {
				writeEdge(ei, m.inputs[HostIn{To: e.To, Label: e.Label}](k), sim.Now())
			})
		}
		// Cell latches for cycle k.
		for id := 0; id < m.NumCells(); id++ {
			id := id
			t := sched.CellTick(comm.CellID(id), k)
			if t < 0 {
				return nil, fmt.Errorf("array: negative tick time %g (cell %d cycle %d)", t, id, k)
			}
			sim.At(t, func() {
				in := make(map[string]Value, len(m.inEdges[id]))
				for _, ei := range m.inEdges[id] {
					in[m.g.Edge(ei).Label] = wires[ei]
				}
				out := logic[id].Step(in)
				for _, ei := range m.outEdges[id] {
					writeEdge(ei, out[m.g.Edge(ei).Label], sim.Now())
				}
			})
		}
		// Host latches cycle-k outputs.
		for _, ei := range m.hostOut {
			ei := ei
			e := m.g.Edge(ei)
			t := sched.HostRead(e.From, k)
			if t < 0 {
				return nil, fmt.Errorf("array: negative host read time %g (cell %d cycle %d)", t, e.From, k)
			}
			key := HostOut{From: e.From, Label: e.Label}
			// Traces are ordered by cycle; reserve the slot now and fill
			// it at read time, since host reads for different edges may
			// interleave across cycles in aperiodic schedules.
			trace.Out[key] = append(trace.Out[key], garbage)
			slot := len(trace.Out[key]) - 1
			sim.At(t, func() {
				trace.Out[key][slot] = wires[ei]
			})
		}
	}
	sim.Run(int64(cycles+4) * int64(m.g.NumEdges()+m.NumCells()+4) * 4)
	return trace, nil
}

// MinWorkingPeriod finds, by bisection, the smallest clock period (within
// tol) at which the clocked run reproduces the ideal trace for the given
// cycles, timing (Period ignored), and offsets. It returns an error if
// even hi fails — e.g. when a hold violation (skew exceeding HoldDelay)
// makes the array incorrect at every period, the situation Section V-B's
// lower bound forces on large 2D arrays.
func (m *Machine) MinWorkingPeriod(cycles int, timing Timing, off Offsets, lo, hi, tol float64) (float64, error) {
	ideal, err := m.RunIdeal(cycles)
	if err != nil {
		return 0, err
	}
	works := func(p float64) (bool, error) {
		timing.Period = p
		got, err := m.RunClocked(cycles, timing, off)
		if err != nil {
			return false, err
		}
		return got.Equal(ideal, 1e-9), nil
	}
	okHi, err := works(hi)
	if err != nil {
		return 0, err
	}
	if !okHi {
		return 0, fmt.Errorf("array: no working period up to %g (hold violation from skew %g > %g?)",
			hi, m.MaxCommSkew(off), timing.HoldDelay)
	}
	if lo <= 0 {
		lo = tol
	}
	for hi-lo > tol {
		mid := (lo + hi) / 2
		ok, err := works(mid)
		if err != nil {
			return 0, err
		}
		if ok {
			hi = mid
		} else {
			lo = mid
		}
	}
	return hi, nil
}
