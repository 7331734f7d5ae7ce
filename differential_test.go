package vlsisync

// Differential tests: a clocked machine driven with zero skew (uniform
// zero offsets) must produce a trace byte-identical to the ideal
// lock-step semantics of A1, for every workload shape the examples
// exercise — the 1D FIR filter, the mesh matrix multiplier, the
// hexagonal band multiplier, and a tree-shaped reduction machine. Any
// divergence at tolerance 0 means the clocked electrical model (latch
// times, setup/hold windows, host scheduling) disagrees with the
// abstract semantics even without skew — a bug in the execution layer,
// not a synchronization failure.

import (
	"fmt"
	"testing"

	"repro/internal/array"
	"repro/internal/comm"
	"repro/internal/geom"
	"repro/internal/systolic"
)

// safeTiming is a clocked timing that satisfies A5 trivially at zero
// skew: the period exceeds the cell delay, and the hold window is
// irrelevant because all cells tick simultaneously.
var safeTiming = array.Timing{Period: 3, CellDelay: 2, HoldDelay: 0.5}

// runBoth executes m under ideal lock step and under a zero-skew clock
// and requires the traces to match exactly (tolerance 0).
func runBoth(t *testing.T, m *array.Machine, cycles int) {
	t.Helper()
	ideal, err := m.RunIdeal(cycles)
	if err != nil {
		t.Fatal(err)
	}
	clocked, err := m.RunClocked(cycles, safeTiming, array.UniformOffsets(m.NumCells()))
	if err != nil {
		t.Fatal(err)
	}
	if !clocked.Equal(ideal, 0) {
		t.Fatalf("zero-skew clocked trace differs from ideal lock step")
	}
}

// treeReduceMachine builds a complete-binary-tree array machine of the
// given depth by hand: commands flow from the host at the root down to
// the leaves, partial sums flow back up (the treemachine example's
// shape, expressed as an array.Machine). Parent→child edges are
// labelled by side ("dl"/"dr") and child→parent edges likewise
// ("ul"/"ur") so that every cell's in- and out-edge label sets are
// duplicate-free, which array.New requires.
func treeReduceMachine(depth int) (*array.Machine, error) {
	n := 1<<(depth+1) - 1
	var cells []comm.Cell
	level, width := 0, 1
	for i := 0; i < n; i++ {
		if i >= 2*width-1 {
			level++
			width *= 2
		}
		cells = append(cells, comm.Cell{
			ID:  comm.CellID(i),
			Pos: geom.Pt(float64(n)*float64(i-(width-1))/float64(width), float64(level)),
		})
	}
	edges := []comm.Edge{
		{From: comm.Host, To: 0, Label: "d"},
		{From: 0, To: comm.Host, Label: "u"}}
	for i := 0; i < n; i++ {
		l, r := 2*i+1, 2*i+2
		if l < n {
			edges = append(edges,
				comm.Edge{From: comm.CellID(i), To: comm.CellID(l), Label: "dl"},
				comm.Edge{From: comm.CellID(l), To: comm.CellID(i), Label: "ul"})
		}
		if r < n {
			edges = append(edges,
				comm.Edge{From: comm.CellID(i), To: comm.CellID(r), Label: "dr"},
				comm.Edge{From: comm.CellID(r), To: comm.CellID(i), Label: "ur"})
		}
	}
	g, err := comm.New(comm.KindTree, fmt.Sprintf("reduce-tree-%d", depth), 0, 0, cells, edges)
	if err != nil {
		return nil, err
	}
	logic := func(id comm.CellID) array.Logic {
		w := float64(id%7) + 1
		return array.LogicFunc(func(in map[string]array.Value) map[string]array.Value {
			// The command is whichever downstream label arrived; leaves
			// and internal nodes alike scale it and add their children's
			// partial sums (absent labels read as 0).
			cmd := in["d"] + in["dl"] + in["dr"]
			up := w*cmd + in["ul"] + in["ur"]
			return map[string]array.Value{
				"dl": cmd/2 + w, "dr": cmd/3 - w,
				"ul": up, "ur": up, "u": up,
			}
		})
	}
	inputs := map[array.HostIn]array.Stream{
		{To: 0, Label: "d"}: func(k int) array.Value { return float64(k%4) + 0.25 },
	}
	return array.New(g, logic, inputs)
}

func TestDifferentialFIR(t *testing.T) {
	fir, err := systolic.NewFIR([]float64{1, -2, 0.5, 0.25}, []float64{1, 2, 3, 4, 5, 6, 7, 8})
	if err != nil {
		t.Fatal(err)
	}
	runBoth(t, fir.Machine, fir.Cycles)
}

func TestDifferentialMatMul(t *testing.T) {
	a, b := systolic.NewMatrix(4, 4), systolic.NewMatrix(4, 4)
	for i := 0; i < 4; i++ {
		for j := 0; j < 4; j++ {
			a.Set(i, j, float64(i*4+j)/3-1)
			b.Set(i, j, float64((i+2)*(j+1))/5)
		}
	}
	mm, err := systolic.NewMatMul(a, b)
	if err != nil {
		t.Fatal(err)
	}
	runBoth(t, mm.Machine, mm.Cycles)
}

func TestDifferentialHexBand(t *testing.T) {
	gen := func(i, j int) float64 { return float64(i+1)/float64(j+2) + float64((i*j)%3) }
	a := systolic.NewBandMatrix(5, 1, 1, gen)
	b := systolic.NewBandMatrix(5, 1, 1, func(i, j int) float64 { return gen(j, i) - 0.5 })
	bm, err := systolic.NewBandMatMul(a, b, 1, 1)
	if err != nil {
		t.Fatal(err)
	}
	runBoth(t, bm.Machine, bm.Cycles)
}

func TestDifferentialTreeMachine(t *testing.T) {
	for _, depth := range []int{1, 3} {
		m, err := treeReduceMachine(depth)
		if err != nil {
			t.Fatalf("depth %d: %v", depth, err)
		}
		runBoth(t, m, 20)
	}
}
