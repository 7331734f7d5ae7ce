package array

import (
	"math"
	"testing"

	"repro/internal/comm"
)

// passLogic forwards its "x" input unchanged.
func passLogic(comm.CellID) Logic {
	return LogicFunc(func(in map[string]Value) map[string]Value {
		return map[string]Value{"x": in["x"]}
	})
}

// plusOneLogic adds 1 to its "x" input.
func plusOneLogic(comm.CellID) Logic {
	return LogicFunc(func(in map[string]Value) map[string]Value {
		return map[string]Value{"x": in["x"] + 1}
	})
}

func pipelineMachine(t *testing.T, n int, logic func(comm.CellID) Logic, xs []Value) *Machine {
	t.Helper()
	g, err := comm.Linear(n)
	if err != nil {
		t.Fatal(err)
	}
	m, err := New(g, logic, map[HostIn]Stream{
		{To: 0, Label: "x"}: SliceStream(xs, 0),
	})
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func TestRunIdealPipelineDelay(t *testing.T) {
	// A 3-cell pass-through pipeline delays the stream by 3 cycles.
	xs := []Value{10, 20, 30, 40}
	m := pipelineMachine(t, 3, passLogic, xs)
	tr, err := m.RunIdeal(8)
	if err != nil {
		t.Fatal(err)
	}
	out := tr.Out[HostOut{From: 2, Label: "x"}]
	want := []Value{0, 0, 10, 20, 30, 40, 0, 0}
	for i := range want {
		if out[i] != want[i] {
			t.Fatalf("out = %v, want %v", out, want)
		}
	}
}

func TestRunIdealPlusOne(t *testing.T) {
	xs := []Value{5, 6}
	m := pipelineMachine(t, 4, plusOneLogic, xs)
	tr, err := m.RunIdeal(8)
	if err != nil {
		t.Fatal(err)
	}
	out := tr.Out[HostOut{From: 3, Label: "x"}]
	// Each of 4 cells adds 1; values emerge after 4 cycles.
	if out[3] != 9 || out[4] != 10 {
		t.Errorf("out = %v", out)
	}
	// Leading bubbles also get incremented (0+4).
	if out[0] != 1 {
		t.Errorf("first output = %g, want 1 (0 through one cell)", out[0])
	}
}

func TestNewValidation(t *testing.T) {
	g, _ := comm.Linear(2)
	if _, err := New(g, passLogic, nil); err == nil {
		t.Error("missing input stream accepted")
	}
	if _, err := New(g, func(comm.CellID) Logic { return nil },
		map[HostIn]Stream{{To: 0, Label: "x"}: ZeroStream}); err == nil {
		t.Error("nil logic accepted")
	}
	// Duplicate in-label: two edges into cell 1 labeled "x".
	line, _ := comm.Linear(3)
	cells := []comm.Cell{line.Cell(0), line.Cell(1), line.Cell(2)}
	var edges []comm.Edge
	for i := 0; i < line.NumEdges(); i++ {
		edges = append(edges, line.Edge(i))
	}
	edges = append(edges, comm.Edge{From: 2, To: 1, Label: "x"})
	g2, err := comm.New(line.Kind(), line.Name, line.Rows(), line.Cols(), cells, edges)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := New(g2, passLogic, map[HostIn]Stream{{To: 0, Label: "x"}: ZeroStream}); err == nil {
		t.Error("duplicate in-label accepted")
	}
}

func TestTraceEqual(t *testing.T) {
	a := &Trace{Cycles: 2, Out: map[HostOut][]Value{{From: 0, Label: "x"}: {1, 2}}}
	b := &Trace{Cycles: 2, Out: map[HostOut][]Value{{From: 0, Label: "x"}: {1, 2}}}
	if !a.Equal(b, 0) {
		t.Error("equal traces not equal")
	}
	b.Out[HostOut{From: 0, Label: "x"}][1] = 3
	if a.Equal(b, 0.5) {
		t.Error("different traces equal")
	}
	if !a.Equal(b, 2) {
		t.Error("tolerance ignored")
	}
	c := &Trace{Cycles: 2, Out: map[HostOut][]Value{{From: 0, Label: "x"}: {1, math.NaN()}}}
	if a.Equal(c, 1e9) || c.Equal(c, 1e9) {
		t.Error("NaN trace compared equal — corruption must never pass")
	}
	d := &Trace{Cycles: 3, Out: map[HostOut][]Value{{From: 0, Label: "x"}: {1, 2}}}
	if a.Equal(d, 0) {
		t.Error("cycle-count mismatch equal")
	}
}

func TestRunClockedMatchesIdealZeroSkew(t *testing.T) {
	xs := []Value{1, 2, 3, 4, 5}
	m := pipelineMachine(t, 4, plusOneLogic, xs)
	ideal, err := m.RunIdeal(10)
	if err != nil {
		t.Fatal(err)
	}
	clocked, err := m.RunClocked(10, Timing{Period: 10, CellDelay: 3, HoldDelay: 1}, UniformOffsets(4))
	if err != nil {
		t.Fatal(err)
	}
	if !clocked.Equal(ideal, 1e-9) {
		t.Errorf("zero-skew clocked run diverged:\nideal   %v\nclocked %v", ideal.Out, clocked.Out)
	}
}

func TestRunClockedMatchesIdealWithTolerableSkew(t *testing.T) {
	xs := []Value{1, 2, 3}
	m := pipelineMachine(t, 5, plusOneLogic, xs)
	ideal, _ := m.RunIdeal(10)
	// Skew 0.5 between neighbors, within HoldDelay 1 and absorbed by the
	// period (10 ≥ δ + σ).
	off := Offsets{Cell: []float64{0, 0.5, 0, 0.5, 0}, Host: 0.25}
	clocked, err := m.RunClocked(10, Timing{Period: 10, CellDelay: 3, HoldDelay: 1}, off)
	if err != nil {
		t.Fatal(err)
	}
	if !clocked.Equal(ideal, 1e-9) {
		t.Error("clocked run with tolerable skew diverged")
	}
}

func TestRunClockedSetupViolationCorrupts(t *testing.T) {
	xs := []Value{1, 2, 3}
	m := pipelineMachine(t, 4, plusOneLogic, xs)
	ideal, _ := m.RunIdeal(10)
	// Period smaller than CellDelay: receivers latch before data arrives.
	clocked, err := m.RunClocked(10, Timing{Period: 2, CellDelay: 3, HoldDelay: 1}, UniformOffsets(4))
	if err != nil {
		t.Fatal(err)
	}
	if clocked.Equal(ideal, 1e-9) {
		t.Error("setup violation went undetected")
	}
}

func TestRunClockedHoldViolationCorrupts(t *testing.T) {
	xs := []Value{1, 2, 3}
	m := pipelineMachine(t, 4, plusOneLogic, xs)
	ideal, _ := m.RunIdeal(10)
	// Cell 1 lags cell 0 by more than HoldDelay: cell 0's next-cycle
	// garbage overwrites the wire before cell 1 latches. No period fixes
	// this.
	off := Offsets{Cell: []float64{0, 2, 0, 0}}
	for _, period := range []float64{10, 100, 1000} {
		clocked, err := m.RunClocked(10, Timing{Period: period, CellDelay: 3, HoldDelay: 1}, off)
		if err != nil {
			t.Fatal(err)
		}
		if clocked.Equal(ideal, 1e-9) {
			t.Errorf("hold violation undetected at period %g", period)
		}
	}
}

func TestMinWorkingPeriodMatchesA5(t *testing.T) {
	// A5: the minimum period is σ + δ (plus distribution time, zero
	// here). Measure it by bisection and compare.
	xs := []Value{3, 1, 4, 1, 5}
	m := pipelineMachine(t, 4, plusOneLogic, xs)
	delta := 3.0
	off := Offsets{Cell: []float64{0, 0.4, 0.1, 0.3}, Host: 0.2}
	sigma := m.MaxCommSkew(off)
	timing := Timing{CellDelay: delta, HoldDelay: 1}
	got, err := m.MinWorkingPeriod(12, timing, off, 0, 50, 1e-4)
	if err != nil {
		t.Fatal(err)
	}
	exact := delta + m.MaxDirectedSkew(off)
	if math.Abs(got-exact) > 0.05 {
		t.Errorf("min working period = %g, exact prediction %g", got, exact)
	}
	// A5's σ + δ must be a safe upper bound on the measured threshold.
	if got > delta+sigma+0.05 {
		t.Errorf("min working period %g exceeds A5 bound %g", got, delta+sigma)
	}
}

func TestMinWorkingPeriodZeroSkew(t *testing.T) {
	xs := []Value{1, 2}
	m := pipelineMachine(t, 3, plusOneLogic, xs)
	timing := Timing{CellDelay: 2, HoldDelay: 0.5}
	got, err := m.MinWorkingPeriod(8, timing, UniformOffsets(3), 0, 50, 1e-4)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(got-2) > 0.05 {
		t.Errorf("min period = %g, want δ = 2", got)
	}
}

func TestMinWorkingPeriodHoldFailure(t *testing.T) {
	xs := []Value{1}
	m := pipelineMachine(t, 3, plusOneLogic, xs)
	off := Offsets{Cell: []float64{0, 5, 0}}
	timing := Timing{CellDelay: 2, HoldDelay: 0.5}
	if _, err := m.MinWorkingPeriod(8, timing, off, 0, 100, 1e-3); err == nil {
		t.Error("unfixable hold violation did not error")
	}
}

func TestMaxCommSkewIncludesHost(t *testing.T) {
	m := pipelineMachine(t, 3, passLogic, nil)
	off := Offsets{Cell: []float64{0, 0.1, 0.2}, Host: 1.5}
	// Host communicates with cells 0 and 2; skew vs host dominates.
	if got := m.MaxCommSkew(off); math.Abs(got-1.5) > 1e-12 {
		t.Errorf("MaxCommSkew = %g, want 1.5", got)
	}
}

func TestRunClockedValidation(t *testing.T) {
	m := pipelineMachine(t, 2, passLogic, nil)
	if _, err := m.RunClocked(0, Timing{Period: 1, CellDelay: 0.5, HoldDelay: 0.1}, UniformOffsets(2)); err == nil {
		t.Error("0 cycles accepted")
	}
	if _, err := m.RunClocked(1, Timing{Period: 0, CellDelay: 0.5, HoldDelay: 0.1}, UniformOffsets(2)); err == nil {
		t.Error("0 period accepted")
	}
	if _, err := m.RunClocked(1, Timing{Period: 1, CellDelay: 0.5, HoldDelay: 0}, UniformOffsets(2)); err == nil {
		t.Error("0 hold accepted")
	}
	if _, err := m.RunClocked(1, Timing{Period: 1, CellDelay: 0.5, HoldDelay: 0.6}, UniformOffsets(2)); err == nil {
		t.Error("hold > cell delay accepted")
	}
	if _, err := m.RunClocked(1, Timing{Period: 1, CellDelay: 0.5, HoldDelay: 0.1}, UniformOffsets(3)); err == nil {
		t.Error("wrong offset count accepted")
	}
	if _, err := m.RunClocked(1, Timing{Period: 1, CellDelay: 0.5, HoldDelay: 0.1},
		Offsets{Cell: []float64{-1, 0}}); err == nil {
		t.Error("negative offset accepted")
	}
}

func TestRunIdealDeterministic(t *testing.T) {
	xs := []Value{2, 7, 1}
	m := pipelineMachine(t, 5, plusOneLogic, xs)
	a, _ := m.RunIdeal(9)
	b, _ := m.RunIdeal(9)
	if !a.Equal(b, 0) {
		t.Error("RunIdeal not deterministic")
	}
}

func TestSliceStream(t *testing.T) {
	s := SliceStream([]Value{1, 2}, -1)
	if s(-1) != -1 || s(0) != 1 || s(1) != 2 || s(2) != -1 {
		t.Error("SliceStream wrong")
	}
	if ZeroStream(5) != 0 {
		t.Error("ZeroStream wrong")
	}
}
