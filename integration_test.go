package vlsisync

// Integration tests: cross-package scenarios exercising the public API
// the way a downstream user would, from planning through execution.

import (
	"math"
	"strings"
	"testing"

	"repro/internal/array"
	"repro/internal/clocksim"
	"repro/internal/clocktree"

	"repro/internal/core"
	"repro/internal/hybrid"
	"repro/internal/systolic"
)

// TestPlanThenRunLinearArray: plan a 1D array under the summation model,
// derive clock arrivals by simulating the planned (buffered) tree, and
// run a FIR on it — the full prescribe-then-verify loop.
func TestPlanThenRunLinearArray(t *testing.T) {
	const taps = 24
	weights := make([]float64, taps)
	for i := range weights {
		weights[i] = math.Sin(float64(i))
	}
	fir, err := NewFIR(weights, []float64{1, -2, 3, -4, 5})
	if err != nil {
		t.Fatal(err)
	}
	g := fir.Machine.Graph()

	plan, err := core.NewPlan(g, Assumptions{
		Model: ModelSummation, M: 1, Eps: 0.2, Delta: 1, BufferSpacing: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if plan.Scheme != core.SchemeSpine {
		t.Fatalf("planned scheme = %s, want spine", plan.Scheme)
	}
	// A7: no unbuffered segment of the planned tree may exceed the
	// buffer spacing (spine hops of one pitch need no inserted buffers).
	for v := 0; v < plan.Tree.NumNodes(); v++ {
		if seg := plan.Tree.EdgeLen(clocktree.NodeID(v)); seg > 1+1e-9 {
			t.Errorf("planned tree has unbuffered segment %g > spacing 1", seg)
		}
	}

	arr, err := clocksim.Random(plan.Tree, clocksim.Params{M: 1, Eps: 0.2, BufferDelay: 0.05},
		NewRNG(11))
	if err != nil {
		t.Fatal(err)
	}
	off, err := arr.Offsets(g)
	if err != nil {
		t.Fatal(err)
	}
	delta := 1 + (1+0.2)*1.1 + 0.06 // base δ padded for per-pitch lag + buffer delay
	got, err := fir.Machine.RunClocked(fir.Cycles, array.Timing{
		Period:    delta + fir.Machine.MaxDirectedSkew(off) + 0.1,
		CellDelay: delta,
		HoldDelay: delta,
	}, off)
	if err != nil {
		t.Fatal(err)
	}
	if !got.Equal(fir.Golden(fir.Cycles), 1e-9) {
		t.Error("planned-and-simulated clocked FIR diverged from golden")
	}
}

// TestPlanThenRunMesh: plan a 2D array (hybrid prescribed), run a matmul
// through the plan's partition, and confirm exactness.
func TestPlanThenRunMesh(t *testing.T) {
	a := systolic.NewMatrix(6, 6)
	b := systolic.NewMatrix(6, 6)
	rng := NewRNG(21)
	for i := range a.Data {
		a.Data[i] = rng.Uniform(-3, 3)
		b.Data[i] = rng.Uniform(-3, 3)
	}
	mm, err := NewMatMul(a, b)
	if err != nil {
		t.Fatal(err)
	}
	plan, err := core.NewPlan(mm.Machine.Graph(), Assumptions{
		Model: ModelSummation, M: 1, Eps: 0.1, Delta: 2, BufferSpacing: 1,
		ElementSize: 3, Handshake: 0.5, LocalDistribution: 0.3,
	})
	if err != nil {
		t.Fatal(err)
	}
	if plan.Scheme != core.SchemeHybrid || plan.Hybrid == nil {
		t.Fatalf("planned scheme = %s, want hybrid", plan.Scheme)
	}
	tr, err := plan.Hybrid.Run(mm.Machine, mm.Cycles)
	if err != nil {
		t.Fatal(err)
	}
	got, err := mm.Extract(tr)
	if err != nil {
		t.Fatal(err)
	}
	want, _ := a.Mul(b)
	if !got.Equal(want, 1e-6) {
		t.Error("hybrid-planned matmul diverged from direct product")
	}
}

// TestTorusPlansHybrid: tori are two-dimensional (and their flat layout
// even has unbounded wrap wires); the planner must not try to clock them
// globally under the summation model.
func TestTorusPlansHybrid(t *testing.T) {
	g, err := TorusArray(6, 6)
	if err != nil {
		t.Fatal(err)
	}
	plan, err := core.NewPlan(g, Assumptions{
		Model: ModelSummation, M: 1, Eps: 0.1, Delta: 2, BufferSpacing: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if plan.Scheme != core.SchemeHybrid {
		t.Errorf("torus scheme = %s, want hybrid", plan.Scheme)
	}
}

// TestEveryWorkloadUnderEveryDiscipline is the compatibility matrix: all
// five systolic workloads run ideal, clocked (tolerable skew), and hybrid,
// and always match their golden references.
func TestEveryWorkloadUnderEveryDiscipline(t *testing.T) {
	type workload struct {
		name    string
		machine *array.Machine
		cycles  int
		check   func(*array.Trace) bool
	}
	var ws []workload

	fir, err := NewFIR([]float64{1, -1, 2}, []float64{5, 4, 3, 2, 1})
	if err != nil {
		t.Fatal(err)
	}
	ws = append(ws, workload{"fir", fir.Machine, fir.Cycles,
		func(tr *array.Trace) bool { return tr.Equal(fir.Golden(fir.Cycles), 1e-9) }})

	poly, err := NewPoly([]float64{1, 0, -2}, []float64{0.5, 2, -1})
	if err != nil {
		t.Fatal(err)
	}
	ws = append(ws, workload{"poly", poly.Machine, poly.Cycles, func(tr *array.Trace) bool {
		got := poly.Results(tr)
		for i, x := range poly.Points {
			if math.Abs(got[i]-poly.Eval(x)) > 1e-9 {
				return false
			}
		}
		return true
	}})

	am := systolic.Matrix{Rows: 3, Cols: 3, Data: []float64{1, 2, 3, 4, 5, 6, 7, 8, 9}}
	bm := systolic.Matrix{Rows: 3, Cols: 3, Data: []float64{2, 0, 1, 1, 1, 0, 0, 2, 2}}
	mm, err := NewMatMul(am, bm)
	if err != nil {
		t.Fatal(err)
	}
	ws = append(ws, workload{"matmul", mm.Machine, mm.Cycles, func(tr *array.Trace) bool {
		got, err := mm.Extract(tr)
		if err != nil {
			return false
		}
		want, _ := am.Mul(bm)
		return got.Equal(want, 1e-9)
	}})

	sorter, err := NewSorter([]float64{4, 1, 3, 5, 2})
	if err != nil {
		t.Fatal(err)
	}
	ws = append(ws, workload{"sort", sorter.Machine, sorter.Cycles, func(tr *array.Trace) bool {
		got, err := sorter.Sorted(tr)
		if err != nil {
			return false
		}
		want := sorter.Golden()
		for i := range want {
			if got[i] != want[i] {
				return false
			}
		}
		return true
	}})

	jac, err := NewJacobi(3, 3, []float64{1, 2, 3}, []float64{3, 2, 1})
	if err != nil {
		t.Fatal(err)
	}
	const jacCycles = 15
	ws = append(ws, workload{"jacobi", jac.Machine, jacCycles,
		func(tr *array.Trace) bool { return tr.Equal(jac.Golden(jacCycles), 1e-12) }})

	for _, w := range ws {
		w := w
		t.Run(w.name, func(t *testing.T) {
			ideal, err := w.machine.RunIdeal(w.cycles)
			if err != nil {
				t.Fatal(err)
			}
			if !w.check(ideal) {
				t.Fatal("ideal run fails golden check")
			}

			rng := NewRNG(int64(len(w.name)))
			off := array.Offsets{Cell: make([]float64, w.machine.NumCells())}
			for i := range off.Cell {
				off.Cell[i] = rng.Uniform(0, 0.3)
			}
			off.Host = 0.15
			off.HostRead = 0.15
			clocked, err := w.machine.RunClocked(w.cycles,
				array.Timing{Period: 4, CellDelay: 2, HoldDelay: 0.5}, off)
			if err != nil {
				t.Fatal(err)
			}
			if !w.check(clocked) || !clocked.Equal(ideal, 1e-9) {
				t.Error("clocked run diverged")
			}

			sys, err := hybrid.New(w.machine.Graph(), hybrid.Config{
				ElementSize: 2, Handshake: 0.5, LocalDistribution: 0.3,
				CellDelay: 2, HoldDelay: 0.5,
			})
			if err != nil {
				t.Fatal(err)
			}
			hyb, err := sys.Run(w.machine, w.cycles)
			if err != nil {
				t.Fatal(err)
			}
			if !w.check(hyb) || !hyb.Equal(ideal, 1e-9) {
				t.Error("hybrid run diverged")
			}
		})
	}
}

// TestRenderLayoutFacade: the facade's SVG entry points produce valid
// documents for a planned system.
func TestRenderLayoutFacade(t *testing.T) {
	g, err := MeshArray(6, 6)
	if err != nil {
		t.Fatal(err)
	}
	tree, err := HTreeClock(g)
	if err != nil {
		t.Fatal(err)
	}
	var b strings.Builder
	if err := RenderLayout(&b, g, tree, "integration"); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(b.String(), "</svg>") {
		t.Error("facade render produced no SVG")
	}
	sys, err := NewHybrid(g, hybrid.Config{ElementSize: 3, Handshake: 0.5,
		LocalDistribution: 0.3, CellDelay: 2, HoldDelay: 0.5})
	if err != nil {
		t.Fatal(err)
	}
	b.Reset()
	if err := RenderHybridLayout(&b, g, sys, "integration"); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(b.String(), "</svg>") {
		t.Error("facade hybrid render produced no SVG")
	}
}

// TestAdversarialClockFacade: the facade's adversarial clock realizes
// exactly ε·s between the chosen pair, matching the A11 bound.
func TestAdversarialClockFacade(t *testing.T) {
	g, err := MeshArray(6, 6)
	if err != nil {
		t.Fatal(err)
	}
	tree, err := HTreeClock(g)
	if err != nil {
		t.Fatal(err)
	}
	var a, b CellID = 2, 3
	arr, err := AdversarialClock(tree, ClockParams{M: 1, Eps: 0.25}, a, b)
	if err != nil {
		t.Fatal(err)
	}
	ta, err := arr.CellArrival(a)
	if err != nil {
		t.Fatal(err)
	}
	tb, err := arr.CellArrival(b)
	if err != nil {
		t.Fatal(err)
	}
	want := 0.25 * tree.CellPathLen(a, b)
	if math.Abs(math.Abs(ta-tb)-want) > 1e-9 {
		t.Errorf("adversarial skew = %g, want %g", math.Abs(ta-tb), want)
	}
}
