package array

import (
	"testing"
	"testing/quick"

	"repro/internal/comm"
	"repro/internal/stats"
)

// randomAffineLogic builds stateless logic computing a random affine
// combination of its inputs on every output port — enough variety that
// timing errors almost surely corrupt some output.
func randomAffineLogic(rng *stats.RNG) func(comm.CellID) Logic {
	return func(id comm.CellID) Logic {
		r := rng.Fork(int64(id))
		bias := r.Uniform(-1, 1)
		wx := r.Uniform(-1, 1)
		wy := r.Uniform(-1, 1)
		return LogicFunc(func(in map[string]Value) map[string]Value {
			sum := bias
			for label, v := range in {
				w := wx
				if label == "y" {
					w = wy
				}
				sum += w * v
			}
			out := make(map[string]Value, 2)
			out["x"] = sum
			out["y"] = sum / 2
			return out
		})
	}
}

// TestClockedEqualsIdealUnderSafeTimingProperty: for random machines over
// random topologies with random offsets, any timing that satisfies the
// setup and hold constraints must reproduce the ideal trace exactly.
func TestClockedEqualsIdealUnderSafeTimingProperty(t *testing.T) {
	f := func(seed int64, topo, nn uint8) bool {
		rng := stats.NewRNG(seed)
		var g *comm.Graph
		var err error
		switch topo % 3 {
		case 0:
			g, err = comm.Linear(int(nn%8) + 2)
		case 1:
			g, err = comm.Bidirectional(int(nn%6) + 2)
		default:
			g, err = comm.LinearDual(int(nn%6) + 2)
		}
		if err != nil {
			return false
		}
		inputs := make(map[HostIn]Stream)
		for ei := 0; ei < g.NumEdges(); ei++ {
			e := g.Edge(ei)
			if e.From == comm.Host {
				phase := rng.Uniform(0, 1)
				inputs[HostIn{To: e.To, Label: e.Label}] = func(k int) Value {
					return float64(k%5) + phase
				}
			}
		}
		m, err := New(g, randomAffineLogic(rng), inputs)
		if err != nil {
			return false
		}
		const cycles = 12
		ideal, err := m.RunIdeal(cycles)
		if err != nil {
			return false
		}
		// Random non-negative offsets.
		off := Offsets{Cell: make([]float64, m.NumCells())}
		for i := range off.Cell {
			off.Cell[i] = rng.Uniform(0, 0.6)
		}
		off.Host = rng.Uniform(0, 0.6)
		off.HostRead = rng.Uniform(0, 0.6)
		// Safe timing: hold covers every receiver lag; period covers
		// δ + every sender lead.
		maxLag := 0.0
		for ei := 0; ei < g.NumEdges(); ei++ {
			e := g.Edge(ei)
			var from, to float64
			switch {
			case e.From == comm.Host:
				from, to = off.Host, off.Cell[e.To]
			case e.To == comm.Host:
				from, to = off.Cell[e.From], off.HostRead
			default:
				from, to = off.Cell[e.From], off.Cell[e.To]
			}
			if lag := to - from; lag > maxLag {
				maxLag = lag
			}
		}
		delta := 1 + maxLag*1.01
		timing := Timing{
			Period:    delta + m.MaxDirectedSkew(off) + 0.05,
			CellDelay: delta,
			HoldDelay: delta,
		}
		got, err := m.RunClocked(cycles, timing, off)
		if err != nil {
			return false
		}
		return got.Equal(ideal, 1e-9)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

// TestSetupViolationCorruptsProperty: shrinking the period below
// δ + directed skew must corrupt the trace whenever the machine computes
// anything input-dependent (affine logic with nonzero inputs does).
func TestSetupViolationCorruptsProperty(t *testing.T) {
	f := func(seed int64, nn uint8) bool {
		rng := stats.NewRNG(seed)
		g, err := comm.Linear(int(nn%8) + 3)
		if err != nil {
			return false
		}
		inputs := map[HostIn]Stream{
			{To: 0, Label: "x"}: func(k int) Value { return float64(k + 1) },
		}
		m, err := New(g, randomAffineLogic(rng), inputs)
		if err != nil {
			return false
		}
		const cycles = 12
		ideal, err := m.RunIdeal(cycles)
		if err != nil {
			return false
		}
		// Period far below the cell delay: every latch captures garbage
		// or stale data.
		got, err := m.RunClocked(cycles, Timing{Period: 0.4, CellDelay: 2, HoldDelay: 1},
			UniformOffsets(m.NumCells()))
		if err != nil {
			return false
		}
		return !got.Equal(ideal, 1e-9)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

// TestDeadClockCorrupts: a cell whose clock dies mid-run (it stops
// latching and recomputing) freezes its outputs and corrupts everything
// downstream — the failure the hybrid scheme's handshake would instead
// convert into a stall.
func TestDeadClockCorrupts(t *testing.T) {
	g, err := comm.Linear(5)
	if err != nil {
		t.Fatal(err)
	}
	m, err := New(g, func(comm.CellID) Logic {
		return LogicFunc(func(in map[string]Value) map[string]Value {
			return map[string]Value{"x": in["x"] + 1}
		})
	}, map[HostIn]Stream{{To: 0, Label: "x"}: func(k int) Value { return float64(k) }})
	if err != nil {
		t.Fatal(err)
	}
	const cycles = 14
	ideal, err := m.RunIdeal(cycles)
	if err != nil {
		t.Fatal(err)
	}
	const period = 5.0
	deadCell, deadAfter := comm.CellID(2), 6
	timing := Timing{CellDelay: 2, HoldDelay: 1}
	sched := Schedule{
		CellTick: func(c comm.CellID, k int) float64 {
			if c == deadCell && k >= deadAfter {
				// The dead cell's remaining ticks never arrive; park them
				// far beyond the horizon so they are harmless no-ops.
				return float64(k+1000) * period
			}
			return float64(k+1) * period
		},
		HostWrite: func(_ comm.CellID, k int) float64 { return float64(k) * period },
		HostRead:  func(_ comm.CellID, k int) float64 { return float64(k+2) * period },
	}
	got, err := m.RunScheduled(cycles, timing, sched)
	if err != nil {
		t.Fatal(err)
	}
	if got.Equal(ideal, 1e-9) {
		t.Error("dead clock went unnoticed — downstream cells kept reading frozen data")
	}
	// Sanity: with no dead cell, the same schedule matches ideal.
	healthy := Schedule{
		CellTick:  func(c comm.CellID, k int) float64 { return float64(k+1) * period },
		HostWrite: sched.HostWrite,
		HostRead:  sched.HostRead,
	}
	ok, err := m.RunScheduled(cycles, timing, healthy)
	if err != nil {
		t.Fatal(err)
	}
	if !ok.Equal(ideal, 1e-9) {
		t.Error("healthy schedule diverged")
	}
}
