package hybrid

import (
	"math"
	"testing"

	"repro/internal/comm"
	"repro/internal/systolic"
)

func defaultConfig() Config {
	return Config{
		ElementSize:       4,
		Handshake:         0.5,
		LocalDistribution: 0.4,
		CellDelay:         2,
		HoldDelay:         0.5,
	}
}

func meshSystem(t *testing.T, n int, cfg Config) *System {
	t.Helper()
	g, err := comm.Mesh(n, n)
	if err != nil {
		t.Fatal(err)
	}
	s, err := New(g, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestPartitionBounded(t *testing.T) {
	cfg := defaultConfig()
	s := meshSystem(t, 16, cfg)
	if s.NumElements() < 16 {
		t.Errorf("16×16 mesh with 4×4 elements should have ≥16 elements, got %d", s.NumElements())
	}
	if mx := s.MaxElementCells(); mx > 25 {
		t.Errorf("max element cells = %d, want ≤ (size+1)² = 25", mx)
	}
	// Every cell assigned, neighbors in same or adjacent element.
	g := s.g
	for id := comm.CellID(0); int(id) < g.NumCells(); id++ {
		c := g.Cell(id)
		if e := s.ElementOf(c.ID); e < 0 || e >= s.NumElements() {
			t.Fatalf("cell %d in bad element %d", c.ID, e)
		}
	}
}

func TestConfigValidation(t *testing.T) {
	g, _ := comm.Mesh(4, 4)
	bad := []Config{
		{ElementSize: 0, Handshake: 1, CellDelay: 1, HoldDelay: 0.5},
		{ElementSize: 2, Handshake: 0, CellDelay: 1, HoldDelay: 0.5},
		{ElementSize: 2, Handshake: 1, LocalDistribution: -1, CellDelay: 1, HoldDelay: 0.5},
		{ElementSize: 2, Handshake: 1, CellDelay: 1, HoldDelay: 0},
		{ElementSize: 2, Handshake: 1, CellDelay: 1, HoldDelay: 2},
	}
	for i, cfg := range bad {
		if _, err := New(g, cfg); err == nil {
			t.Errorf("bad config %d accepted", i)
		}
	}
}

// The Section VI headline: hybrid cycle time is independent of array size.
func TestCycleTimeIndependentOfSize(t *testing.T) {
	cfg := defaultConfig()
	var cycles []float64
	for _, n := range []int{8, 16, 32} {
		s := meshSystem(t, n, cfg)
		cycles = append(cycles, s.CycleTime(50))
	}
	for i := 1; i < len(cycles); i++ {
		if math.Abs(cycles[i]-cycles[0]) > 1e-9 {
			t.Errorf("cycle times vary with size: %v", cycles)
		}
	}
	// And the cycle time is exactly the wave cost.
	if math.Abs(cycles[0]-cfg.WaveCost()) > 1e-9 {
		t.Errorf("cycle = %g, want WaveCost %g", cycles[0], cfg.WaveCost())
	}
}

func TestFiringTimesMonotone(t *testing.T) {
	s := meshSystem(t, 8, defaultConfig())
	times := s.FiringTimes(10)
	if len(times) != 10 {
		t.Fatalf("waves = %d", len(times))
	}
	for k := 1; k < len(times); k++ {
		for e := range times[k] {
			if times[k][e] <= times[k-1][e] {
				t.Fatalf("wave %d element %d not after wave %d", k, e, k-1)
			}
		}
	}
	// Neighboring elements never drift more than one wave cost apart.
	cost := defaultConfig().WaveCost()
	last := times[len(times)-1]
	for e, neighbors := range s.adj {
		for _, o := range neighbors {
			if d := math.Abs(last[e] - last[o]); d > cost+1e-9 {
				t.Errorf("elements %d,%d drifted %g > %g", e, o, d, cost)
			}
		}
	}
}

// The correctness claim: a systolic matrix multiplication run under
// hybrid synchronization produces exactly the ideal lock-step results.
func TestHybridMatMulMatchesIdeal(t *testing.T) {
	a := systolic.Matrix{Rows: 4, Cols: 4, Data: []float64{
		1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16,
	}}
	b := systolic.Matrix{Rows: 4, Cols: 4, Data: []float64{
		2, 0, 1, 3, 1, 1, 0, 2, 0, 3, 2, 1, 4, 1, 1, 0,
	}}
	mm, err := systolic.NewMatMul(a, b)
	if err != nil {
		t.Fatal(err)
	}
	cfg := defaultConfig()
	cfg.ElementSize = 2
	s, err := New(mm.Machine.Graph(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	tr, err := s.Run(mm.Machine, mm.Cycles)
	if err != nil {
		t.Fatal(err)
	}
	ideal, err := mm.Machine.RunIdeal(mm.Cycles)
	if err != nil {
		t.Fatal(err)
	}
	if !tr.Equal(ideal, 1e-9) {
		t.Fatalf("hybrid trace diverges from ideal")
	}
	got, err := mm.Extract(tr)
	if err != nil {
		t.Fatal(err)
	}
	want, _ := a.Mul(b)
	if !got.Equal(want, 1e-9) {
		t.Errorf("hybrid C = %v, want %v", got.Data, want.Data)
	}
}

func TestHybridFIRMatchesGolden(t *testing.T) {
	f, err := systolic.NewFIR([]float64{1, -2, 0.5}, []float64{3, 1, 4, 1, 5, 9, 2, 6})
	if err != nil {
		t.Fatal(err)
	}
	cfg := defaultConfig()
	cfg.ElementSize = 2
	s, err := New(f.Machine.Graph(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	tr, err := s.Run(f.Machine, f.Cycles)
	if err != nil {
		t.Fatal(err)
	}
	if !tr.Equal(f.Golden(f.Cycles), 1e-9) {
		t.Error("hybrid FIR diverges from golden")
	}
}

func TestRunRejectsForeignMachine(t *testing.T) {
	g1, _ := comm.Mesh(4, 4)
	s, err := New(g1, defaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	f, err := systolic.NewFIR([]float64{1}, []float64{1})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Run(f.Machine, 4); err == nil {
		t.Error("foreign machine accepted")
	}
}

func TestScheduleTickSpacingAtLeastWaveCost(t *testing.T) {
	s := meshSystem(t, 8, defaultConfig())
	sched := s.Schedule(20)
	cost := defaultConfig().WaveCost()
	for _, c := range []comm.CellID{0, 13, 63} {
		for k := 1; k < 20; k++ {
			gap := sched.CellTick(c, k) - sched.CellTick(c, k-1)
			if gap < cost-1e-9 {
				t.Fatalf("cell %d cycle %d gap %g < wave cost %g", c, k, gap, cost)
			}
		}
	}
}

func TestElementSizeOneStillWorks(t *testing.T) {
	// Degenerate partition: every cell its own element — the handshake
	// network becomes a full self-timed system; results must still match.
	f, err := systolic.NewFIR([]float64{2, 3}, []float64{1, 2, 3})
	if err != nil {
		t.Fatal(err)
	}
	cfg := defaultConfig()
	cfg.ElementSize = 1
	s, err := New(f.Machine.Graph(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if s.NumElements() != 2 {
		t.Errorf("elements = %d, want 2", s.NumElements())
	}
	tr, err := s.Run(f.Machine, f.Cycles)
	if err != nil {
		t.Fatal(err)
	}
	if !tr.Equal(f.Golden(f.Cycles), 1e-9) {
		t.Error("single-cell elements diverge from golden")
	}
}

func TestStallPropagatesLocally(t *testing.T) {
	// Inject a one-shot stall of X at one element on wave 0 and verify
	// the hybrid scheme's fault locality: the disturbance reaches an
	// element at hop distance h no earlier than wave h, never exceeds X,
	// and the steady cycle time recovers.
	s := meshSystem(t, 16, defaultConfig())
	const stallElem, stallWave = 0, 0
	const X = 7.0
	const waves = 30
	base := s.FiringTimes(waves)
	stalled := s.FiringTimesWithCost(waves, func(e, k int) float64 {
		if e == stallElem && k == stallWave {
			return X
		}
		return 0
	})
	hops := s.ElementHops(stallElem)
	for k := 0; k < waves; k++ {
		for e := 0; e < s.NumElements(); e++ {
			delay := stalled[k][e] - base[k][e]
			if delay < -1e-9 {
				t.Fatalf("wave %d element %d sped up by %g", k, e, -delay)
			}
			if delay > X+1e-9 {
				t.Fatalf("wave %d element %d delayed %g > stall %g", k, e, delay, X)
			}
			if hops[e] > k && delay > 1e-9 {
				t.Fatalf("wave %d element %d (hop %d) already delayed %g — disturbance outran the handshake",
					k, e, hops[e], delay)
			}
		}
	}
	// Steady state: the per-wave interval is back to the wave cost.
	last := stalled[waves-1][0] - stalled[waves-2][0]
	if math.Abs(last-defaultConfig().WaveCost()) > 1e-9 {
		t.Errorf("post-stall interval = %g, want %g", last, defaultConfig().WaveCost())
	}
}

func TestElementHops(t *testing.T) {
	s := meshSystem(t, 8, defaultConfig()) // 2×2 elements of size 4
	hops := s.ElementHops(0)
	if len(hops) != s.NumElements()+1 {
		t.Fatalf("hops length = %d, want elements+host", len(hops))
	}
	if hops[0] != 0 {
		t.Errorf("self hop = %d", hops[0])
	}
	max := 0
	for _, h := range hops {
		if h < 0 {
			t.Fatalf("unreachable node in connected mesh partition")
		}
		if h > max {
			max = h
		}
	}
	if max != 2 {
		t.Errorf("2×2 element grid (plus host) max hop = %d, want 2", max)
	}
}

func TestSimulateHandshakeMatchesRecurrence(t *testing.T) {
	// The message-passing protocol simulation must reproduce the analytic
	// firing-time recurrence exactly — the recurrence is just the closed
	// form of the protocol.
	for _, n := range []int{4, 8, 12} {
		s := meshSystem(t, n, defaultConfig())
		const waves = 12
		analytic := s.FiringTimes(waves)
		simulated, err := s.SimulateHandshake(waves)
		if err != nil {
			t.Fatal(err)
		}
		for k := 0; k < waves; k++ {
			for v := range analytic[k] {
				if math.Abs(analytic[k][v]-simulated[k][v]) > 1e-9 {
					t.Fatalf("n=%d wave %d node %d: analytic %g vs simulated %g",
						n, k, v, analytic[k][v], simulated[k][v])
				}
			}
		}
	}
}

func TestSimulateHandshakeValidation(t *testing.T) {
	s := meshSystem(t, 4, defaultConfig())
	if _, err := s.SimulateHandshake(0); err == nil {
		t.Error("0 waves accepted")
	}
}
