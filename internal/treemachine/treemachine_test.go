package treemachine

import (
	"math"
	"testing"

	"repro/internal/stats"
)

func machine(t *testing.T, levels int) *Machine {
	t.Helper()
	m, err := New(Config{Levels: levels, BufferSpacing: 1.5})
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func TestNewValidation(t *testing.T) {
	if _, err := New(Config{Levels: 0, BufferSpacing: 1}); err == nil {
		t.Error("Levels=0 accepted")
	}
	if _, err := New(Config{Levels: 20, BufferSpacing: 1}); err == nil {
		t.Error("Levels=20 accepted")
	}
	if _, err := New(Config{Levels: 4, BufferSpacing: 0}); err == nil {
		t.Error("spacing=0 accepted")
	}
}

func TestStructure(t *testing.T) {
	m := machine(t, 5)
	if m.Nodes() != 31 {
		t.Errorf("nodes=%d", m.Nodes())
	}
	regs := m.RegistersPerLevel()
	if len(regs) != 4 {
		t.Fatalf("register levels = %d", len(regs))
	}
	// Upper levels have longer wires, hence at least as many registers.
	for l := 1; l < len(regs); l++ {
		if regs[l] > regs[l-1] {
			t.Errorf("registers increase with depth: %v", regs)
		}
	}
}

func TestQueryFindsInserted(t *testing.T) {
	m := machine(t, 5)
	ops := []Op{
		{Insert, 10}, {Insert, 20}, {Insert, 30},
		{Query, 10}, {Query, 20}, {Query, 30}, {Query, 99},
	}
	results, st, err := m.Run(ops)
	if err != nil {
		t.Fatal(err)
	}
	for i, want := range []bool{false, false, false, true, true, true, false} {
		if results[i].Found != want {
			t.Errorf("op %d found=%v, want %v", i, results[i].Found, want)
		}
	}
	if st.TotalCycles <= 0 {
		t.Errorf("TotalCycles = %d", st.TotalCycles)
	}
}

func TestGoldenSetSemantics(t *testing.T) {
	m := machine(t, 6)
	rng := stats.NewRNG(3)
	set := make(map[int64]bool)
	var ops []Op
	for i := 0; i < 300; i++ {
		key := int64(rng.Intn(60))
		if rng.Bernoulli(0.5) {
			ops = append(ops, Op{Insert, key})
			set[key] = true
		} else {
			ops = append(ops, Op{Query, key})
		}
	}
	// Re-simulate the golden answers in issue order.
	want := make([]bool, len(ops))
	golden := make(map[int64]bool)
	for i, op := range ops {
		if op.Kind == Insert {
			golden[op.Key] = true
		} else {
			want[i] = golden[op.Key]
		}
	}
	results, _, err := m.Run(ops)
	if err != nil {
		t.Fatal(err)
	}
	for i, r := range results {
		if r.Op.Kind == Query && r.Found != want[i] {
			t.Errorf("op %d (query %d) = %v, want %v", i, r.Op.Key, r.Found, want[i])
		}
	}
}

func TestConstantPipelineInterval(t *testing.T) {
	// One query per cycle, answers one per cycle: sustained interval ≈ 1
	// regardless of machine size.
	for _, levels := range []int{4, 6, 8} {
		m := machine(t, levels)
		ops := make([]Op, 200)
		for i := range ops {
			ops[i] = Op{Query, int64(i)}
		}
		_, st, err := m.Run(ops)
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(st.Interval-1) > 0.05 {
			t.Errorf("levels=%d: interval = %g, want ≈1", levels, st.Interval)
		}
	}
}

func TestLatencyGrowsAsSqrtN(t *testing.T) {
	// Latency is dominated by register chains on the upper H-tree edges:
	// quadrupling N (2 more levels) should roughly double latency once
	// wires are long enough to need registers.
	l8 := machine(t, 8).Latency()
	l12 := machine(t, 12).Latency()
	ratio := float64(l12) / float64(l8)
	// N grows 16×, √N grows 4×; node-visit terms dilute it slightly.
	if ratio < 2.5 || ratio > 5 {
		t.Errorf("latency ratio = %g (l8=%d l12=%d), want ≈4", ratio, l8, l12)
	}
}

func TestMeasuredLatencyMatchesFormula(t *testing.T) {
	m := machine(t, 6)
	results, _, err := m.Run([]Op{{Query, 42}})
	if err != nil {
		t.Fatal(err)
	}
	got := results[0].AnswerCycle - results[0].IssueCycle
	if got != m.Latency() {
		t.Errorf("measured latency %d != formula %d", got, m.Latency())
	}
}

func TestRegistersAreaLinear(t *testing.T) {
	// Total registers and layout area both O(N): ratios bounded as N grows.
	var prevRegRatio, prevAreaRatio float64
	for _, levels := range []int{6, 8, 10} {
		m := machine(t, levels)
		n := float64(m.Nodes())
		regRatio := float64(m.TotalRegisters()) / n
		areaRatio := m.LayoutArea() / n
		if prevRegRatio > 0 && regRatio > prevRegRatio*1.7 {
			t.Errorf("levels=%d: registers/N = %g grew from %g", levels, regRatio, prevRegRatio)
		}
		if prevAreaRatio > 0 && areaRatio > prevAreaRatio*1.7 {
			t.Errorf("levels=%d: area/N = %g grew from %g", levels, areaRatio, prevAreaRatio)
		}
		prevRegRatio, prevAreaRatio = regRatio, areaRatio
	}
}

func TestInsertRoutingBalances(t *testing.T) {
	m := machine(t, 5)
	ops := make([]Op, 64)
	for i := range ops {
		ops[i] = Op{Insert, int64(i)}
	}
	if _, _, err := m.Run(ops); err != nil {
		t.Fatal(err)
	}
	// All queries for the inserted keys succeed afterwards.
	var queries []Op
	for i := 0; i < 64; i++ {
		queries = append(queries, Op{Query, int64(i)})
	}
	// New run loses the state — run inserts and queries together instead.
	both := append(append([]Op(nil), ops...), queries...)
	results, _, err := m.Run(both)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range results[64:] {
		if !r.Found {
			t.Errorf("key %d not found after insert", r.Op.Key)
		}
	}
}

func TestRunRejectsEmpty(t *testing.T) {
	m := machine(t, 3)
	if _, _, err := m.Run(nil); err == nil {
		t.Error("empty ops accepted")
	}
}

func TestSingleNodeMachine(t *testing.T) {
	m := machine(t, 1)
	results, _, err := m.Run([]Op{{Insert, 7}, {Query, 7}, {Query, 8}})
	if err != nil {
		t.Fatal(err)
	}
	if !results[1].Found || results[2].Found {
		t.Errorf("single-node results wrong: %+v", results)
	}
	if m.Latency() != 1 {
		t.Errorf("single-node latency = %d, want 1", m.Latency())
	}
}
