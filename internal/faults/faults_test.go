package faults

import (
	"math"
	"strings"
	"testing"
)

func enabledConfig() Config {
	return Config{
		DropProb: 0.2, RetransmitTimeout: 3,
		DelayProb: 0.3, MaxDelay: 1.5,
		JitterProb: 0.25, MaxJitter: 0.8,
		MetastableProb: 0.1, MetastableStall: 0.6,
	}
}

func TestConfigValidate(t *testing.T) {
	cases := []struct {
		name    string
		mutate  func(*Config)
		wantErr string
	}{
		{"zero config valid", func(c *Config) { *c = Config{} }, ""},
		{"full config valid", func(c *Config) {}, ""},
		{"negative drop prob", func(c *Config) { c.DropProb = -0.1 }, "DropProb"},
		{"drop prob above one", func(c *Config) { c.DropProb = 1.5 }, "DropProb"},
		{"drop without timeout", func(c *Config) { c.RetransmitTimeout = 0 }, "RetransmitTimeout"},
		{"delay without max", func(c *Config) { c.MaxDelay = 0 }, "MaxDelay"},
		{"jitter without max", func(c *Config) { c.MaxJitter = 0 }, "MaxJitter"},
		{"metastable without stall", func(c *Config) { c.MetastableStall = 0 }, "MetastableStall"},
		{"delay prob above one", func(c *Config) { c.DelayProb = 2 }, "DelayProb"},
		{"jitter prob negative", func(c *Config) { c.JitterProb = -1 }, "JitterProb"},
		{"metastable prob above one", func(c *Config) { c.MetastableProb = 1.1 }, "MetastableProb"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cfg := enabledConfig()
			tc.mutate(&cfg)
			err := cfg.Validate()
			if tc.wantErr == "" {
				if err != nil {
					t.Fatalf("Validate() = %v, want nil", err)
				}
				return
			}
			if err == nil || !strings.Contains(err.Error(), tc.wantErr) {
				t.Fatalf("Validate() = %v, want error mentioning %q", err, tc.wantErr)
			}
		})
	}
}

func TestNilInjectorInjectsNothing(t *testing.T) {
	var in *Injector
	if x := in.MessageExtra(7); x != 0 {
		t.Errorf("nil MessageExtra = %g, want 0", x)
	}
	if x := in.EdgeJitter(7); x != 0 {
		t.Errorf("nil EdgeJitter = %g, want 0", x)
	}
	if c := in.Counts(); c != (Counts{}) {
		t.Errorf("nil Counts = %+v, want zero", c)
	}
	if in.TotalExtra() != 0 {
		t.Errorf("nil TotalExtra = %g, want 0", in.TotalExtra())
	}
}

// TestKeyedDeterminism: decisions are a function of (seed, key) alone —
// evaluation order must not matter, and the same key must repeat its
// outcome across injectors with the same seed.
func TestKeyedDeterminism(t *testing.T) {
	const n = 500
	a, err := New(enabledConfig(), 42)
	if err != nil {
		t.Fatal(err)
	}
	b, err := New(enabledConfig(), 42)
	if err != nil {
		t.Fatal(err)
	}
	forward := make([]float64, n)
	for k := 0; k < n; k++ {
		forward[k] = a.MessageExtra(uint64(k))
	}
	for k := n - 1; k >= 0; k-- {
		if got := b.MessageExtra(uint64(k)); got != forward[k] {
			t.Fatalf("key %d: reverse-order draw %g != forward-order draw %g", k, got, forward[k])
		}
	}
	if a.Counts() != b.Counts() {
		t.Errorf("counts diverged: %+v vs %+v", a.Counts(), b.Counts())
	}
	// The accumulator is summed in call order, so forward and reverse
	// evaluation may differ by float rounding — but nothing more.
	if d := math.Abs(a.TotalExtra() - b.TotalExtra()); d > 1e-9*(1+a.TotalExtra()) {
		t.Errorf("total extra diverged: %g vs %g", a.TotalExtra(), b.TotalExtra())
	}
}

func TestSeedsDecorrelate(t *testing.T) {
	a, _ := New(enabledConfig(), 1)
	b, _ := New(enabledConfig(), 2)
	same := 0
	const n = 300
	for k := 0; k < n; k++ {
		if a.MessageExtra(uint64(k)) == b.MessageExtra(uint64(k)) {
			same++
		}
	}
	// Both are 0 roughly half the time, so agreement is common — but
	// perfect agreement means the seed is being ignored.
	if same == n {
		t.Error("different seeds produced identical fault patterns")
	}
}

// TestExtrasWithinBounds: every handed-out extra respects the per-event
// bound WorstMessageExtra / MaxJitter, and the accumulators match.
func TestExtrasWithinBounds(t *testing.T) {
	cfg := enabledConfig()
	in, err := New(cfg, 7)
	if err != nil {
		t.Fatal(err)
	}
	var sum float64
	worst := cfg.WorstMessageExtra()
	for k := 0; k < 2000; k++ {
		x := in.MessageExtra(uint64(k))
		if x < 0 || x > worst {
			t.Fatalf("MessageExtra(%d) = %g outside [0, %g]", k, x, worst)
		}
		sum += x
		j := in.EdgeJitter(uint64(k))
		if j < 0 || j > cfg.MaxJitter {
			t.Fatalf("EdgeJitter(%d) = %g outside [0, %g]", k, j, cfg.MaxJitter)
		}
		sum += j
	}
	if got := in.TotalExtra(); got != sum {
		t.Errorf("TotalExtra = %g, want %g", got, sum)
	}
	c := in.Counts()
	if c.Messages != 2000 {
		t.Errorf("Messages = %d, want 2000", c.Messages)
	}
	if c.Dropped == 0 || c.Delayed == 0 || c.Jittered == 0 || c.Metastable == 0 {
		t.Errorf("expected every fault class to fire at these rates, got %+v", c)
	}
	if c.Faults() != c.Dropped+c.Delayed+c.Jittered+c.Metastable {
		t.Errorf("Faults() = %d inconsistent with %+v", c.Faults(), c)
	}
}

func TestRatesRoughlyMatch(t *testing.T) {
	cfg := Config{DropProb: 0.5, RetransmitTimeout: 1}
	in, err := New(cfg, 99)
	if err != nil {
		t.Fatal(err)
	}
	const n = 4000
	for k := 0; k < n; k++ {
		in.MessageExtra(uint64(k))
	}
	frac := float64(in.Counts().Dropped) / n
	if frac < 0.4 || frac > 0.6 {
		t.Errorf("drop fraction %g far from configured 0.5", frac)
	}
}

func TestWorstMessageExtra(t *testing.T) {
	cases := []struct {
		cfg  Config
		want float64
	}{
		{Config{}, 0},
		{Config{DropProb: 0.1, RetransmitTimeout: 3}, 3},
		{Config{DelayProb: 0.1, MaxDelay: 5}, 5},
		{Config{DropProb: 0.1, RetransmitTimeout: 3, DelayProb: 0.1, MaxDelay: 5}, 5},
		{Config{DropProb: 0.1, RetransmitTimeout: 3, MetastableProb: 0.1, MetastableStall: 2}, 5},
		{Config{MetastableProb: 0.1, MetastableStall: 2}, 2},
	}
	for i, tc := range cases {
		if got := tc.cfg.WorstMessageExtra(); got != tc.want {
			t.Errorf("case %d: WorstMessageExtra = %g, want %g", i, got, tc.want)
		}
	}
}
