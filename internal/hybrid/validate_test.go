package hybrid

// Table-driven coverage of Config.validate's individual error paths
// (each diagnostic must name the offending parameter) and of
// SimulateHandshake's wave-count edge cases: rejected non-positive wave
// counts, the degenerate one-wave run, and single-element systems whose
// handshake involves no neighbors at all.

import (
	"math"
	"strings"
	"testing"

	"repro/internal/comm"
)

func TestConfigValidateErrorPaths(t *testing.T) {
	valid := Config{ElementSize: 2, Handshake: 1, LocalDistribution: 0.5, CellDelay: 1, HoldDelay: 0.5}
	cases := []struct {
		name    string
		mutate  func(*Config)
		wantErr string // substring of the diagnostic; "" means accepted
	}{
		{"valid", func(*Config) {}, ""},
		{"zero local distribution ok", func(c *Config) { c.LocalDistribution = 0 }, ""},
		{"hold equals cell delay ok", func(c *Config) { c.HoldDelay = c.CellDelay }, ""},
		{"zero element size", func(c *Config) { c.ElementSize = 0 }, "ElementSize"},
		{"negative element size", func(c *Config) { c.ElementSize = -3 }, "ElementSize"},
		{"zero handshake", func(c *Config) { c.Handshake = 0 }, "Handshake"},
		{"negative handshake", func(c *Config) { c.Handshake = -0.1 }, "Handshake"},
		{"negative local distribution", func(c *Config) { c.LocalDistribution = -0.5 }, "LocalDistribution"},
		{"zero hold delay", func(c *Config) { c.HoldDelay = 0 }, "HoldDelay"},
		{"negative hold delay", func(c *Config) { c.HoldDelay = -1 }, "HoldDelay"},
		{"hold above cell delay", func(c *Config) { c.HoldDelay = c.CellDelay + 1 }, "HoldDelay"},
		{"zero cell delay", func(c *Config) { c.CellDelay = 0 }, "HoldDelay"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cfg := valid
			tc.mutate(&cfg)
			err := cfg.Validate()
			if tc.wantErr == "" {
				if err != nil {
					t.Fatalf("config rejected: %v", err)
				}
				return
			}
			if err == nil {
				t.Fatalf("config accepted, want error naming %s", tc.wantErr)
			}
			if !strings.Contains(err.Error(), tc.wantErr) {
				t.Fatalf("diagnostic %q does not name %s", err, tc.wantErr)
			}
		})
	}
}

func TestSimulateHandshakeRejectsNonPositiveWaves(t *testing.T) {
	g, err := comm.Mesh(3, 3)
	if err != nil {
		t.Fatal(err)
	}
	s, err := New(g, Config{ElementSize: 2, Handshake: 1, CellDelay: 1, HoldDelay: 0.5})
	if err != nil {
		t.Fatal(err)
	}
	for _, waves := range []int{0, -1, -100} {
		if _, err := s.SimulateHandshake(waves); err == nil {
			t.Errorf("SimulateHandshake(%d) accepted", waves)
		}
	}
}

func TestSimulateHandshakeSingleWave(t *testing.T) {
	g, err := comm.Mesh(3, 3)
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{ElementSize: 2, Handshake: 1, LocalDistribution: 0.25, CellDelay: 1, HoldDelay: 0.5}
	s, err := New(g, cfg)
	if err != nil {
		t.Fatal(err)
	}
	times, err := s.SimulateHandshake(1)
	if err != nil {
		t.Fatal(err)
	}
	// Rows carry one entry per element plus the host at the last index.
	if len(times) != 1 || len(times[0]) != s.NumElements()+1 {
		t.Fatalf("got %d waves × %d entries, want 1 × %d", len(times), len(times[0]), s.NumElements()+1)
	}
	// With no predecessor wave, every element's first firing (and the
	// host's) is one uniform wave cost after start.
	for e, ft := range times[0] {
		if math.Abs(ft-cfg.WaveCost()) > 1e-9 {
			t.Errorf("element %d fires at %g, want WaveCost %g", e, ft, cfg.WaveCost())
		}
	}
}

func TestSimulateHandshakeSingleElement(t *testing.T) {
	g, err := comm.Linear(1)
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{ElementSize: 4, Handshake: 0.5, LocalDistribution: 0.1, CellDelay: 2, HoldDelay: 1}
	s, err := New(g, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if s.NumElements() != 1 {
		t.Fatalf("expected a single element, got %d", s.NumElements())
	}
	const waves = 5
	times, err := s.SimulateHandshake(waves)
	if err != nil {
		t.Fatal(err)
	}
	// A lone element has nobody to wait for: the recurrence collapses to
	// t(k) = (k+1)·WaveCost, and the simulated protocol must agree with
	// the closed form exactly.
	ft := s.FiringTimes(waves)
	for k := 0; k < waves; k++ {
		want := float64(k+1) * cfg.WaveCost()
		if math.Abs(times[k][0]-want) > 1e-9 {
			t.Errorf("wave %d fires at %g, want %g", k, times[k][0], want)
		}
		if math.Abs(times[k][0]-ft[k][0]) > 1e-9 {
			t.Errorf("wave %d: simulation %g disagrees with recurrence %g", k, times[k][0], ft[k][0])
		}
	}
	if ct := s.CycleTime(waves); math.Abs(ct-cfg.WaveCost()) > 1e-9 {
		t.Errorf("cycle time %g, want WaveCost %g", ct, cfg.WaveCost())
	}
}
