package scale

import (
	"context"
	"errors"
	"strings"
	"testing"
	"time"

	"repro/internal/skew"
)

// tinyCfg keeps real-engine sweeps fast in tests.
func tinyCfg() Config {
	return Config{
		Sides:      []int{4, 8},
		Topologies: []string{"mesh"},
		MinTime:    time.Millisecond,
		MaxIters:   4,
		MCTrials:   1,
		Waves:      1,
	}
}

func TestSweepTinyMeshAllEnginesOK(t *testing.T) {
	r, err := Sweep(context.Background(), tinyCfg())
	if err != nil {
		t.Fatal(err)
	}
	if err := r.Validate(); err != nil {
		t.Fatalf("generated report invalid: %v", err)
	}
	if want := len(allEngines()); len(r.Series) != want {
		t.Fatalf("series = %d, want %d", len(r.Series), want)
	}
	for _, s := range r.Series {
		if s.OKSizes() != 2 {
			t.Errorf("%s/%s: %d ok sizes, want 2 (points %+v)", s.Engine, s.Topology, s.OKSizes(), s.Points)
		}
		for _, p := range s.Points {
			if p.Status != StatusOK {
				continue
			}
			if p.NsPerOp <= 0 || p.Iters <= 0 {
				t.Errorf("%s/%s side %d: unmeasured ok point %+v", s.Engine, s.Topology, p.Side, p)
			}
			if kernelBacked(s.Engine) && p.KernelBytes <= 0 {
				t.Errorf("%s/%s side %d: kernel-backed engine missing kernel_bytes", s.Engine, s.Topology, p.Side)
			}
		}
		if _, ok := s.Fits[MetricNsPerOp]; !ok {
			t.Errorf("%s/%s: missing %s fit", s.Engine, s.Topology, MetricNsPerOp)
		}
	}
}

func kernelBacked(engine string) bool {
	switch engine {
	case "kernel_build", "analyze", "guaranteed_min_skew", "montecarlo":
		return true
	}
	return false
}

func TestSweepMaxCellsSkips(t *testing.T) {
	cfg := tinyCfg()
	cfg.Sides = []int{4, 64}
	cfg.MaxCells = 100 // 4² fits, 64² = 4096 does not
	r, err := Sweep(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range r.Series {
		if got := s.Points[0].Status; got != StatusOK {
			t.Errorf("%s side 4: status %q, want ok", s.Engine, got)
		}
		p := s.Points[1]
		if p.Status != StatusSkipped {
			t.Errorf("%s side 64: status %q, want skipped", s.Engine, p.Status)
		}
		if !strings.Contains(p.Error, "max-cells") {
			t.Errorf("%s side 64: skip reason %q does not mention max-cells", s.Engine, p.Error)
		}
		if p.NsPerOp != 0 || p.Iters != 0 {
			t.Errorf("%s side 64: skipped point carries measurements: %+v", s.Engine, p)
		}
	}
}

func TestSweepPerSizeTimeoutKeepsEarlierEngines(t *testing.T) {
	// A fast engine followed by one that outsleeps the per-size
	// deadline: the fast engine's point survives, the slow one records
	// a timeout, and the sweep still completes every size.
	engines := []engine{
		{name: "fast", run: func(Config, *sizeEnv) error { return nil }},
		{name: "slow", run: func(Config, *sizeEnv) error {
			time.Sleep(2 * time.Second)
			return nil
		}},
	}
	cfg := tinyCfg()
	cfg.SizeTimeout = 100 * time.Millisecond
	cfg = cfg.withDefaults()
	start := time.Now()
	r, err := sweep(context.Background(), cfg, engines)
	if err != nil {
		t.Fatal(err)
	}
	if took := time.Since(start); took > 5*time.Second {
		t.Fatalf("sweep took %s; per-size deadline not enforced", took)
	}
	byEngine := map[string]Series{}
	for _, s := range r.Series {
		byEngine[s.Engine] = s
	}
	fast, slow := byEngine["fast"], byEngine["slow"]
	if fast.OKSizes() != 2 {
		t.Errorf("fast engine: %d ok sizes, want 2: %+v", fast.OKSizes(), fast.Points)
	}
	for _, p := range slow.Points {
		if p.Status != StatusTimeout {
			t.Errorf("slow engine side %d: status %q, want timeout", p.Side, p.Status)
		}
		if !strings.Contains(p.Error, "timeout") {
			t.Errorf("slow engine side %d: error %q does not mention timeout", p.Side, p.Error)
		}
	}
}

func TestSweepEngineErrorRecorded(t *testing.T) {
	engines := []engine{
		{name: "broken", run: func(Config, *sizeEnv) error { return errors.New("engine exploded") }},
		{name: "working", run: func(Config, *sizeEnv) error { return nil }},
	}
	cfg := tinyCfg().withDefaults()
	r, err := sweep(context.Background(), cfg, engines)
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range r.Series {
		for _, p := range s.Points {
			switch s.Engine {
			case "broken":
				if p.Status != StatusError || !strings.Contains(p.Error, "engine exploded") {
					t.Errorf("broken side %d: %+v, want error status with message", p.Side, p)
				}
			case "working":
				if p.Status != StatusOK {
					t.Errorf("working side %d: status %q, want ok", p.Side, p.Status)
				}
			}
		}
	}
}

func TestSweepOversizeKernelRecordsTypedError(t *testing.T) {
	// With a pair budget far below an 8×8 mesh's communicating pairs,
	// kernel construction fails with skew.SizeError; the kernel-backed
	// engines record it and everything else still measures.
	cfg := tinyCfg()
	cfg.Sides = []int{8}
	cfg.Limits = skew.Limits{MaxPairs: 4}
	r, err := Sweep(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range r.Series {
		p := s.Points[0]
		if kernelBacked(s.Engine) {
			if p.Status != StatusError {
				t.Errorf("%s: status %q, want error under MaxPairs=4", s.Engine, p.Status)
				continue
			}
			if !strings.Contains(p.Error, "pairs") {
				t.Errorf("%s: error %q does not name the tripped field", s.Engine, p.Error)
			}
		} else if p.Status != StatusOK {
			t.Errorf("%s: status %q, want ok (kernel limit should not affect it)", s.Engine, p.Status)
		}
	}
}

func TestSweepStreamedEngineRunsPastKernelLimits(t *testing.T) {
	// The streamed engine's whole reason to exist: it measures at sizes
	// the kernel limits reject. Under MaxPairs=4 the kernel-backed
	// engines error while analyze_streamed measures, reports its own
	// (CSR index) footprint, and the footprint stays far below what the
	// flat kernel for the same size would cost.
	cfg := tinyCfg()
	cfg.Sides = []int{8}
	cfg.Engines = []string{"analyze_streamed"}
	cfg.Limits = skew.Limits{MaxPairs: 4}
	r, err := Sweep(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Series) != 1 {
		t.Fatalf("series = %d, want 1", len(r.Series))
	}
	p := r.Series[0].Points[0]
	if p.Status != StatusOK {
		t.Fatalf("analyze_streamed: status %q (%s), want ok despite MaxPairs=4", p.Status, p.Error)
	}
	if p.KernelBytes <= 0 {
		t.Errorf("analyze_streamed point missing streamed-tier footprint, got %d", p.KernelBytes)
	}
	if p.NsPerOp <= 0 || p.Iters <= 0 {
		t.Errorf("unmeasured ok point %+v", p)
	}
}

func TestSweepConfigErrors(t *testing.T) {
	cfg := tinyCfg()
	cfg.Engines = []string{"warp-drive"}
	if _, err := Sweep(context.Background(), cfg); err == nil || !strings.Contains(err.Error(), "warp-drive") {
		t.Errorf("unknown engine: err = %v, want mention of warp-drive", err)
	}
	cfg = tinyCfg()
	cfg.Sides = []int{8, 8}
	if _, err := Sweep(context.Background(), cfg); err == nil || !strings.Contains(err.Error(), "ascending") {
		t.Errorf("non-ascending sides: err = %v", err)
	}
	cfg = tinyCfg()
	cfg.Topologies = []string{"klein-bottle"}
	r, err := Sweep(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range r.Series {
		for _, p := range s.Points {
			if p.Status != StatusError || !strings.Contains(p.Error, "unknown topology") {
				t.Errorf("unknown topology should record error points, got %+v", p)
			}
		}
	}
}

func TestEngineAndTopologyNames(t *testing.T) {
	var names []string
	for _, e := range allEngines() {
		names = append(names, e.name)
	}
	want := []string{"plan", "kernel_build", "analyze", "guaranteed_min_skew",
		"analyze_streamed", "montecarlo", "clocksim", "clocksim_kernel", "hybrid", "selftimed"}
	if len(names) != len(want) {
		t.Fatalf("engine names = %v, want %v", names, want)
	}
	for i := range want {
		if names[i] != want[i] {
			t.Fatalf("engine names = %v, want %v", names, want)
		}
	}
	for _, topo := range []string{"linear", "mesh", "torus", "tree"} {
		if _, err := buildGraph(topo, 4); err != nil {
			t.Errorf("buildGraph(%q, 4): %v", topo, err)
		}
		if cellsAt(topo, 4) <= 0 {
			t.Errorf("cellsAt(%q, 4) non-positive", topo)
		}
	}
}
