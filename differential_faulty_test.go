package vlsisync

// Differential tests for the fault-injected paths: every kernelized
// engine's faulty entry point must agree with its retained reference
// implementation at tolerance 0 under one shared injector
// configuration exercising all four fault keys (drop, delay, jitter,
// metastable). The injectors are keyed by (seed, site), so two
// identically seeded injectors draw identical fault patterns on both
// sides — any divergence, in results or in fault tallies, is a kernel
// replay bug, not randomness.

import (
	"testing"

	"repro/internal/clocksim"
	"repro/internal/clocktree"
	"repro/internal/comm"
	"repro/internal/faults"
	"repro/internal/hybrid"
	"repro/internal/selftimed"
	"repro/internal/stats"
)

// allFaultKeys enables every injector mechanism at once.
var allFaultKeys = faults.Config{
	DropProb: 0.12, RetransmitTimeout: 2.5,
	DelayProb: 0.2, MaxDelay: 1.1,
	JitterProb: 0.25, MaxJitter: 0.4,
	MetastableProb: 0.06, MetastableStall: 0.7,
}

// injectorPair returns two identically seeded injectors, one for the
// kernel side and one for the reference side.
func injectorPair(t *testing.T, seed int64) (*faults.Injector, *faults.Injector) {
	t.Helper()
	k, err := faults.New(allFaultKeys, seed)
	if err != nil {
		t.Fatal(err)
	}
	r, err := faults.New(allFaultKeys, seed)
	if err != nil {
		t.Fatal(err)
	}
	return k, r
}

func faultyMesh(t *testing.T, n int) *comm.Graph {
	t.Helper()
	g, err := comm.Mesh(n, n)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// TestDifferentialJitteredClock holds the jittered fast path — the
// regime syncd serves, skew.Kernel's JitteredSkew — to clocksim's
// reference propagation: identical skew and identical fault tallies.
// skew's TestKernelMatchesReferenceRegimes holds the same regime to the
// reference at every tree node.
func TestDifferentialJitteredClock(t *testing.T) {
	g := faultyMesh(t, 5)
	tree, err := clocktree.HTree(g)
	if err != nil {
		t.Fatal(err)
	}
	k, err := clocksim.NewKernel(g, tree)
	if err != nil {
		t.Fatal(err)
	}
	p := clocksim.Params{M: 1, Eps: 0.3}
	for seed := int64(1); seed <= 4; seed++ {
		injK, injR := injectorPair(t, seed*101)
		gs, err := k.JitteredSkew(p, stats.NewRNG(seed), injK)
		if err != nil {
			t.Fatal(err)
		}
		want, err := clocksim.ReferenceJittered(tree, p, stats.NewRNG(seed), injR)
		if err != nil {
			t.Fatal(err)
		}
		ws, err := want.MaxCommSkew(g)
		if err != nil {
			t.Fatal(err)
		}
		if gs != ws {
			t.Fatalf("seed %d: kernel jittered skew %g != reference %g", seed, gs, ws)
		}
		if injK.Counts() != injR.Counts() {
			t.Fatalf("seed %d: kernel tallies %+v != reference %+v", seed, injK.Counts(), injR.Counts())
		}
	}
}

// TestDifferentialFaultyHandshake holds hybrid's fault-injected
// handshake protocol to the reference recurrence at tolerance 0.
func TestDifferentialFaultyHandshake(t *testing.T) {
	sys, err := hybrid.New(faultyMesh(t, 6), hybrid.Config{
		ElementSize: 3, Handshake: 0.5, LocalDistribution: 0.3,
		CellDelay: 2, HoldDelay: 0.5,
	})
	if err != nil {
		t.Fatal(err)
	}
	for seed := int64(1); seed <= 4; seed++ {
		injK, injR := injectorPair(t, seed*77)
		got, err := sys.SimulateHandshakeFaulty(16, injK)
		if err != nil {
			t.Fatal(err)
		}
		want, err := sys.ReferenceSimulateHandshakeFaulty(16, injR)
		if err != nil {
			t.Fatal(err)
		}
		if len(got) != len(want) {
			t.Fatalf("seed %d: %d waves != reference %d", seed, len(got), len(want))
		}
		for k := range got {
			for v := range got[k] {
				if got[k][v] != want[k][v] {
					t.Fatalf("seed %d wave %d element %d: kernel %g != reference %g",
						seed, k, v, got[k][v], want[k][v])
				}
			}
		}
		if injK.Counts() != injR.Counts() {
			t.Fatalf("seed %d: kernel tallies %+v != reference %+v", seed, injK.Counts(), injR.Counts())
		}
	}
}

// TestDifferentialFaultyElastic holds selftimed's fault-injected
// elastic run to the reference event propagation at tolerance 0.
func TestDifferentialFaultyElastic(t *testing.T) {
	g := faultyMesh(t, 5)
	d := selftimed.Delays{Fast: 1, Worst: 3, PWorst: 0.3, Handshake: 0.25}
	for _, depth := range []int{1, 2, 4} {
		for seed := int64(1); seed <= 4; seed++ {
			injK, injR := injectorPair(t, seed*31)
			got, err := selftimed.RunElasticFaulty(g, 16, d, depth, stats.NewRNG(seed), injK)
			if err != nil {
				t.Fatal(err)
			}
			want, err := selftimed.ReferenceRunElasticFaulty(g, 16, d, depth, stats.NewRNG(seed), injR)
			if err != nil {
				t.Fatal(err)
			}
			if got != want {
				t.Fatalf("depth %d seed %d: kernel %+v != reference %+v", depth, seed, got, want)
			}
			if injK.Counts() != injR.Counts() {
				t.Fatalf("depth %d seed %d: kernel tallies %+v != reference %+v",
					depth, seed, injK.Counts(), injR.Counts())
			}
		}
	}
}
