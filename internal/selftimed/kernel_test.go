package selftimed

import (
	"testing"

	"repro/internal/comm"
	"repro/internal/faults"
	"repro/internal/stats"
)

func testGraphs(t *testing.T) map[string]*comm.Graph {
	t.Helper()
	out := make(map[string]*comm.Graph)
	add := func(name string, g *comm.Graph, err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
		out[name] = g
	}
	lin, err := comm.Linear(12)
	add("linear12", lin, err)
	mesh, err := comm.Mesh(6, 6)
	add("mesh6", mesh, err)
	ring, err := comm.Ring(9)
	add("ring9", ring, err)
	torus, err := comm.Torus(4, 5)
	add("torus4x5", torus, err)
	return out
}

func testDelays() Delays {
	return Delays{Fast: 1, Worst: 3, PWorst: 0.3, Handshake: 0.25}
}

func sameResult(t *testing.T, name string, got, want Result) {
	t.Helper()
	if got != want {
		t.Errorf("%s: kernel %+v != reference %+v", name, got, want)
	}
}

// TestKernelMatchesReferenceElastic holds the kernel token game to the
// retained reference at tolerance 0 over graphs, depths, wave counts,
// and the degenerate PWorst corners.
func TestKernelMatchesReferenceElastic(t *testing.T) {
	for name, g := range testGraphs(t) {
		k := NewKernel(g)
		for _, depth := range []int{1, 2, 5} {
			for _, waves := range []int{1, 3, 24} {
				for seed := int64(1); seed <= 4; seed++ {
					got, err := k.RunElasticFaulty(waves, testDelays(), depth, stats.NewRNG(seed), nil)
					if err != nil {
						t.Fatal(err)
					}
					want, err := ReferenceRunElastic(g, waves, testDelays(), depth, stats.NewRNG(seed))
					if err != nil {
						t.Fatal(err)
					}
					sameResult(t, name, got, want)
				}
			}
		}
		for _, p := range []float64{0, 1} {
			d := testDelays()
			d.PWorst = p
			got, err := k.RunElasticFaulty(8, d, 2, nil, nil)
			if err != nil {
				t.Fatal(err)
			}
			want, err := ReferenceRunElastic(g, 8, d, 2, nil)
			if err != nil {
				t.Fatal(err)
			}
			sameResult(t, name, got, want)
		}
	}
}

// TestKernelMatchesReferenceFaulty holds the fault-injected token game
// to the reference at tolerance 0, including identical injector counts.
func TestKernelMatchesReferenceFaulty(t *testing.T) {
	cfg := faults.Config{
		DropProb: 0.15, RetransmitTimeout: 2.5,
		DelayProb: 0.25, MaxDelay: 1.2,
		MetastableProb: 0.05, MetastableStall: 0.6,
	}
	for name, g := range testGraphs(t) {
		k := NewKernel(g)
		for _, depth := range []int{1, 3} {
			for seed := int64(1); seed <= 3; seed++ {
				injK, err := faults.New(cfg, seed)
				if err != nil {
					t.Fatal(err)
				}
				injR, err := faults.New(cfg, seed)
				if err != nil {
					t.Fatal(err)
				}
				got, err := k.RunElasticFaulty(16, testDelays(), depth, stats.NewRNG(seed), injK)
				if err != nil {
					t.Fatal(err)
				}
				want, err := ReferenceRunElasticFaulty(g, 16, testDelays(), depth, stats.NewRNG(seed), injR)
				if err != nil {
					t.Fatal(err)
				}
				sameResult(t, name, got, want)
				if gc, wc := injK.Counts(), injR.Counts(); gc != wc {
					t.Errorf("%s: fault counts %+v != reference %+v", name, gc, wc)
				}
			}
		}
	}
}

// TestKernelMatchesReferenceRigid holds RunRigid to the reference at
// tolerance 0, including the PWorst ∈ {0, 1} corners.
func TestKernelMatchesReferenceRigid(t *testing.T) {
	for name, g := range testGraphs(t) {
		k := NewKernel(g)
		for seed := int64(1); seed <= 4; seed++ {
			got, err := k.RunRigid(24, testDelays(), stats.NewRNG(seed))
			if err != nil {
				t.Fatal(err)
			}
			want, err := ReferenceRunRigid(g, 24, testDelays(), stats.NewRNG(seed))
			if err != nil {
				t.Fatal(err)
			}
			sameResult(t, name, got, want)
		}
		for _, p := range []float64{0, 1} {
			d := testDelays()
			d.PWorst = p
			got, err := k.RunRigid(8, d, nil)
			if err != nil {
				t.Fatal(err)
			}
			want, err := ReferenceRunRigid(g, 8, d, nil)
			if err != nil {
				t.Fatal(err)
			}
			sameResult(t, name, got, want)
		}
	}
}

// TestPackageEntryPointsMatchKernel pins the public functions to the
// kernel they now delegate to.
func TestPackageEntryPointsMatchKernel(t *testing.T) {
	g := testGraphs(t)["mesh6"]
	k := NewKernel(g)
	got, err := Run(g, 12, testDelays(), stats.NewRNG(5))
	if err != nil {
		t.Fatal(err)
	}
	want, err := k.RunElasticFaulty(12, testDelays(), 1, stats.NewRNG(5), nil)
	if err != nil {
		t.Fatal(err)
	}
	sameResult(t, "run", got, want)
}

// TestKernelValidationMatchesReference pins the kernel's error contract
// (order and text) to the reference's.
func TestKernelValidationMatchesReference(t *testing.T) {
	g := testGraphs(t)["linear12"]
	k := NewKernel(g)
	cases := []struct {
		name  string
		run   func() error
		refun func() error
	}{
		{"depth", func() error { _, e := k.RunElasticFaulty(4, testDelays(), 0, stats.NewRNG(1), nil); return e },
			func() error { _, e := ReferenceRunElastic(g, 4, testDelays(), 0, stats.NewRNG(1)); return e }},
		{"delays", func() error { _, e := k.RunElasticFaulty(4, Delays{Fast: 2, Worst: 1}, 1, nil, nil); return e },
			func() error { _, e := ReferenceRunElastic(g, 4, Delays{Fast: 2, Worst: 1}, 1, nil); return e }},
		{"waves", func() error { _, e := k.RunElasticFaulty(0, testDelays(), 1, stats.NewRNG(1), nil); return e },
			func() error { _, e := ReferenceRunElastic(g, 0, testDelays(), 1, stats.NewRNG(1)); return e }},
		{"rng", func() error { _, e := k.RunElasticFaulty(4, testDelays(), 1, nil, nil); return e },
			func() error { _, e := ReferenceRunElastic(g, 4, testDelays(), 1, nil); return e }},
		{"rigid-waves", func() error { _, e := k.RunRigid(0, testDelays(), stats.NewRNG(1)); return e },
			func() error { _, e := ReferenceRunRigid(g, 0, testDelays(), stats.NewRNG(1)); return e }},
	}
	for _, c := range cases {
		ke, re := c.run(), c.refun()
		if ke == nil || re == nil {
			t.Fatalf("%s: expected errors, got kernel=%v reference=%v", c.name, ke, re)
		}
		if ke.Error() != re.Error() {
			t.Errorf("%s: kernel error %q != reference %q", c.name, ke, re)
		}
	}
}
