package clocksim

import (
	"testing"

	"repro/internal/clocktree"
	"repro/internal/comm"
	"repro/internal/faults"
	"repro/internal/stats"
)

// topologies yields the (graph, tree) pairs the differential tests run
// over: every tree builder on both a linear array and a mesh.
func topologies(t *testing.T) map[string]struct {
	g  *comm.Graph
	tr *clocktree.Tree
} {
	t.Helper()
	out := make(map[string]struct {
		g  *comm.Graph
		tr *clocktree.Tree
	})
	add := func(name string, g *comm.Graph, tr *clocktree.Tree, err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
		out[name] = struct {
			g  *comm.Graph
			tr *clocktree.Tree
		}{g, tr}
	}
	lin, err := comm.Linear(9)
	if err != nil {
		t.Fatal(err)
	}
	mesh, err := comm.Mesh(5, 5)
	if err != nil {
		t.Fatal(err)
	}
	sp, err := clocktree.Spine(lin)
	add("linear/spine", lin, sp, err)
	ht, err := clocktree.HTree(mesh)
	add("mesh/htree", mesh, ht, err)
	serp, err := clocktree.Serpentine(mesh)
	add("mesh/serpentine", mesh, serp, err)
	bf, err := clocktree.Buffered(ht, 1.5)
	add("mesh/htree-buffered", mesh, bf, err)
	return out
}

func sameArrivals(t *testing.T, name string, got, want *Arrivals) {
	t.Helper()
	if len(got.at) != len(want.at) {
		t.Fatalf("%s: node count %d vs %d", name, len(got.at), len(want.at))
	}
	for i := range got.at {
		if got.at[i] != want.at[i] {
			t.Errorf("%s: node %d arrival %v != reference %v", name, i, got.at[i], want.at[i])
		}
	}
}

// TestKernelMatchesReferenceRegimes is the zero-tolerance differential
// suite: every regime, kernel vs retained reference, bit for bit.
func TestKernelMatchesReferenceRegimes(t *testing.T) {
	p := params()
	inj, err := faults.New(faults.Config{JitterProb: 0.4, MaxJitter: 0.7}, 99)
	if err != nil {
		t.Fatal(err)
	}
	for name, tc := range topologies(t) {
		k, err := NewKernel(tc.g, tc.tr)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}

		got, err := k.Nominal(p)
		if err != nil {
			t.Fatal(err)
		}
		want, err := ReferenceNominal(tc.tr, p)
		if err != nil {
			t.Fatal(err)
		}
		sameArrivals(t, name+"/nominal", got, want)

		for seed := int64(1); seed <= 5; seed++ {
			got, err = k.Random(p, stats.NewRNG(seed))
			if err != nil {
				t.Fatal(err)
			}
			want, err = ReferenceRandom(tc.tr, p, stats.NewRNG(seed))
			if err != nil {
				t.Fatal(err)
			}
			sameArrivals(t, name+"/random", got, want)

			got, err = k.Jittered(p, stats.NewRNG(seed), inj)
			if err != nil {
				t.Fatal(err)
			}
			want, err = ReferenceJittered(tc.tr, p, stats.NewRNG(seed), inj)
			if err != nil {
				t.Fatal(err)
			}
			sameArrivals(t, name+"/jittered", got, want)
		}

		ix := tc.g.PairIndex()
		for _, pr := range []int64{0, ix.NumPairs() / 2, ix.NumPairs() - 1} {
			a, b := ix.Pair(pr)
			got, err = k.Adversarial(p, a, b)
			if err != nil {
				t.Fatal(err)
			}
			want, err = ReferenceAdversarial(tc.tr, p, a, b)
			if err != nil {
				t.Fatal(err)
			}
			sameArrivals(t, name+"/adversarial", got, want)
		}

		if got, want := k.MaxEventDrift(p), ReferenceMaxEventDrift(tc.tr, p); got != want {
			t.Errorf("%s: MaxEventDrift %v != reference %v", name, got, want)
		}
		if got, want := k.MinPipelinedPeriod(p), ReferenceMinPipelinedPeriod(tc.tr, p); got != want {
			t.Errorf("%s: MinPipelinedPeriod %v != reference %v", name, got, want)
		}
	}
}

// TestPackageEntryPointsMatchReference pins the public functions (now
// kernel-backed) to the retained references.
func TestPackageEntryPointsMatchReference(t *testing.T) {
	p := params()
	for name, tc := range topologies(t) {
		got, err := Random(tc.tr, p, stats.NewRNG(7))
		if err != nil {
			t.Fatal(err)
		}
		want, err := ReferenceRandom(tc.tr, p, stats.NewRNG(7))
		if err != nil {
			t.Fatal(err)
		}
		sameArrivals(t, name, got, want)
		if got, want := MaxEventDrift(tc.tr, p), ReferenceMaxEventDrift(tc.tr, p); got != want {
			t.Errorf("%s: MaxEventDrift %v != %v", name, got, want)
		}
	}
}

// TestKernelSkewMatchesArrivals pins the arena-backed skew queries to
// the allocate-and-scan path through Arrivals.MaxCommSkew.
func TestKernelSkewMatchesArrivals(t *testing.T) {
	p := params()
	inj, err := faults.New(faults.Config{JitterProb: 0.5, MaxJitter: 1.5}, 3)
	if err != nil {
		t.Fatal(err)
	}
	for name, tc := range topologies(t) {
		k, err := NewKernel(tc.g, tc.tr)
		if err != nil {
			t.Fatal(err)
		}
		type pathPair struct {
			fast func() (float64, error)
			full func() (*Arrivals, error)
		}
		cases := map[string]pathPair{
			"nominal": {
				fast: func() (float64, error) { return k.NominalSkew(p) },
				full: func() (*Arrivals, error) { return k.Nominal(p) },
			},
			"random": {
				fast: func() (float64, error) { return k.RandomSkew(p, stats.NewRNG(11)) },
				full: func() (*Arrivals, error) { return k.Random(p, stats.NewRNG(11)) },
			},
			"jittered": {
				fast: func() (float64, error) { return k.JitteredSkew(p, stats.NewRNG(11), inj) },
				full: func() (*Arrivals, error) { return k.Jittered(p, stats.NewRNG(11), inj) },
			},
			"adversarial": {
				fast: func() (float64, error) {
					a, b := tc.g.PairIndex().Pair(0)
					return k.AdversarialSkew(p, a, b)
				},
				full: func() (*Arrivals, error) {
					a, b := tc.g.PairIndex().Pair(0)
					return k.Adversarial(p, a, b)
				},
			},
		}
		for regime, c := range cases {
			fast, err := c.fast()
			if err != nil {
				t.Fatal(err)
			}
			arr, err := c.full()
			if err != nil {
				t.Fatal(err)
			}
			want, err := arr.MaxCommSkew(tc.g)
			if err != nil {
				t.Fatal(err)
			}
			if fast != want {
				t.Errorf("%s/%s: kernel skew %v != arrivals skew %v", name, regime, fast, want)
			}
		}
	}
}

// TestTreeOnlyKernelRejectsSkewQueries pins the error contract for
// kernels built without a graph.
func TestTreeOnlyKernelRejectsSkewQueries(t *testing.T) {
	_, tr := spineOn(t, 4)
	k := newTreeKernel(tr)
	if _, err := k.NominalSkew(params()); err == nil {
		t.Fatal("tree-only kernel accepted a pair-skew query")
	}
}

// TestKernelValidation pins the kernel methods to the package error
// contract.
func TestKernelValidation(t *testing.T) {
	g, tr := spineOn(t, 4)
	k, err := NewKernel(g, tr)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := k.Nominal(Params{M: 0}); err == nil {
		t.Error("M=0 accepted")
	}
	if _, err := k.Random(params(), nil); err == nil {
		t.Error("Random without RNG accepted")
	}
	if _, err := k.Adversarial(params(), 0, 9999); err == nil {
		t.Error("unclocked cell accepted")
	}
	other, err := comm.Mesh(3, 3)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := NewKernel(other, tr); err == nil {
		t.Error("non-covering tree accepted")
	}
}
