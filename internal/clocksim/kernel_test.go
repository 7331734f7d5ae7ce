package clocksim

import (
	"testing"

	"repro/internal/clocktree"
	"repro/internal/comm"
	"repro/internal/faults"
	"repro/internal/stats"
)

type clockCase struct {
	g  *comm.Graph
	tr *clocktree.Tree
}

// topologies yields the (graph, tree) pairs the kernel-vs-reference
// tests run over: every tree builder on a linear array, a mesh and a
// complete binary tree, buffered and not.
func topologies(t *testing.T) map[string]clockCase {
	t.Helper()
	out := make(map[string]clockCase)
	add := func(name string, g *comm.Graph, tr *clocktree.Tree, err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
		out[name] = clockCase{g, tr}
	}
	lin, sp := spineOn(t, 9)
	add("linear/spine", lin, sp, nil)
	mesh, ht := htreeOn(t, 5)
	add("mesh/htree", mesh, ht, nil)
	serp, err := clocktree.Serpentine(mesh)
	add("mesh/serpentine", mesh, serp, err)
	bf, err := clocktree.Buffered(ht, 1.5)
	add("mesh/htree-buffered", mesh, bf, err)
	bin, err := comm.CompleteBinaryTree(5)
	if err != nil {
		t.Fatal(err)
	}
	dp, err := clocktree.AlongCommTree(bin)
	add("tree/comm", bin, dp, err)
	dpb, err := clocktree.Buffered(dp, 1.5)
	add("tree/comm-buffered", bin, dpb, err)
	return out
}

// injectors returns two identically seeded jitter injectors, one for the
// kernel and one for the reference.
func injectors(t *testing.T, seed int64) (*faults.Injector, *faults.Injector) {
	t.Helper()
	cfg := faults.Config{JitterProb: 0.4, MaxJitter: 0.7}
	a, err := faults.New(cfg, 99+seed)
	if err != nil {
		t.Fatal(err)
	}
	b, err := faults.New(cfg, 99+seed)
	if err != nil {
		t.Fatal(err)
	}
	return a, b
}

// TestKernelMatchesReferenceRegimes is the zero-tolerance differential
// suite through this package's names: every regime of the kernel
// NewKernel builds against the retained reference in reference.go, the
// skew of each regime equal to the reference arrivals' MaxCommSkew, the
// jitter tallies equal, and the drift figures equal. skew's test of the
// same name also holds the kernel's arrivals to the reference node by
// node.
func TestKernelMatchesReferenceRegimes(t *testing.T) {
	p := params()
	for name, tc := range topologies(t) {
		k, err := NewKernel(tc.g, tc.tr)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		check := func(regime string, w float64, err error, want *Arrivals, werr error) {
			t.Helper()
			if err != nil || werr != nil {
				t.Fatalf("%s/%s: kernel %v, reference %v", name, regime, err, werr)
			}
			ws, err := want.MaxCommSkew(tc.g)
			if err != nil {
				t.Fatal(err)
			}
			if w != ws {
				t.Errorf("%s/%s: kernel skew %v != reference skew %v", name, regime, w, ws)
			}
		}

		w, err := k.NominalSkew(p)
		want, werr := ReferenceNominal(tc.tr, p)
		check("nominal", w, err, want, werr)

		for seed := int64(1); seed <= 5; seed++ {
			w, err = k.RandomSkew(p, stats.NewRNG(seed))
			want, werr = ReferenceRandom(tc.tr, p, stats.NewRNG(seed))
			check("random", w, err, want, werr)

			injK, injR := injectors(t, seed)
			w, err = k.JitteredSkew(p, stats.NewRNG(seed), injK)
			want, werr = ReferenceJittered(tc.tr, p, stats.NewRNG(seed), injR)
			check("jittered", w, err, want, werr)
			if injK.Counts() != injR.Counts() {
				t.Errorf("%s/jittered seed %d: kernel tallies %+v != reference %+v", name, seed, injK.Counts(), injR.Counts())
			}
		}

		ix := tc.g.PairIndex()
		for _, pr := range []int64{0, ix.NumPairs() / 2, ix.NumPairs() - 1} {
			a, b := ix.Pair(pr)
			w, err = k.AdversarialSkew(p, a, b)
			want, werr = ReferenceAdversarial(tc.tr, p, a, b)
			check("adversarial", w, err, want, werr)
		}

		if got, want := k.MaxEventDrift(p), ReferenceMaxEventDrift(tc.tr, p); got != want {
			t.Errorf("%s: MaxEventDrift %v != reference %v", name, got, want)
		}
		if got, want := k.MinPipelinedPeriod(p), ReferenceMinPipelinedPeriod(tc.tr, p); got != want {
			t.Errorf("%s: MinPipelinedPeriod %v != reference %v", name, got, want)
		}
	}
}

// TestKernelSkewMatchesArrivals pins the kernel's arena-backed skew
// queries to the allocate-and-scan path: this package's functions'
// Arrivals, scanned by MaxCommSkew.
func TestKernelSkewMatchesArrivals(t *testing.T) {
	p := params()
	for name, tc := range topologies(t) {
		k, err := NewKernel(tc.g, tc.tr)
		if err != nil {
			t.Fatal(err)
		}
		a, b := tc.g.PairIndex().Pair(0)
		injK, injF := injectors(t, 3)
		cases := map[string]struct {
			fast func() (float64, error)
			full func() (*Arrivals, error)
		}{
			"nominal": {
				fast: func() (float64, error) { return k.NominalSkew(p) },
				full: func() (*Arrivals, error) { return Nominal(tc.tr, p) },
			},
			"random": {
				fast: func() (float64, error) { return k.RandomSkew(p, stats.NewRNG(11)) },
				full: func() (*Arrivals, error) { return Random(tc.tr, p, stats.NewRNG(11)) },
			},
			"jittered": {
				fast: func() (float64, error) { return k.JitteredSkew(p, stats.NewRNG(11), injK) },
				full: func() (*Arrivals, error) { return Jittered(tc.tr, p, stats.NewRNG(11), injF) },
			},
			"adversarial": {
				fast: func() (float64, error) { return k.AdversarialSkew(p, a, b) },
				full: func() (*Arrivals, error) { return Adversarial(tc.tr, p, a, b) },
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

// TestPackageEntryPointsMatchReference pins the public functions to the
// retained references.
func TestPackageEntryPointsMatchReference(t *testing.T) {
	p := params()
	_, ht := htreeOn(t, 5)
	bf, err := clocktree.Buffered(ht, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	_, sp := spineOn(t, 9)
	for name, tr := range map[string]*clocktree.Tree{"spine": sp, "htree": ht, "htree-buffered": bf} {
		got, err := Random(tr, p, stats.NewRNG(7))
		if err != nil {
			t.Fatal(err)
		}
		want, err := ReferenceRandom(tr, p, stats.NewRNG(7))
		if err != nil {
			t.Fatal(err)
		}
		for v := range got.at {
			if got.at[v] != want.at[v] {
				t.Errorf("%s: node %d arrival %v != reference %v", name, v, got.at[v], want.at[v])
			}
		}
		if got, want := MaxEventDrift(tr, p), ReferenceMaxEventDrift(tr, p); got != want {
			t.Errorf("%s: MaxEventDrift %v != %v", name, got, want)
		}
	}
}

// TestKernelValidation pins the kernel's regimes, reached through this
// package's names, to the package error contract.
func TestKernelValidation(t *testing.T) {
	g, tr := spineOn(t, 4)
	k, err := NewKernel(g, tr)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := k.NominalSkew(Params{M: 0}); err == nil {
		t.Error("M=0 accepted")
	}
	if _, err := k.RandomSkew(params(), nil); err == nil {
		t.Error("Random without RNG accepted")
	}
	if _, err := k.JitteredSkew(params(), nil, nil); err == nil {
		t.Error("Jittered without RNG accepted")
	}
	if _, err := k.AdversarialSkew(params(), 0, 9999); err == nil {
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
