package skew_test

import (
	"testing"

	"repro/internal/clocksim"
	"repro/internal/clocktree"
	"repro/internal/comm"
	"repro/internal/faults"
	"repro/internal/skew"
	"repro/internal/stats"
)

// The clock-regime tests hold skew.Kernel's regimes to clocksim's
// retained reference traversals. They live in an external test package
// because clocksim, which owns the references, builds on this one.

func clockParams() skew.ClockParams {
	return skew.ClockParams{M: 1, Eps: 0.2, BufferDelay: 0.1, MinSeparation: 2, RiseFallBias: 0.05}
}

type clockCase struct {
	g  *comm.Graph
	tr *clocktree.Tree
}

// topologies yields the (graph, tree) pairs the differential tests run
// over: every tree builder on a linear array, a mesh and a complete
// binary tree, buffered and not.
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
	lin, err := comm.Linear(9)
	if err != nil {
		t.Fatal(err)
	}
	mesh, err := comm.Mesh(5, 5)
	if err != nil {
		t.Fatal(err)
	}
	bin, err := comm.CompleteBinaryTree(5)
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
	bf, err = clocktree.Buffered(ht, 0.5)
	add("mesh/htree-buffered0.5", mesh, bf, err)
	dp, err := clocktree.AlongCommTree(bin)
	add("tree/comm", bin, dp, err)
	dpb, err := clocktree.Buffered(dp, 1.5)
	add("tree/comm-buffered", bin, dpb, err)
	return out
}

// sameArrivals compares the arrivals a regime left in a pinned arena
// with the reference's, node by node.
func sameArrivals(t *testing.T, name string, got []float64, want *clocksim.Arrivals) {
	t.Helper()
	for v := range got {
		if w := want.At(clocktree.NodeID(v)); got[v] != w {
			t.Errorf("%s: node %d arrival %v != reference %v", name, v, got[v], w)
		}
	}
}

// TestKernelMatchesReferenceRegimes is the zero-tolerance differential
// suite: every regime, kernel vs retained reference, bit for bit at
// every node, and each regime's skew equal to the reference arrivals'
// MaxCommSkew.
func TestKernelMatchesReferenceRegimes(t *testing.T) {
	p := clockParams()
	for name, tc := range topologies(t) {
		k, err := skew.NewKernel(tc.g, tc.tr)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		at := skew.PinArena(k)
		check := func(regime string, w float64, err error, want *clocksim.Arrivals, werr error) {
			t.Helper()
			if err != nil || werr != nil {
				t.Fatalf("%s/%s: kernel %v, reference %v", name, regime, err, werr)
			}
			sameArrivals(t, name+"/"+regime, at, want)
			ws, err := want.MaxCommSkew(tc.g)
			if err != nil {
				t.Fatal(err)
			}
			if w != ws {
				t.Errorf("%s/%s: kernel skew %v != reference arrivals' skew %v", name, regime, w, ws)
			}
		}

		w, err := k.NominalSkew(p)
		want, werr := clocksim.ReferenceNominal(tc.tr, p)
		check("nominal", w, err, want, werr)

		for seed := int64(1); seed <= 5; seed++ {
			w, err = k.RandomSkew(p, stats.NewRNG(seed))
			want, werr = clocksim.ReferenceRandom(tc.tr, p, stats.NewRNG(seed))
			check("random", w, err, want, werr)

			injK, injR := injectors(t, seed)
			w, err = k.JitteredSkew(p, stats.NewRNG(seed), injK)
			want, werr = clocksim.ReferenceJittered(tc.tr, p, stats.NewRNG(seed), injR)
			check("jittered", w, err, want, werr)
			if injK.Counts() != injR.Counts() {
				t.Errorf("%s/jittered seed %d: kernel tallies %+v != reference %+v", name, seed, injK.Counts(), injR.Counts())
			}
		}

		ix := tc.g.PairIndex()
		for _, pr := range []int64{0, ix.NumPairs() / 2, ix.NumPairs() - 1} {
			a, b := ix.Pair(pr)
			w, err = k.AdversarialSkew(p, a, b)
			want, werr = clocksim.ReferenceAdversarial(tc.tr, p, a, b)
			check("adversarial", w, err, want, werr)
		}

		if got, want := k.MaxEventDrift(p), clocksim.ReferenceMaxEventDrift(tc.tr, p); got != want {
			t.Errorf("%s: MaxEventDrift %v != reference %v", name, got, want)
		}
		if got, want := k.MinPipelinedPeriod(p), clocksim.ReferenceMinPipelinedPeriod(tc.tr, p); got != want {
			t.Errorf("%s: MinPipelinedPeriod %v != reference %v", name, got, want)
		}
	}
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

// TestClockRegimesOnStreamedTier pins the streamed tier's contract: it
// has no per-node scratch, so every regime returns its *SizeError, while
// the drift figures, which need only the buffer count, still answer.
func TestClockRegimesOnStreamedTier(t *testing.T) {
	tc := topologies(t)["mesh/htree-buffered0.5"]
	st, err := skew.NewKernelWithLimits(tc.g, tc.tr, skew.Limits{MaxBytes: 1})
	if err != nil {
		t.Fatal(err)
	}
	p := clockParams()
	if _, err := st.RandomSkew(p, stats.NewRNG(1)); err != st.SizeError() || err == nil {
		t.Fatalf("streamed RandomSkew: got %v, want the kernel's SizeError", err)
	}
	if _, err := st.NominalSkew(p); err != st.SizeError() {
		t.Fatalf("streamed NominalSkew: got %v, want the kernel's SizeError", err)
	}
	if got, want := st.MaxEventDrift(p), clocksim.ReferenceMaxEventDrift(tc.tr, p); got != want || got == 0 {
		t.Fatalf("streamed MaxEventDrift %v, reference %v", got, want)
	}
}

// TestRegimeSteadyStateZeroAllocs pins the serving path's inner loop:
// with a warm arena pool, no regime allocates.
func TestRegimeSteadyStateZeroAllocs(t *testing.T) {
	if skew.RaceEnabled {
		t.Skip("sync.Pool drops items under the race detector")
	}
	tc := topologies(t)["mesh/htree-buffered0.5"]
	k, err := skew.NewKernel(tc.g, tc.tr)
	if err != nil {
		t.Fatal(err)
	}
	p := clockParams()
	rng := stats.NewRNG(7)
	inj, _ := injectors(t, 1)
	a, b := tc.g.PairIndex().Pair(0)
	k.NominalSkew(p) // warm the arena pool
	allocs := testing.AllocsPerRun(50, func() {
		k.NominalSkew(p)
		k.RandomSkew(p, rng)
		k.JitteredSkew(p, rng, inj)
		k.AdversarialSkew(p, a, b)
	})
	if allocs != 0 {
		t.Fatalf("regimes allocate %v times per run", allocs)
	}
}
