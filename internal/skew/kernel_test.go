package skew

import (
	"context"
	"testing"

	"repro/internal/clocktree"
	"repro/internal/comm"
	"repro/internal/stats"
)

// diffCase is one (graph, tree) layout the kernel is differentially
// tested over. The set spans every tree builder and both regular and
// seeded-random layouts, so the kernel's precomputed geometry and edge
// schedule are exercised on balanced, path-shaped, and irregular trees.
type diffCase struct {
	name string
	g    *comm.Graph
	tr   *clocktree.Tree
}

func diffCases(t *testing.T) []diffCase {
	t.Helper()
	var cases []diffCase
	add := func(name string, g *comm.Graph, tr *clocktree.Tree, err error) {
		t.Helper()
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		cases = append(cases, diffCase{name: name, g: g, tr: tr})
	}

	mesh57 := meshGraph(t, 5, 7)
	tr, err := clocktree.HTree(mesh57)
	add("htree/mesh-5x7", mesh57, tr, err)
	tr, err = clocktree.Serpentine(mesh57)
	add("serpentine/mesh-5x7", mesh57, tr, err)
	tr, err = clocktree.RandomBinary(mesh57, stats.NewRNG(11))
	add("random-11/mesh-5x7", mesh57, tr, err)
	tr, err = clocktree.RandomBinary(mesh57, stats.NewRNG(5))
	add("random-5/mesh-5x7", mesh57, tr, err)

	mesh8 := meshArray(t, 8)
	tr, err = clocktree.HTree(mesh8)
	add("htree/mesh-8x8", mesh8, tr, err)
	base, err := clocktree.HTree(mesh8)
	if err != nil {
		t.Fatal(err)
	}
	tr, err = clocktree.Buffered(base, 2.5)
	add("buffered-htree/mesh-8x8", mesh8, tr, err)

	lin23 := linearArray(t, 23)
	tr, err = clocktree.Spine(lin23)
	add("spine/linear-23", lin23, tr, err)

	cbt, err := comm.CompleteBinaryTree(4)
	if err != nil {
		t.Fatal(err)
	}
	tr, err = clocktree.AlongCommTree(cbt)
	add("alongcomm/cbt-4", cbt, tr, err)

	ring9 := ringGraph(t, 9)
	tr, err = clocktree.Ladder(ring9)
	add("ladder/ring-9", ring9, tr, err)

	return cases
}

func meshGraph(t *testing.T, rows, cols int) *comm.Graph {
	t.Helper()
	g, err := comm.Mesh(rows, cols)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func ringGraph(t *testing.T, n int) *comm.Graph {
	t.Helper()
	g, err := comm.Ring(n)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func diffModels() []Model {
	return []Model{
		Difference{},
		Difference{F: func(d float64) float64 { return 3*d + 1 }},
		Summation{G: func(s float64) float64 { return 1.5 * s }, Beta: 0.2},
		Linear{M: 2, Eps: 0.3},
	}
}

// The kernel-backed Analyze must reproduce the retained reference —
// which re-enumerates pairs from the raw edge set and recomputes every
// distance through the parent-walk LCA — field for field with zero
// tolerance. This is simultaneously the offline-batch vs parent-walk
// LCA cross-check on real workloads.
func TestKernelAnalyzeMatchesReference(t *testing.T) {
	for _, c := range diffCases(t) {
		for _, m := range diffModels() {
			got, err := Analyze(c.g, c.tr, m)
			if err != nil {
				t.Fatalf("%s/%s: Analyze: %v", c.name, m.Name(), err)
			}
			want, err := ReferenceAnalyze(c.g, c.tr, m)
			if err != nil {
				t.Fatalf("%s/%s: ReferenceAnalyze: %v", c.name, m.Name(), err)
			}
			if got != want {
				t.Errorf("%s/%s: kernel %+v != reference %+v", c.name, m.Name(), got, want)
			}
		}
	}
}

func TestKernelGuaranteedMinSkewMatchesReference(t *testing.T) {
	for _, c := range diffCases(t) {
		for _, m := range diffModels() {
			got := GuaranteedMinSkew(c.g, c.tr, m)
			want := ReferenceGuaranteedMinSkew(c.g, c.tr, m)
			if got != want {
				t.Errorf("%s/%s: kernel %g != reference %g", c.name, m.Name(), got, want)
			}
		}
	}
}

// The kernel's flat edge schedule must draw per-edge random delays in
// exactly the order the reference's recursive walk does, so Monte-Carlo
// results are bit-identical — not merely close — for any seed.
func TestKernelMonteCarloMatchesReference(t *testing.T) {
	m := Linear{M: 1, Eps: 0.1}
	for _, c := range diffCases(t) {
		for _, seed := range []int64{1, 42, 987654321} {
			got, err := MonteCarlo(c.g, c.tr, m, 16, stats.NewRNG(seed))
			if err != nil {
				t.Fatalf("%s: MonteCarlo: %v", c.name, err)
			}
			want, err := ReferenceMonteCarlo(c.g, c.tr, m, 16, stats.NewRNG(seed))
			if err != nil {
				t.Fatalf("%s: ReferenceMonteCarlo: %v", c.name, err)
			}
			if got != want {
				t.Errorf("%s seed=%d: kernel %v != reference %v", c.name, seed, got, want)
			}
		}
	}
}

// Chunked parallel execution is a max-reduction over per-trial results,
// so any worker count and chunking must be bit-identical to sequential.
func TestKernelMonteCarloParallelMatchesSequentialAnyWorkers(t *testing.T) {
	g := meshArray(t, 8)
	tr, err := clocktree.HTree(g)
	if err != nil {
		t.Fatal(err)
	}
	k, err := NewKernel(g, tr)
	if err != nil {
		t.Fatal(err)
	}
	m := Linear{M: 1, Eps: 0.1}
	const trials = 137 // deliberately not a multiple of any chunk size
	want, err := k.MonteCarlo(m, trials, stats.NewRNG(7))
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{1, 2, 3, 4, 8, 16} {
		got, err := k.MonteCarloParallel(context.Background(), workers, m, trials, stats.NewRNG(7))
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if got != want {
			t.Errorf("workers=%d: parallel %v != sequential %v", workers, got, want)
		}
	}
}

func TestNewKernelRejectsNonCoveringTree(t *testing.T) {
	g := meshArray(t, 4)
	other := meshArray(t, 8)
	tr, err := clocktree.HTree(g)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := NewKernel(other, tr); err == nil {
		t.Fatal("NewKernel accepted a tree that does not cover the graph")
	}
}

func TestKernelMonteCarloValidatesModel(t *testing.T) {
	g := meshArray(t, 4)
	tr, err := clocktree.HTree(g)
	if err != nil {
		t.Fatal(err)
	}
	k, err := NewKernel(g, tr)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := k.MonteCarlo(Linear{M: 1, Eps: 2}, 1, stats.NewRNG(1)); err == nil {
		t.Error("kernel MonteCarlo accepted Eps > M")
	}
	if _, err := k.MonteCarloParallel(context.Background(), 2, Linear{M: -1, Eps: -2}, 1, stats.NewRNG(1)); err == nil {
		t.Error("kernel MonteCarloParallel accepted Eps < 0")
	}
}

// A steady-state Monte-Carlo trial must not allocate: units and arrivals
// live in the kernel's arena pool, and the trial body only indexes flat
// arrays. This is the property that lets the serving path run thousands
// of trials per request without GC pressure.
func TestKernelTrialSteadyStateZeroAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates")
	}
	g := meshArray(t, 8)
	tr, err := clocktree.HTree(g)
	if err != nil {
		t.Fatal(err)
	}
	k, err := NewKernel(g, tr)
	if err != nil {
		t.Fatal(err)
	}
	m := Linear{M: 1, Eps: 0.1}
	rng := stats.NewRNG(3)
	k.Trial(m, rng) // warm the arena pool
	if allocs := testing.AllocsPerRun(100, func() {
		k.Trial(m, rng)
	}); allocs != 0 {
		t.Errorf("steady-state trial allocates %.1f objects/op, want 0", allocs)
	}
}
