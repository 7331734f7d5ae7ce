package clocksim

import (
	"fmt"
	"math"
	"sync"

	"repro/internal/clocktree"
	"repro/internal/comm"
	"repro/internal/faults"
	"repro/internal/stats"
)

// Kernel is an immutable precomputation over one clock tree (optionally
// paired with one communication graph) that turns every delay regime
// into flat-array accumulation. Built once — a single traversal — it
// caches:
//
//   - a parent-before-child edge schedule recorded in exactly the order
//     the pre-kernel stack traversal visited edges, so random per-edge
//     delays are drawn in the same sequence and results are
//     bit-identical to the reference;
//   - per-edge electrical lengths and buffer flags, replacing the
//     tree.EdgeLen/tree.Node method calls and the per-edge closures;
//   - the communicating pairs resolved to flat tree-node indices, so a
//     regime's worst comm skew is one pass over two int32 arrays;
//   - the worst root-path buffer count, making MaxEventDrift O(1).
//
// A Kernel is safe for concurrent use: regime scratch lives in a
// sync.Pool of per-worker arenas, so steady-state skew queries allocate
// nothing. The serving stack caches Kernels by content-addressed
// (graph, tree) hash and reuses them across requests with different
// parameters, trials, and seeds.
type Kernel struct {
	tree  *clocktree.Tree
	graph *comm.Graph // nil for tree-only kernels

	// Edge schedule in the pre-kernel stack-traversal order: node
	// child[i] has parent parent[i], electrical edge length length[i],
	// and a buffer at its head iff buffered[i]. Every node's incoming
	// edge appears before any of its outgoing edges, so one forward pass
	// computes final arrival times.
	child    []int32
	parent   []int32
	length   []float64
	buffered []bool

	pairA, pairB []int32 // tree-node index of each pair's endpoints, in PairIndex order

	worstBuffers int // max root-path buffer count over nodes

	arenas sync.Pool // *csArena, reused across trials
}

// csArena is one worker's regime scratch: per-edge unit delays and
// per-node arrival times.
type csArena struct {
	units []float64
	at    []float64
}

// NewKernel validates that tree clocks every cell of g and precomputes
// the edge schedule, pair indices, and buffer depth. Construction is
// O(nodes + pairs); afterwards each regime query touches only flat
// arrays.
func NewKernel(g *comm.Graph, tree *clocktree.Tree) (*Kernel, error) {
	if !tree.Covers(g) {
		return nil, fmt.Errorf("clocksim: tree %q does not clock every cell of %q", tree.Name, g.Name)
	}
	k := newTreeKernel(tree)
	k.graph = g
	k.pairA, k.pairB = tree.PairNodes(g.PairIndex())
	return k, nil
}

// newTreeKernel precomputes the tree-only part of a Kernel: the edge
// schedule and buffer depth. Package-level regime functions build a
// throwaway tree kernel; pair-skew queries need the graph-aware
// NewKernel.
func newTreeKernel(tree *clocktree.Tree) *Kernel {
	n := tree.NumNodes()
	k := &Kernel{
		tree:     tree,
		child:    make([]int32, 0, n-1),
		parent:   make([]int32, 0, n-1),
		length:   make([]float64, 0, n-1),
		buffered: make([]bool, 0, n-1),
	}
	// Record edges in exactly the order the pre-kernel propagate visited
	// them: explicit stack, children appended in natural order, LIFO pop.
	// Random regimes must draw one delay per edge in this same sequence
	// to stay bit-identical to the reference.
	buffers := make([]int, n)
	stack := []clocktree.NodeID{tree.Root()}
	for len(stack) > 0 {
		v := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, c := range tree.Children(v) {
			k.child = append(k.child, int32(c))
			k.parent = append(k.parent, int32(v))
			k.length = append(k.length, tree.EdgeLen(c))
			k.buffered = append(k.buffered, tree.Node(c).Buffer)
			buffers[c] = buffers[v]
			if tree.Node(c).Buffer {
				buffers[c]++
			}
			if buffers[c] > k.worstBuffers {
				k.worstBuffers = buffers[c]
			}
			stack = append(stack, c)
		}
	}
	k.arenas.New = func() any {
		return &csArena{
			units: make([]float64, len(k.child)),
			at:    make([]float64, n),
		}
	}
	return k
}

// Tree returns the clock tree the kernel was built over.
func (k *Kernel) Tree() *clocktree.Tree { return k.tree }

// Graph returns the communication graph, or nil for tree-only kernels.
func (k *Kernel) Graph() *comm.Graph { return k.graph }

// errNeedRNG and errNotClocked keep kernel and reference error text
// identical, so differential tests can compare failure modes too.
func errNeedRNG(fn string) error {
	return fmt.Errorf("clocksim: %s needs an RNG", fn)
}

func errNotClocked(c comm.CellID, tree *clocktree.Tree) error {
	return fmt.Errorf("clocksim: cell %d not clocked by tree %q", c, tree.Name)
}

// nominalInto computes arrival times with every wire at exactly M per
// unit. The arithmetic per edge is identical to the reference
// traversal's, applied in the same order.
func (k *Kernel) nominalInto(at []float64, p Params) {
	at[k.tree.Root()] = 0
	for i, c := range k.child {
		buf := 0.0
		if k.buffered[i] {
			buf = p.BufferDelay
		}
		at[c] = at[k.parent[i]] + k.length[i]*p.M + buf
	}
}

// randomInto draws one U[M−Eps, M+Eps] unit delay per edge — batched,
// but from the same stream positions as the reference's per-edge
// Uniform calls — and accumulates arrival times down the schedule.
func (k *Kernel) randomInto(at, units []float64, p Params, rng *stats.RNG) {
	rng.UniformFill(units, p.M-p.Eps, p.M+p.Eps)
	at[k.tree.Root()] = 0
	for i, c := range k.child {
		buf := 0.0
		if k.buffered[i] {
			buf = p.BufferDelay
		}
		at[c] = at[k.parent[i]] + k.length[i]*units[i] + buf
	}
}

// jitteredInto is randomInto plus the injector's per-edge excess, added
// as a separate term exactly as the reference's extra closure was.
func (k *Kernel) jitteredInto(at, units []float64, p Params, rng *stats.RNG, inj *faults.Injector) {
	rng.UniformFill(units, p.M-p.Eps, p.M+p.Eps)
	at[k.tree.Root()] = 0
	for i, c := range k.child {
		buf := 0.0
		if k.buffered[i] {
			buf = p.BufferDelay
		}
		at[c] = at[k.parent[i]] + k.length[i]*units[i] + buf
		at[c] += inj.EdgeJitter(uint64(c))
	}
}

// adversarialInto realizes the worst-case-consistent assignment for the
// cell pair (na, nb): edges on na's side of the LCA run slow, edges on
// nb's side fast, everything else nominal.
func (k *Kernel) adversarialInto(at []float64, p Params, na, nb clocktree.NodeID) {
	lca := k.tree.LCA(na, nb)
	slow := pathEdgeSet(k.tree, na, lca)
	fast := pathEdgeSet(k.tree, nb, lca)
	at[k.tree.Root()] = 0
	for i, c := range k.child {
		unit := p.M
		switch {
		case slow[clocktree.NodeID(c)]:
			unit = p.M + p.Eps
		case fast[clocktree.NodeID(c)]:
			unit = p.M - p.Eps
		}
		buf := 0.0
		if k.buffered[i] {
			buf = p.BufferDelay
		}
		at[c] = at[k.parent[i]] + k.length[i]*unit + buf
	}
}

// Nominal simulates distribution with every wire at exactly M per unit.
func (k *Kernel) Nominal(p Params) (*Arrivals, error) {
	if err := p.validate(); err != nil {
		return nil, err
	}
	at := make([]float64, k.tree.NumNodes())
	k.nominalInto(at, p)
	return &Arrivals{tree: k.tree, at: at}, nil
}

// Random simulates distribution with independent per-edge unit delays in
// U[M−Eps, M+Eps].
func (k *Kernel) Random(p Params, rng *stats.RNG) (*Arrivals, error) {
	if err := p.validate(); err != nil {
		return nil, err
	}
	if rng == nil {
		return nil, errNeedRNG("Random")
	}
	a := k.arenas.Get().(*csArena)
	at := make([]float64, k.tree.NumNodes())
	k.randomInto(at, a.units, p, rng)
	k.arenas.Put(a)
	return &Arrivals{tree: k.tree, at: at}, nil
}

// Jittered simulates Random plus the injector's per-edge excess beyond
// the band, keyed by child node ID.
func (k *Kernel) Jittered(p Params, rng *stats.RNG, inj *faults.Injector) (*Arrivals, error) {
	if err := p.validate(); err != nil {
		return nil, err
	}
	if rng == nil {
		return nil, errNeedRNG("Jittered")
	}
	a := k.arenas.Get().(*csArena)
	at := make([]float64, k.tree.NumNodes())
	k.jitteredInto(at, a.units, p, rng, inj)
	k.arenas.Put(a)
	return &Arrivals{tree: k.tree, at: at}, nil
}

// Adversarial simulates the worst-case-consistent assignment for the
// cell pair (a, b).
func (k *Kernel) Adversarial(p Params, a, b comm.CellID) (*Arrivals, error) {
	if err := p.validate(); err != nil {
		return nil, err
	}
	na, ok := k.tree.CellNode(a)
	if !ok {
		return nil, errNotClocked(a, k.tree)
	}
	nb, ok := k.tree.CellNode(b)
	if !ok {
		return nil, errNotClocked(b, k.tree)
	}
	at := make([]float64, k.tree.NumNodes())
	k.adversarialInto(at, p, na, nb)
	return &Arrivals{tree: k.tree, at: at}, nil
}

// pairSkew returns the largest arrival difference over the kernel's
// communicating pairs, in the same iteration order (and hence with the
// same float comparisons) as Arrivals.MaxCommSkew.
func (k *Kernel) pairSkew(at []float64) float64 {
	var worst float64
	for i := range k.pairA {
		if d := math.Abs(at[k.pairA[i]] - at[k.pairB[i]]); d > worst {
			worst = d
		}
	}
	return worst
}

// errNoGraph reports a pair-skew query on a tree-only kernel.
func (k *Kernel) errNoGraph() error {
	return fmt.Errorf("clocksim: kernel over tree %q has no communication graph; build with NewKernel", k.tree.Name)
}

// NominalSkew returns the worst comm-pair skew under the nominal regime.
// Steady state allocates nothing.
func (k *Kernel) NominalSkew(p Params) (float64, error) {
	if k.graph == nil {
		return 0, k.errNoGraph()
	}
	if err := p.validate(); err != nil {
		return 0, err
	}
	a := k.arenas.Get().(*csArena)
	k.nominalInto(a.at, p)
	w := k.pairSkew(a.at)
	k.arenas.Put(a)
	return w, nil
}

// RandomSkew runs one random-regime trial and returns the worst
// comm-pair skew, using scratch from the kernel's arena pool. Steady
// state allocates nothing. The result is bit-identical to
// Random(...).MaxCommSkew(g) for the same RNG position.
func (k *Kernel) RandomSkew(p Params, rng *stats.RNG) (float64, error) {
	if k.graph == nil {
		return 0, k.errNoGraph()
	}
	if err := p.validate(); err != nil {
		return 0, err
	}
	if rng == nil {
		return 0, errNeedRNG("Random")
	}
	a := k.arenas.Get().(*csArena)
	k.randomInto(a.at, a.units, p, rng)
	w := k.pairSkew(a.at)
	k.arenas.Put(a)
	return w, nil
}

// JitteredSkew is RandomSkew under the jittered regime.
func (k *Kernel) JitteredSkew(p Params, rng *stats.RNG, inj *faults.Injector) (float64, error) {
	if k.graph == nil {
		return 0, k.errNoGraph()
	}
	if err := p.validate(); err != nil {
		return 0, err
	}
	if rng == nil {
		return 0, errNeedRNG("Jittered")
	}
	a := k.arenas.Get().(*csArena)
	k.jitteredInto(a.at, a.units, p, rng, inj)
	w := k.pairSkew(a.at)
	k.arenas.Put(a)
	return w, nil
}

// AdversarialSkew returns the worst comm-pair skew under the adversarial
// assignment for (a, b).
func (k *Kernel) AdversarialSkew(p Params, a, b comm.CellID) (float64, error) {
	if k.graph == nil {
		return 0, k.errNoGraph()
	}
	if err := p.validate(); err != nil {
		return 0, err
	}
	na, ok := k.tree.CellNode(a)
	if !ok {
		return 0, errNotClocked(a, k.tree)
	}
	nb, ok := k.tree.CellNode(b)
	if !ok {
		return 0, errNotClocked(b, k.tree)
	}
	ar := k.arenas.Get().(*csArena)
	k.adversarialInto(ar.at, p, na, nb)
	w := k.pairSkew(ar.at)
	k.arenas.Put(ar)
	return w, nil
}

// MaxEventDrift returns RiseFallBias times the precomputed worst
// root-path buffer count — the kernel form of the package function.
func (k *Kernel) MaxEventDrift(p Params) float64 {
	return math.Abs(p.RiseFallBias) * float64(k.worstBuffers)
}

// MinPipelinedPeriod is the kernel form of the package function.
func (k *Kernel) MinPipelinedPeriod(p Params) float64 {
	return 2 * (p.MinSeparation + k.MaxEventDrift(p))
}
