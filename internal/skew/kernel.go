package skew

import (
	"fmt"
	"math"
	"sync"

	"repro/internal/clocktree"
	"repro/internal/comm"
	"repro/internal/stats"
)

// Kernel is an immutable precomputation over one (graph, tree) pair that
// makes every skew query array indexing. Built once — every pair's LCA
// resolved in one offline pass over the tree, O(nodes + pairs) — it
// caches:
//
//   - the graph's communicating pairs, in PairIndex order, resolved to
//     flat tree-node indices,
//   - each pair's difference distance d and tree-path length s
//     (Section III's two geometries, computed once instead of per query),
//   - a parent-before-child edge schedule (the tree's DFS preorder)
//     that replaces the recursive closure walk of the Monte-Carlo trial
//     with two flat loops over preallocated arrays.
//
// A Kernel is safe for concurrent use: Analyze and GuaranteedMinSkew
// only read, and Monte-Carlo scratch state lives in a sync.Pool of
// per-worker arenas, so steady-state trials allocate nothing. The
// serving stack caches Kernels by content-addressed (graph, tree) hash
// and reuses them across requests with different models, trials, and
// seeds.
type Kernel struct {
	graph *comm.Graph
	tree  *clocktree.Tree

	pairA, pairB []int32   // tree-node index of each pair's endpoints
	d, s         []float64 // per-pair difference / tree-path distances
	maxD, maxS   float64

	// Edge schedule in DFS preorder (root excluded): node order[i] has
	// parent parent[i] and electrical edge length length[i]. Preorder
	// guarantees a parent's arrival time is final before any child reads
	// it, and — critically for determinism — it draws per-edge random
	// delays in exactly the order the pre-kernel recursive walk did, so
	// Monte-Carlo results are bit-identical to the reference.
	order  []int32
	parent []int32
	length []float64
	root   int32

	arenas sync.Pool // *mcArena, reused across trials and chunks
}

// mcArena is one worker's Monte-Carlo scratch: per-edge unit delays and
// per-node arrival times.
type mcArena struct {
	units   []float64
	arrival []float64
}

// NewKernel validates that tree clocks every cell of g and precomputes
// the pair geometry and edge schedule. Construction is
// O(nodes + pairs); afterwards Analyze and each Monte-Carlo trial touch
// only flat arrays. Sizes are checked against DefaultLimits before
// anything is allocated: a tree or pair list that would overflow the
// kernel's int32 indices, or blow the default memory budget, yields a
// *SizeError instead of silent index truncation or an OOM kill.
func NewKernel(g *comm.Graph, tree *clocktree.Tree) (*Kernel, error) {
	return NewKernelWithLimits(g, tree, DefaultLimits)
}

// NewKernelWithLimits is NewKernel under caller-chosen size limits
// (zero fields default). The count limits clamp to math.MaxInt32 —
// int32 indexing is a representation ceiling no limit can raise.
func NewKernelWithLimits(g *comm.Graph, tree *clocktree.Tree, lim Limits) (*Kernel, error) {
	if !tree.Covers(g) {
		return nil, fmt.Errorf("skew: tree %q does not clock every cell of %q", tree.Name, g.Name)
	}
	// The size check reads the pair count off the CSR index, so an
	// oversize graph is refused — and handed to the streamed path —
	// before any per-pair array is allocated.
	ix := g.PairIndex()
	if err := checkKernelSize(g.Name, tree.Name, tree.NumNodes(), int(ix.NumPairs()), lim); err != nil {
		return nil, err
	}
	pairA, pairB := tree.PairNodes(ix)
	k := &Kernel{
		graph: g, tree: tree, pairA: pairA, pairB: pairB,
		d:    make([]float64, len(pairA)),
		s:    make([]float64, len(pairA)),
		root: int32(tree.Root()),
	}
	tree.PathLens(k.pairA, k.pairB, k.s)
	for i := range k.pairA {
		k.d[i] = tree.DiffDist(clocktree.NodeID(k.pairA[i]), clocktree.NodeID(k.pairB[i]))
		if k.d[i] > k.maxD {
			k.maxD = k.d[i]
		}
		if k.s[i] > k.maxS {
			k.maxS = k.s[i]
		}
	}
	n := tree.NumNodes()
	k.order = make([]int32, 0, n-1)
	k.parent = make([]int32, 0, n-1)
	k.length = make([]float64, 0, n-1)
	// DFS preorder via explicit stack; children pushed in reverse so they
	// are visited (and their delays drawn) in natural order, matching the
	// pre-kernel recursive walk draw for draw.
	stack := []clocktree.NodeID{tree.Root()}
	for len(stack) > 0 {
		v := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		if p := tree.Parent(v); p >= 0 {
			k.order = append(k.order, int32(v))
			k.parent = append(k.parent, int32(p))
			k.length = append(k.length, tree.EdgeLen(v))
		}
		kids := tree.Children(v)
		for i := len(kids) - 1; i >= 0; i-- {
			stack = append(stack, kids[i])
		}
	}
	k.arenas.New = func() any {
		return &mcArena{
			units:   make([]float64, len(k.order)),
			arrival: make([]float64, n),
		}
	}
	return k, nil
}

// Graph returns the communication graph the kernel was built over.
func (k *Kernel) Graph() *comm.Graph { return k.graph }

// Tree returns the clock tree the kernel was built over.
func (k *Kernel) Tree() *clocktree.Tree { return k.tree }

// Pairs returns the number of communicating pairs.
func (k *Kernel) Pairs() int { return len(k.pairA) }

// FootprintBytes returns the kernel's estimated resident size: the
// KernelBytes estimate for its node and pair counts plus the clock tree
// it retains.
func (k *Kernel) FootprintBytes() int64 {
	return KernelBytes(k.tree.NumNodes(), len(k.pairA)) + k.tree.FootprintBytes()
}

// Analyze evaluates model over every communicating pair using the
// cached distances. It performs no tree or graph traversal.
func (k *Kernel) Analyze(model Model) Analysis {
	out := Analysis{
		Model: model.Name(), Tree: k.tree.Name,
		MaxD: k.maxD, MaxS: k.maxS, Pairs: len(k.pairA),
	}
	for i := range k.pairA {
		d, s := k.d[i], k.s[i]
		if sk := model.Bound(d, s); sk > out.MaxSkew {
			out.MaxSkew = sk
			a, b := k.tree.Node(clocktree.NodeID(k.pairA[i])), k.tree.Node(clocktree.NodeID(k.pairB[i]))
			out.WorstPair = PairSkew{A: a.Cell, B: b.Cell, D: d, S: s, Skew: sk}
		}
	}
	return out
}

// GuaranteedMinSkew returns the model's largest per-pair lower bound
// from the cached path lengths, or 0 for models without one.
func (k *Kernel) GuaranteedMinSkew(model Model) float64 {
	lb, ok := model.(LowerBounder)
	if !ok {
		return 0
	}
	var worst float64
	for _, s := range k.s {
		if v := lb.LowerBound(s); v > worst {
			worst = v
		}
	}
	return worst
}

// Trial runs one Monte-Carlo trial — draw a random unit delay for every
// tree edge, accumulate arrival times down the schedule, and return the
// worst arrival difference over communicating pairs — using scratch from
// the kernel's arena pool. Steady state allocates nothing.
func (k *Kernel) trial(m Linear, r *stats.RNG, a *mcArena) float64 {
	r.UniformFill(a.units, m.M-m.Eps, m.M+m.Eps)
	a.arrival[k.root] = 0
	for i, v := range k.order {
		a.arrival[v] = a.arrival[k.parent[i]] + k.length[i]*a.units[i]
	}
	var worst float64
	for i := range k.pairA {
		if d := math.Abs(a.arrival[k.pairA[i]] - a.arrival[k.pairB[i]]); d > worst {
			worst = d
		}
	}
	return worst
}

// Trial is the exported form of one Monte-Carlo trial for benchmarks and
// differential tests: it draws from r and writes scratch into an arena
// borrowed from the pool. Results are identical to the corresponding
// trial of MonteCarlo when r is the same fork.
func (k *Kernel) Trial(m Linear, r *stats.RNG) float64 {
	a := k.arenas.Get().(*mcArena)
	w := k.trial(m, r, a)
	k.arenas.Put(a)
	return w
}

// MonteCarlo runs trials sequential Monte-Carlo trials, forking rng by
// trial index exactly as the reference implementation does, and returns
// the worst skew observed. See MonteCarlo (package function) for the
// physical interpretation.
func (k *Kernel) MonteCarlo(m Linear, trials int, rng *stats.RNG) (float64, error) {
	if err := m.Validate(); err != nil {
		return 0, err
	}
	a := k.arenas.Get().(*mcArena)
	defer k.arenas.Put(a)
	var worst float64
	for trial := 0; trial < trials; trial++ {
		if w := k.trial(m, rng.Fork(int64(trial)), a); w > worst {
			worst = w
		}
	}
	return worst, nil
}
