package skew

import (
	"fmt"
	"math"
	"sync"

	"repro/internal/clocktree"
	"repro/internal/comm"
	"repro/internal/stats"
)

// Kernel is the package's one exact skew engine: an immutable
// precomputation over one (graph, tree) pair that answers Section III's
// per-pair bound from the two geometries, the difference distance d and
// the tree-path length s. The Limits it is built under choose one of two
// tiers.
//
// Within the limits the kernel is resident. Built once — every pair's
// LCA resolved in one offline pass over the tree, O(nodes + pairs) — it
// caches:
//
//   - the graph's communicating pairs, in PairIndex order, resolved to
//     the tree nodes clocking their cells,
//   - each pair's d and s (computed once instead of per query),
//   - the tree's edges in DFS preorder, which turns the recursive
//     closure walk of the Monte-Carlo trial into two flat loops over
//     preallocated arrays.
//
// Over the limits the kernel is streamed: it holds the graph, the tree
// and a pool of shard sketches, and allocates no per-pair or per-node
// array. Its Analyze and GuaranteedMinSkew walk the graph's CSR pair
// index, resolving each pair's LCA by walking parent links, so the
// resident cost is O(cells) rather than 24 B per pair; SizeError names
// the limit that tripped, and the Monte-Carlo methods, which need the
// per-node schedule, return it. Both tiers give bit-identical answers:
// each scans the pairs in ascending index order with strictly-greater
// updates. Stream, the sharded scan with sketch quantiles, walks the
// index on either tier.
//
// The resident kernel relabels the tree's nodes by their DFS preorder
// position (root 0, children in ascending ID order): node v's parent is
// parent[v-1] < v and its edge has electrical length length[v-1], and
// pairA/pairB hold preorder labels. Preorder guarantees a parent's
// arrival time is final before any child reads it, and — critically for
// determinism — it draws per-edge random delays in exactly the order the
// pre-kernel recursive walk did, so Monte-Carlo results are
// bit-identical to the reference.
//
// A Kernel is safe for concurrent use: Analyze and GuaranteedMinSkew
// only read, and Monte-Carlo and shard scratch state — a generator
// reseeded in place per trial included — lives in sync.Pools of
// per-worker arenas, so steady-state trials and shards allocate
// nothing. The serving stack caches Kernels of both tiers by the
// request's engine identity and reuses them across requests with
// different models, trials, and seeds.
type Kernel struct {
	graph   *comm.Graph
	tree    *clocktree.Tree
	ix      *comm.PairIndex
	sizeErr *SizeError // non-nil on the streamed tier

	// The resident tier's arrays; nil on the streamed tier.
	pairA, pairB []int32   // preorder label of each pair's endpoint nodes
	d, s         []float64 // per-pair difference / tree-path distances
	maxD, maxS   float64

	parent []int32   // parent[v-1] is the preorder label of node v's parent
	length []float64 // length[v-1] is the electrical length of node v's edge

	arenas   sync.Pool // *mcArena, reused across trials and chunks (resident tier)
	sketches sync.Pool // *stats.LogSketch, one per Stream shard in flight
}

// mcArena is one worker's Monte-Carlo scratch: per-edge unit delays,
// per-node arrival times, and the generator each trial's fork is
// reseeded into.
type mcArena struct {
	units   []float64
	arrival []float64
	rng     *stats.RNG
}

// NewKernel validates that tree clocks every cell of g and builds the
// kernel under DefaultLimits: resident unless the tree or pair list
// would overflow the kernel's int32 indices or blow the default memory
// budget, streamed otherwise.
func NewKernel(g *comm.Graph, tree *clocktree.Tree) (*Kernel, error) {
	return NewKernelWithLimits(g, tree, DefaultLimits)
}

// NewKernelWithLimits is NewKernel under caller-chosen size limits
// (zero fields default). The count limits clamp to math.MaxInt32 —
// int32 indexing is a representation ceiling no limit can raise. Sizes
// are checked before anything is allocated: within the limits the
// kernel precomputes the pair geometry and edge schedule in
// O(nodes + pairs); past them it returns a streamed-tier kernel, whose
// SizeError reports the limit. The only error is a tree that does not
// clock every cell of g.
func NewKernelWithLimits(g *comm.Graph, tree *clocktree.Tree, lim Limits) (*Kernel, error) {
	if !tree.Covers(g) {
		return nil, fmt.Errorf("skew: tree %q does not clock every cell of %q", tree.Name, g.Name)
	}
	// The size check reads the pair count off the CSR index, so an
	// oversize graph gets the streamed tier before any per-pair array
	// is allocated.
	ix := g.PairIndex()
	n := tree.NumNodes()
	k := &Kernel{graph: g, tree: tree, ix: ix}
	k.sketches.New = func() any { return new(stats.LogSketch) }
	if k.sizeErr = checkKernelSize(g.Name, tree.Name, n, int(ix.NumPairs()), lim); k.sizeErr != nil {
		return k, nil
	}
	k.pairA, k.pairB = tree.PairNodes(ix)
	k.d = make([]float64, len(k.pairA))
	k.s = make([]float64, len(k.pairA))
	k.parent = make([]int32, n-1)
	k.length = make([]float64, n-1)
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
	pre := preorder(tree)
	for v := 1; v < n; v++ {
		i := pre[v] - 1
		k.parent[i] = pre[tree.Parent(clocktree.NodeID(v))]
		k.length[i] = tree.EdgeLen(clocktree.NodeID(v))
	}
	for i := range k.pairA {
		k.pairA[i], k.pairB[i] = pre[k.pairA[i]], pre[k.pairB[i]]
	}
	k.arenas.New = func() any {
		return &mcArena{
			units:   make([]float64, n-1),
			arrival: make([]float64, n),
			rng:     stats.NewRNG(0),
		}
	}
	return k, nil
}

// preorder returns each node's position in the tree's DFS preorder with
// children visited in ascending ID order — the order the pre-kernel
// recursive walk drew edge delays in. Parents precede children, so one
// reverse sweep sizes every subtree and one forward sweep places each
// node's children one after another right behind it. An entry holds its
// subtree's size until its parent is placed, and its position after.
func preorder(tree *clocktree.Tree) []int32 {
	n := tree.NumNodes()
	pre := make([]int32, n)
	for v := n - 1; v > 0; v-- {
		pre[v]++
		pre[tree.Parent(clocktree.NodeID(v))] += pre[v]
	}
	pre[0] = 0
	for v := 0; v < n; v++ {
		next := pre[v] + 1
		for _, c := range tree.Children(clocktree.NodeID(v)) {
			next, pre[c] = next+pre[c], next
		}
	}
	return pre
}

// Graph returns the communication graph the kernel was built over.
func (k *Kernel) Graph() *comm.Graph { return k.graph }

// Tree returns the clock tree the kernel was built over.
func (k *Kernel) Tree() *clocktree.Tree { return k.tree }

// Pairs returns the number of communicating pairs.
func (k *Kernel) Pairs() int { return int(k.ix.NumPairs()) }

// SizeError reports which limit put the kernel on the streamed tier, or
// nil for a resident kernel.
func (k *Kernel) SizeError() *SizeError { return k.sizeErr }

// FootprintBytes returns the kernel's estimated resident size: the
// clock tree it retains plus, on the resident tier, the KernelBytes
// estimate for its node and pair counts. Neither tier is charged for
// the graph's CSR pair index: the graph owns it, and every engine built
// over the graph shares it.
func (k *Kernel) FootprintBytes() int64 {
	if k.sizeErr != nil {
		return k.tree.FootprintBytes()
	}
	return KernelBytes(k.tree.NumNodes(), k.Pairs()) + k.tree.FootprintBytes()
}

// Analyze evaluates model over every communicating pair. The resident
// tier reads the cached distances and performs no tree or graph
// traversal: the worst pair's cells are looked up once, after the scan.
// The streamed tier walks the pair index in one sequential pass.
func (k *Kernel) Analyze(model Model) Analysis {
	if k.sizeErr != nil {
		return k.processShard(model, nil, 0, k.ix.NumPairs(), nil).analysis(model, k)
	}
	out := Analysis{
		Model: model.Name(), Tree: k.tree.Name,
		MaxD: k.maxD, MaxS: k.maxS, Pairs: len(k.pairA),
	}
	worst := -1
	for i, d := range k.d {
		if sk := model.Bound(d, k.s[i]); sk > out.MaxSkew {
			out.MaxSkew, worst = sk, i
		}
	}
	if worst >= 0 {
		a, b := k.ix.Pair(int64(worst))
		out.WorstPair = PairSkew{A: a, B: b, D: k.d[worst], S: k.s[worst], Skew: out.MaxSkew}
	}
	return out
}

// GuaranteedMinSkew returns the model's largest per-pair lower bound,
// or 0 for models without one: from the cached path lengths on the
// resident tier, from one pass over the pair index on the streamed tier.
func (k *Kernel) GuaranteedMinSkew(model Model) float64 {
	lb, ok := model.(LowerBounder)
	if !ok {
		return 0
	}
	if k.sizeErr != nil {
		return k.processShard(model, lb, 0, k.ix.NumPairs(), nil).maxLB
	}
	var worst float64
	for _, s := range k.s {
		if v := lb.LowerBound(s); v > worst {
			worst = v
		}
	}
	return worst
}

// trial runs one Monte-Carlo trial — draw a random unit delay for every
// tree edge, accumulate arrival times down the preorder schedule, and
// return the worst arrival difference over communicating pairs — in
// arena a's scratch. It allocates nothing.
func (k *Kernel) trial(m Linear, r *stats.RNG, a *mcArena) float64 {
	r.UniformFill(a.units, m.M-m.Eps, m.M+m.Eps)
	arr := a.arrival
	arr[0] = 0
	for i, p := range k.parent {
		arr[i+1] = arr[p] + k.length[i]*a.units[i]
	}
	var worst float64
	for i, pa := range k.pairA {
		if d := math.Abs(arr[pa] - arr[k.pairB[i]]); d > worst {
			worst = d
		}
	}
	return worst
}

// Trial is the exported form of one Monte-Carlo trial for benchmarks and
// differential tests: it draws from r and writes scratch into an arena
// borrowed from the pool. Results are identical to the corresponding
// trial of MonteCarlo when r is the same fork. Trial needs the resident
// tier's edge schedule: call it only on a kernel whose SizeError is nil.
func (k *Kernel) Trial(m Linear, r *stats.RNG) float64 {
	a := k.arenas.Get().(*mcArena)
	w := k.trial(m, r, a)
	k.arenas.Put(a)
	return w
}

// MonteCarlo runs trials sequential Monte-Carlo trials, forking rng by
// trial index exactly as the reference implementation does (each fork
// reseeds the arena's generator in place), and returns
// the worst skew observed. See MonteCarlo (package function) for the
// physical interpretation. A streamed-tier kernel has no edge schedule
// to draw over and returns its *SizeError.
func (k *Kernel) MonteCarlo(m Linear, trials int, rng *stats.RNG) (float64, error) {
	if k.sizeErr != nil {
		return 0, k.sizeErr
	}
	if err := m.Validate(); err != nil {
		return 0, err
	}
	a := k.arenas.Get().(*mcArena)
	defer k.arenas.Put(a)
	var worst float64
	for trial := 0; trial < trials; trial++ {
		if w := k.trial(m, rng.ForkInto(int64(trial), a.rng), a); w > worst {
			worst = w
		}
	}
	return worst, nil
}
