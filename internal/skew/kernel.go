package skew

import (
	"fmt"
	"math"
	"sync"

	"repro/internal/clocktree"
	"repro/internal/comm"
	"repro/internal/stats"
)

// Kernel is the package's one exact engine over one (graph, tree)
// recipe: it answers Section III's per-pair skew bounds from the two
// geometries, the difference distance d and the tree-path length s, and
// it samples the clock arrivals those bounds describe — clocksim's
// delay regimes, the Monte-Carlo trial, and the pipelined-clock drift —
// from the same schedule. The Limits it is built under choose one of two
// tiers.
//
// Within the limits the kernel is resident. Built once — every pair's
// LCA found by the tree's jump-pointer search, O(pairs · log depth) — it
// caches:
//
//   - the graph's communicating pairs, in PairIndex order, resolved to
//     the tree nodes clocking their cells,
//   - each pair's s (computed once instead of per query); Analyze reads
//     d off the tree's root distances, the two gathers DiffDist makes,
//   - the worst root-path buffer count, and, from the first clock
//     regime on, each node's position in clocksim's stack-order draw
//     sequence, which analyses never read.
//
// The schedule itself is the tree's: a Tree numbers its nodes in DFS
// preorder, so one ascending pass over its parent and edge-length
// arrays finalizes a parent's arrival time before any child reads it,
// and draws the Monte-Carlo trial's per-edge delays in the order the
// pre-kernel recursive walk drew them. A tree must not be equalized
// after a kernel is built over it: the cached s, like every distance
// and arrival the kernel computes, reads its electrical lengths.
//
// Over the limits the kernel is streamed: it holds the graph, the tree
// and a pool of shard sketches, and allocates no per-pair or per-node
// array. Its Analyze and GuaranteedMinSkew walk the graph's CSR pair
// index, resolving each pair's LCA by the same search, so the resident
// cost is O(cells) rather than 16 B per pair; SizeError names the
// limit that tripped, and the Monte-Carlo and clock-regime methods,
// which need the per-node arrays, return it. Both tiers give
// bit-identical answers: each scans the pairs in ascending index order
// with strictly-greater updates. Stream, the sharded scan with sketch
// quantiles, walks the index on either tier.
//
// A Kernel is safe for concurrent use: Analyze and GuaranteedMinSkew
// only read, and Monte-Carlo, regime and shard scratch state — a
// generator reseeded in place per trial included — lives in sync.Pools
// of per-worker arenas, so steady-state trials, regimes and shards
// allocate nothing. The serving stack caches one Kernel per recipe and
// reuses it across analyses and simulations with different models,
// regimes, trials, and seeds.
type Kernel struct {
	graph   *comm.Graph
	tree    *clocktree.Tree
	ix      *comm.PairIndex
	sizeErr *SizeError // non-nil on the streamed tier

	// The resident tier's arrays; nil on the streamed tier.
	pairA, pairB []int32   // tree node of each pair's endpoint cells
	s            []float64 // per-pair tree-path distances
	maxD, maxS   float64
	worstBuffers int // max root-path buffer count over nodes

	// draw[v] is node v's edge's position in clocksim's draw sequence,
	// built by drawOrder on the first clock regime.
	drawOnce sync.Once
	draw     []int32

	arenas   sync.Pool // *mcArena, reused across trials, regimes and chunks (resident tier)
	sketches sync.Pool // *stats.LogSketch, one per Stream shard in flight
}

// mcArena is one worker's trial scratch: per-edge unit delays, per-node
// arrival times, and the generator each trial's fork is reseeded into.
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
// kernel precomputes the pair geometry in O(nodes + pairs · log depth);
// past them it returns a streamed-tier kernel, whose SizeError reports
// the limit. The only error is a tree that does not clock every cell
// of g.
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
	k.worstBuffers = indexDraws(tree, nil)
	if k.sizeErr = checkKernelSize(g.Name, tree.Name, n, int(ix.NumPairs()), lim); k.sizeErr != nil {
		return k, nil
	}
	k.pairA, k.pairB = tree.PairNodes(ix)
	k.s = make([]float64, len(k.pairA))
	tree.PathLens(k.pairA, k.pairB, k.s)
	for i, s := range k.s {
		if d := k.diffDist(i); d > k.maxD {
			k.maxD = d
		}
		if s > k.maxS {
			k.maxS = s
		}
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

// indexDraws returns the worst root-path buffer count of t and, when
// draw is non-nil, records each node's position in the order clocksim's
// pre-kernel traversal drew edge delays: an explicit stack, children
// pushed in ascending ID order and popped last-in first-out, each
// popped node's edges to its children drawn in push order. The stack
// holds each node with its root-path buffer count; a binary tree keeps
// it within twice the tree's depth, so the streamed tier, which has no
// per-node arrays, can count its buffers too.
func indexDraws(t *clocktree.Tree, draw []int32) (worstBuffers int) {
	type entry struct{ v, buffers int32 }
	stack := []entry{{0, 0}}
	var kids [2]clocktree.NodeID
	next := int32(0)
	for len(stack) > 0 {
		e := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, c := range t.AppendChildren(kids[:0], clocktree.NodeID(e.v)) {
			if draw != nil {
				draw[c] = next
				next++
			}
			b := e.buffers
			if t.IsBuffer(c) {
				b++
			}
			worstBuffers = max(worstBuffers, int(b))
			stack = append(stack, entry{int32(c), b})
		}
	}
	return worstBuffers
}

// drawOrder returns the draw order, building it on first use: a kernel
// that only analyzes never holds it. Resident tier only.
func (k *Kernel) drawOrder() []int32 {
	k.drawOnce.Do(func() {
		k.draw = make([]int32, k.tree.NumNodes())
		indexDraws(k.tree, k.draw)
	})
	return k.draw
}

// diffDist returns pair i's difference distance d, the tree's DiffDist
// of its two nodes. Resident tier only.
func (k *Kernel) diffDist(i int) float64 {
	return k.tree.DiffDist(clocktree.NodeID(k.pairA[i]), clocktree.NodeID(k.pairB[i]))
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
// tier reads the cached path lengths and the tree's root distances and
// performs no tree or graph traversal: the worst pair's cells are
// looked up once, after the scan. The streamed tier walks the pair
// index in one sequential pass.
func (k *Kernel) Analyze(model Model) Analysis {
	if k.sizeErr != nil {
		return k.processShard(model, nil, 0, k.ix.NumPairs(), nil).analysis(model, k)
	}
	out := Analysis{
		Model: model.Name(), Tree: k.tree.Name,
		MaxD: k.maxD, MaxS: k.maxS, Pairs: len(k.pairA),
	}
	worst := -1
	for i, s := range k.s {
		if sk := model.Bound(k.diffDist(i), s); sk > out.MaxSkew {
			out.MaxSkew, worst = sk, i
		}
	}
	if worst >= 0 {
		a, b := k.ix.Pair(int64(worst))
		out.WorstPair = PairSkew{A: a, B: b, D: k.diffDist(worst), S: k.s[worst], Skew: out.MaxSkew}
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
// tree edge, accumulate arrival times down the tree's preorder, and
// return the worst arrival difference over communicating pairs — in
// arena a's scratch. It allocates nothing.
func (k *Kernel) trial(m Linear, r *stats.RNG, a *mcArena) float64 {
	r.UniformFill(a.units, m.M-m.Eps, m.M+m.Eps)
	t, arr, units := k.tree, a.arrival, a.units
	parent := t.Parents()[:len(arr)]
	arr[0] = 0
	for v := 1; v < len(arr); v++ {
		arr[v] = arr[parent[v]] + t.EdgeLen(clocktree.NodeID(v))*units[v-1]
	}
	return k.pairSkew(arr)
}

// pairSkew returns the largest arrival difference over the kernel's
// communicating pairs, scanned in PairIndex order with strictly-greater
// updates.
func (k *Kernel) pairSkew(at []float64) float64 {
	var worst float64
	for i, pa := range k.pairA {
		if d := math.Abs(at[pa] - at[k.pairB[i]]); d > worst {
			worst = d
		}
	}
	return worst
}

// Trial is the exported form of one Monte-Carlo trial for benchmarks and
// differential tests: it draws from r and writes scratch into an arena
// borrowed from the pool. Results are identical to the corresponding
// trial of MonteCarlo when r is the same fork. Trial needs the resident
// tier's arrays: call it only on a kernel whose SizeError is nil.
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
// physical interpretation. A streamed-tier kernel has no per-node
// scratch to draw into and returns its *SizeError.
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
