// Package treemachine implements the Section VIII construction: a
// Bentley–Kung style tree machine (reference [2]) laid out as an H-tree,
// with pipeline registers inserted on long wires so that every wire
// segment has bounded length. Because every edge at a given level gets
// the same number of registers, the machine stays synchronous: command
// waves meet correctly at internal nodes. The consequences the paper
// claims, all measurable here:
//
//   - layout area O(N) (registers only "make wires thicker");
//   - constant pipeline interval — one command per cycle regardless of N;
//   - root-to-leaf-and-back latency O(√N) cycles, set by the register
//     counts on the long upper-level edges of the H-tree.
//
// The machine itself is the searching structure of [2]: internal nodes
// route and combine, leaves store records. INSERT routes to the emptier
// subtree; QUERY broadcasts down and ORs answers on the way up.
package treemachine

import (
	"fmt"
	"math"

	"repro/internal/comm"
	"repro/internal/des"
)

// Config describes a tree machine.
type Config struct {
	// Levels is the number of tree levels (level 1 = root only); the
	// machine has 2^(Levels−1) leaves.
	Levels int
	// BufferSpacing is the maximum wire length one clock cycle may span;
	// longer H-tree edges receive ⌈len/spacing⌉−1 pipeline registers.
	BufferSpacing float64
}

// OpKind selects a tree-machine command.
type OpKind int

// Tree machine commands.
const (
	Insert OpKind = iota
	Query
)

// Op is one pipelined command.
type Op struct {
	Kind OpKind
	Key  int64
}

// Result is the machine's answer to one op, in issue order.
type Result struct {
	Op    Op
	Found bool // for Query: key present; for Insert: always false
	// IssueCycle and AnswerCycle give the pipeline timing of this op.
	IssueCycle, AnswerCycle int
}

// Stats summarizes a run.
type Stats struct {
	// TotalCycles is the cycle at which the last answer emerged.
	TotalCycles int
	// Latency is the (constant) per-op round-trip latency in cycles.
	Latency int
	// Interval is the sustained initiation interval in cycles (1 when
	// the pipeline never stalls).
	Interval float64
}

// Machine is a pipelined tree machine.
type Machine struct {
	cfg    Config
	layout *comm.Graph
	// regs[l] is the number of pipeline registers on each edge from
	// level l to level l+1 (root edges are level 0).
	regs []int
	// edgeDelay[l] = regs[l] + 1 cycles to traverse such an edge.
	edgeDelay []int
}

// New builds the machine: an H-tree layout of the complete binary tree
// with per-level pipeline registers.
func New(cfg Config) (*Machine, error) {
	if cfg.Levels < 1 || cfg.Levels > 16 {
		return nil, fmt.Errorf("treemachine: need 1 ≤ Levels ≤ 16, got %d", cfg.Levels)
	}
	if cfg.BufferSpacing <= 0 {
		return nil, fmt.Errorf("treemachine: BufferSpacing must be positive, got %g", cfg.BufferSpacing)
	}
	layout, err := comm.CompleteBinaryTree(cfg.Levels)
	if err != nil {
		return nil, err
	}
	m := &Machine{cfg: cfg, layout: layout}
	for l := 0; l+1 < cfg.Levels; l++ {
		// All edges at one level have equal physical length in the
		// H-tree; measure one representative (root-of-level node to its
		// first child).
		parent := (1 << l) - 1 // leftmost node at level l
		child := 2*parent + 1  // its left child
		length := layout.Cell(comm.CellID(parent)).Pos.Dist(layout.Cell(comm.CellID(child)).Pos)
		regs := int(math.Ceil(length/cfg.BufferSpacing)) - 1
		if regs < 0 {
			regs = 0
		}
		m.regs = append(m.regs, regs)
		m.edgeDelay = append(m.edgeDelay, regs+1)
	}
	return m, nil
}

// Nodes returns the total number of tree cells.
func (m *Machine) Nodes() int { return (1 << m.cfg.Levels) - 1 }

// RegistersPerLevel returns the pipeline register count per edge at each
// level (level 0 = root's edges). Every edge at the same level has the
// same count — the property Section VIII requires for synchrony.
func (m *Machine) RegistersPerLevel() []int { return append([]int(nil), m.regs...) }

// TotalRegisters returns the total register count over all edges — it
// grows as O(N), so registers increase area only by a constant factor.
func (m *Machine) TotalRegisters() int {
	total := 0
	for l, r := range m.regs {
		total += r * (1 << (l + 1)) // 2^(l+1) edges leave level l
	}
	return total
}

// Latency returns the constant round-trip pipeline latency in cycles:
// one cycle per node visit plus edgeDelay per edge, down and up.
func (m *Machine) Latency() int {
	lat := 0
	for _, d := range m.edgeDelay {
		lat += 2 * d
	}
	// One processing cycle per internal node down, one per combining node
	// up, and one at the leaf.
	lat += 2*m.cfg.Levels - 1
	return lat
}

// LayoutArea returns the H-tree layout's bounding-box area.
func (m *Machine) LayoutArea() float64 { return m.layout.Bounds().Area() }

// nodeState is the per-node simulation state.
type nodeState struct {
	// count is the number of keys stored in this subtree (routing).
	count int
	// keys holds the records at a leaf.
	keys map[int64]bool
	// pending collects subtree answers for in-flight queries.
	pending map[int]*pendingQuery
}

type pendingQuery struct {
	waiting int
	found   bool
}

// Run feeds ops into the root one per cycle and returns the results in
// issue order along with pipeline statistics. The simulation is
// cycle-accurate with respect to the register counts: a message takes
// edgeDelay(level) cycles per edge and one cycle per node.
func (m *Machine) Run(ops []Op) ([]Result, Stats, error) {
	if len(ops) == 0 {
		return nil, Stats{}, fmt.Errorf("treemachine: no ops")
	}
	n := m.Nodes()
	nodes := make([]nodeState, n)
	firstLeaf := n / 2
	for i := firstLeaf; i < n; i++ {
		nodes[i].keys = make(map[int64]bool)
	}
	results := make([]Result, len(ops))
	var sim des.Sim

	// answerUp delivers a subtree answer for op id to node v at the given
	// cycle; when both children (or the leaf) have answered, it continues
	// upward after one combining cycle plus the edge delay.
	var answerUp func(v, id int, found bool, cycle float64)
	answerUp = func(v, id int, found bool, cycle float64) {
		if v == 0 {
			results[id].Found = found
			results[id].AnswerCycle = int(cycle)
			return
		}
		parent := (v - 1) / 2
		level := levelOf(parent)
		delay := float64(m.edgeDelay[level]) + 1 // edge + combining cycle
		sim.At(cycle+delay, func() {
			p := &nodes[parent]
			if p.pending == nil {
				p.pending = make(map[int]*pendingQuery)
			}
			pq := p.pending[id]
			if pq == nil {
				pq = &pendingQuery{waiting: 2}
				p.pending[id] = pq
			}
			pq.waiting--
			pq.found = pq.found || found
			if pq.waiting == 0 {
				delete(p.pending, id)
				answerUp(parent, id, pq.found, sim.Now())
			}
		})
	}

	// descend processes op id arriving at node v at the given cycle.
	var descend func(v, id int, cycle float64)
	descend = func(v, id int, cycle float64) {
		sim.At(cycle, func() {
			op := results[id].Op
			if v >= firstLeaf {
				// Leaf: one processing cycle.
				leaf := &nodes[v]
				if op.Kind == Insert {
					// Inserts complete at the leaf; no acknowledgment
					// travels back up (Bentley–Kung inserts are fire and
					// forget).
					leaf.keys[op.Key] = true
					leaf.count = len(leaf.keys)
					results[id].AnswerCycle = int(sim.Now()) + 1
					return
				}
				answerUp(v, id, leaf.keys[op.Key], sim.Now()+1)
				return
			}
			node := &nodes[v]
			level := levelOf(v)
			hop := float64(m.edgeDelay[level]) + 1 // node cycle + edge
			left, right := 2*v+1, 2*v+2
			switch op.Kind {
			case Insert:
				node.count++
				// Route to the emptier subtree. Counts lag the pipeline
				// by the in-flight latency, so the fill is only
				// approximately balanced — irrelevant for Section VIII's
				// timing claims, since queries broadcast everywhere.
				target := left
				if nodes[right].count < nodes[left].count {
					target = right
				}
				descend(target, id, sim.Now()+hop)
			case Query:
				// Broadcast to both subtrees (Bentley–Kung search).
				descend(left, id, sim.Now()+hop)
				descend(right, id, sim.Now()+hop)
			}
		})
	}

	for id, op := range ops {
		results[id] = Result{Op: op, IssueCycle: id}
		descend(0, id, float64(id)) // one new op enters the root per cycle
	}
	sim.Run(int64(len(ops)) * int64(n) * 64)

	stats := Stats{Latency: m.Latency()}
	for _, r := range results {
		if r.AnswerCycle > stats.TotalCycles {
			stats.TotalCycles = r.AnswerCycle
		}
	}
	if len(ops) > 1 {
		stats.Interval = float64(stats.TotalCycles-stats.Latency) / float64(len(ops)-1)
	} else {
		stats.Interval = 1
	}
	return results, stats, nil
}

// levelOf returns the tree level (0 = root) of heap-indexed node v.
func levelOf(v int) int {
	l := 0
	for v > 0 {
		v = (v - 1) / 2
		l++
	}
	return l
}
