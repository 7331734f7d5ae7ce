package skew

import (
	"fmt"
	"math"
)

// Limits bounds the size of a resident Kernel: past any limit,
// NewKernelWithLimits builds the streamed tier instead.
//
// The resident kernel's flat arrays index tree nodes with int32
// (pairA/pairB, draw), so a tree with more than math.MaxInt32 nodes —
// or a pair list longer than math.MaxInt32 — would silently truncate
// indices and corrupt every subsequent query. Limits turns that cliff,
// and the quadratic pair-array memory that precedes it, into the
// streamed tier, whose memory does not grow with the pair count, and a
// typed *SizeError the Monte-Carlo methods and the HTTP service's
// simulations report instead of corrupting results or dying on
// allocation.
type Limits struct {
	// MaxNodes bounds tree.NumNodes(). Values above math.MaxInt32 are
	// clamped: int32 node indexing is a hard representation limit, not
	// a policy choice.
	MaxNodes int64
	// MaxPairs bounds the communicating-pair count, likewise clamped
	// to math.MaxInt32.
	MaxPairs int64
	// MaxBytes bounds KernelBytes(nodes, pairs), the estimated
	// resident size of the kernel's arrays plus one Monte-Carlo arena.
	MaxBytes int64
}

// DefaultLimits is what NewKernel applies: the int32 representation
// ceilings plus a 16 GiB kernel-memory budget. The budget is the
// documented answer to "how big an array does one node hold resident" —
// a mesh's pair count is linear in cells, so 16 GiB keeps meshes past
// 4096² resident, while a dense synthetic graph hits the pair or byte
// ceiling, and streams, long before indices would truncate.
var DefaultLimits = Limits{
	MaxNodes: math.MaxInt32,
	MaxPairs: math.MaxInt32,
	MaxBytes: 16 << 30,
}

// withDefaults fills zero fields from DefaultLimits and clamps the
// count limits to the int32 representation ceiling.
func (l Limits) withDefaults() Limits {
	if l.MaxNodes <= 0 {
		l.MaxNodes = DefaultLimits.MaxNodes
	}
	if l.MaxPairs <= 0 {
		l.MaxPairs = DefaultLimits.MaxPairs
	}
	if l.MaxBytes <= 0 {
		l.MaxBytes = DefaultLimits.MaxBytes
	}
	if l.MaxNodes > math.MaxInt32 {
		l.MaxNodes = math.MaxInt32
	}
	if l.MaxPairs > math.MaxInt32 {
		l.MaxPairs = math.MaxInt32
	}
	return l
}

// SizeError reports a (graph, tree) pair too large for a resident
// Kernel under the limits in force. A streamed-tier kernel carries it
// (Kernel.SizeError) and returns it from MonteCarlo and
// MonteCarloParallel; the service maps it to HTTP 413 with
// machine-readable reason "array_too_large" for simulations.
type SizeError struct {
	Graph, Tree string
	Nodes       int    // tree node count
	Pairs       int    // communicating-pair count
	Bytes       int64  // KernelBytes(Nodes, Pairs)
	Field       string // which limit tripped: "nodes", "pairs", or "bytes"
	Max         int64  // the limit's value
}

// Error implements error.
func (e *SizeError) Error() string {
	return fmt.Sprintf("skew: kernel for graph %q under tree %q is too large: %s %d exceeds limit %d (nodes=%d pairs=%d est %d bytes)",
		e.Graph, e.Tree, e.Field, e.tripped(), e.Max, e.Nodes, e.Pairs, e.Bytes)
}

// tripped returns the offending quantity named by Field.
func (e *SizeError) tripped() int64 {
	switch e.Field {
	case "nodes":
		return int64(e.Nodes)
	case "pairs":
		return int64(e.Pairs)
	default:
		return e.Bytes
	}
}

// KernelBytes estimates the resident size of a kernel built over a
// tree with the given node count and a pair list of the given length:
// the per-pair arrays (int32 endpoint nodes, float64 s), the per-node
// draw order (int32, built on the first clock regime), and one trial
// arena (units, arrival). The units skip the root, so the per-node term
// overstates them by one entry. The schedule is the tree's own parent
// and edge arrays, and each pair's d comes from its root distances,
// which Tree.FootprintBytes counts; the pairs themselves live in the
// graph's PairIndex, which the graph owns. The scale sweep records the
// same number as each size's kernel-resident bytes.
func KernelBytes(nodes, pairs int) int64 {
	const perPair = 4 + 4 + 8 // pairA/pairB + s
	const perNode = 4 + 8 + 8 // draw + units + arrival
	return int64(pairs)*perPair + int64(nodes)*perNode
}

// checkKernelSize is the tier choice behind NewKernelWithLimits,
// separated so tests can probe counts (e.g. above math.MaxInt32) that
// could never be allocated for real. It returns nil when the resident
// tier fits.
func checkKernelSize(graph, tree string, nodes, pairs int, lim Limits) *SizeError {
	lim = lim.withDefaults()
	e := &SizeError{Graph: graph, Tree: tree, Nodes: nodes, Pairs: pairs, Bytes: KernelBytes(nodes, pairs)}
	switch {
	case int64(nodes) > lim.MaxNodes:
		e.Field, e.Max = "nodes", lim.MaxNodes
	case int64(pairs) > lim.MaxPairs:
		e.Field, e.Max = "pairs", lim.MaxPairs
	case e.Bytes > lim.MaxBytes:
		e.Field, e.Max = "bytes", lim.MaxBytes
	default:
		return nil
	}
	return e
}
