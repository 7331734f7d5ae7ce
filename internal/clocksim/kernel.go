package clocksim

import (
	"repro/internal/clocktree"
	"repro/internal/comm"
	"repro/internal/skew"
)

// Kernel is the one engine over a (graph, tree) recipe, skew.Kernel,
// whose methods run this package's regimes (NominalSkew, RandomSkew,
// JitteredSkew, AdversarialSkew, MaxEventDrift, MinPipelinedPeriod) on
// the tree's own preorder schedule, bit-identical to the references in
// reference.go. The name and NewKernel remain only because syncbench's
// replay (syncbench/replay.go) builds clock kernels through them; they
// go when the replay is rewritten on syncd's own spans (ROADMAP item 1).
type Kernel = skew.Kernel

// NewKernel builds the skew kernel over (g, tree) under the default
// limits; see skew.NewKernel.
func NewKernel(g *comm.Graph, tree *clocktree.Tree) (*Kernel, error) { return skew.NewKernel(g, tree) }
