// Package core is the synchronization planner — the paper's contribution
// turned into a decision procedure. Given a communication graph and a set
// of physical assumptions (which skew model holds, whether clock
// transmission is time-invariant, wire and logic delays), Plan selects
// the synchronization scheme the paper prescribes and quantifies the
// resulting clock period via assumption A5 (σ + δ + τ):
//
//   - difference model (A9): an equalized H-tree clocks any bounded-
//     aspect-ratio array at a size-independent period (Theorem 2);
//   - summation model (A10/A11), one-dimensional arrays: a spine clock
//     along the array achieves a size-independent period (Theorem 3);
//   - summation model, two-dimensional arrays: no clock tree escapes the
//     Ω(n) skew lower bound (Theorem 6), so the planner selects the
//     hybrid scheme of Section VI and reports the certified bound that
//     rules global clocking out;
//   - no pipelined clocking (A8 fails): the clock is equipotential, τ
//     grows with the layout diameter (A6), and the planner again falls
//     back to the hybrid scheme.
package core

import (
	"context"
	"fmt"

	"repro/internal/clocktree"
	"repro/internal/comm"
	"repro/internal/hybrid"
	"repro/internal/obs"
	"repro/internal/skew"
)

// ModelKind names the physical regime the planner assumes.
type ModelKind string

// Supported regimes.
const (
	// DifferenceModel: clock-line delays can be tuned, skew depends only
	// on root-distance differences (A9).
	DifferenceModel ModelKind = "difference"
	// SummationModel: delay variation accumulates with wire length, skew
	// is bounded below by β·s (A10/A11).
	SummationModel ModelKind = "summation"
	// NoPipelining: assumption A8 fails (transmission times vary), so
	// only equipotential clocking (A6) or hybrid synchronization remain.
	NoPipelining ModelKind = "nopipelining"
)

// Assumptions collects the physical parameters of a planning problem.
type Assumptions struct {
	Model ModelKind
	// M and Eps are the wire delay parameters of Section III: delay per
	// unit length in [M−Eps, M+Eps]. Eps doubles as the summation
	// model's β.
	M, Eps float64
	// Delta is δ: maximum cell compute + communication delay (A5).
	Delta float64
	// BufferSpacing is the A7 buffer pitch; τ for a pipelined clock is
	// M·BufferSpacing, a constant.
	BufferSpacing float64
	// Alpha is A6's α: equipotential distribution time per unit of the
	// longest root-to-leaf path, used when Model is NoPipelining.
	Alpha float64
	// Handshake and LocalDistribution parameterize the hybrid fallback
	// (Section VI).
	Handshake, LocalDistribution float64
	// ElementSize is the hybrid element tile size.
	ElementSize float64
}

func (a Assumptions) validate() error {
	if a.M <= 0 || a.Eps < 0 || a.Eps > a.M {
		return fmt.Errorf("core: need 0 < M and 0 ≤ Eps ≤ M, got M=%g Eps=%g", a.M, a.Eps)
	}
	if a.Delta <= 0 {
		return fmt.Errorf("core: Delta must be positive, got %g", a.Delta)
	}
	if a.BufferSpacing <= 0 {
		return fmt.Errorf("core: BufferSpacing must be positive, got %g", a.BufferSpacing)
	}
	switch a.Model {
	case DifferenceModel, SummationModel:
	case NoPipelining:
		if a.Alpha <= 0 {
			return fmt.Errorf("core: NoPipelining needs Alpha > 0, got %g", a.Alpha)
		}
	default:
		return fmt.Errorf("core: unknown model %q", a.Model)
	}
	return nil
}

// Scheme names a synchronization scheme the planner can select.
type Scheme string

// Planner outcomes.
const (
	SchemeHTree         Scheme = "htree"         // equalized H-tree, difference model
	SchemeSpine         Scheme = "spine"         // clock along the array, 1D summation model
	SchemeHybrid        Scheme = "hybrid"        // Section VI elements + handshake network
	SchemeEquipotential Scheme = "equipotential" // conventional clocking, A6 period
)

// Plan is the planner's output.
type Plan struct {
	Scheme Scheme
	// Tree is the clock tree for clocked schemes (nil for hybrid).
	Tree *clocktree.Tree
	// Hybrid is the element partition for the hybrid scheme (nil
	// otherwise).
	Hybrid *hybrid.System
	// Sigma is the worst-case skew bound between communicating cells.
	Sigma float64
	// Tau is the clock distribution term of A5.
	Tau float64
	// Period is A5's σ + δ + τ (for hybrid, the wave cost).
	Period float64
	// SizeIndependent reports whether Period stays constant as the array
	// family grows.
	SizeIndependent bool
	// CertifiedSkewLowerBound is the Section V-B bound for square meshes
	// under the summation model (0 when not applicable): the skew any
	// global clock tree must suffer.
	CertifiedSkewLowerBound float64
	// Rationale is a one-paragraph explanation of the choice.
	Rationale string
}

// TreeSummary is the serializable digest of a plan's clock tree.
type TreeSummary struct {
	Name            string  `json:"name"`
	Nodes           int     `json:"nodes"`
	Buffers         int     `json:"buffers"`
	TotalWireLength float64 `json:"total_wire_length"`
	MaxRootDist     float64 `json:"max_root_dist"`
}

// HybridSummary is the serializable digest of a plan's hybrid partition.
type HybridSummary struct {
	Elements        int `json:"elements"`
	MaxElementCells int `json:"max_element_cells"`
}

// PlanSummary is the stable, serializable form of a Plan: everything a
// caller needs to act on the prescription, without the live tree and
// partition structures. It is the one encoding shared by cmd/planner
// -json and the service's POST /v1/plan.
type PlanSummary struct {
	Scheme                  Scheme         `json:"scheme"`
	Sigma                   float64        `json:"sigma"`
	Tau                     float64        `json:"tau"`
	Period                  float64        `json:"period"`
	SizeIndependent         bool           `json:"size_independent"`
	CertifiedSkewLowerBound float64        `json:"certified_skew_lower_bound,omitempty"`
	Tree                    *TreeSummary   `json:"tree,omitempty"`
	Hybrid                  *HybridSummary `json:"hybrid,omitempty"`
	Rationale               string         `json:"rationale"`
}

// Summary digests the plan into its serializable form.
func (p *Plan) Summary() PlanSummary {
	out := PlanSummary{
		Scheme:                  p.Scheme,
		Sigma:                   p.Sigma,
		Tau:                     p.Tau,
		Period:                  p.Period,
		SizeIndependent:         p.SizeIndependent,
		CertifiedSkewLowerBound: p.CertifiedSkewLowerBound,
		Rationale:               p.Rationale,
	}
	if p.Tree != nil {
		out.Tree = &TreeSummary{
			Name:            p.Tree.Name,
			Nodes:           p.Tree.NumNodes(),
			Buffers:         p.Tree.BufferCount(),
			TotalWireLength: p.Tree.TotalWireLength(),
			MaxRootDist:     p.Tree.MaxRootDist(),
		}
	}
	if p.Hybrid != nil {
		out.Hybrid = &HybridSummary{
			Elements:        p.Hybrid.NumElements(),
			MaxElementCells: p.Hybrid.MaxElementCells(),
		}
	}
	return out
}

// oneDimensional reports whether g's communication structure is a chain
// or ring — the shapes Theorem 3 clocks with a spine.
func oneDimensional(g *comm.Graph) bool {
	return g.Kind() == comm.KindLinear || g.Kind() == comm.KindRing
}

// NewPlan selects and constructs the synchronization scheme for g under
// the given assumptions.
func NewPlan(g *comm.Graph, a Assumptions) (*Plan, error) {
	return NewPlanCtx(context.Background(), g, a)
}

// NewPlanCtx is NewPlan with observability: when ctx carries a tracer
// it records a root "core.plan" span with child spans for each planning
// stage — clock-tree construction ("core.layout"), skew analysis
// ("skew.analyze"), lower-bound certification ("core.certify"), and
// hybrid partitioning ("core.hybrid") — so a trace shows where planning
// time goes for a given regime. The H-tree layout splits into
// "clocktree.htree", "clocktree.equalize" and "clocktree.buffered", and
// certification into "clocktree.htree" and "skew.certify".
func NewPlanCtx(ctx context.Context, g *comm.Graph, a Assumptions) (plan *Plan, err error) {
	ctx, root := obs.Start(ctx, "core.plan",
		obs.String("graph", g.Name), obs.String("model", string(a.Model)),
		obs.Int("cells", int64(g.NumCells())))
	defer func() {
		if plan != nil {
			root.Annotate(obs.String("scheme", string(plan.Scheme)))
		}
		root.End()
	}()
	if err := a.validate(); err != nil {
		return nil, err
	}
	if g.NumCells() == 0 {
		return nil, fmt.Errorf("core: empty graph")
	}
	tauPipelined := a.M * a.BufferSpacing

	switch a.Model {
	case DifferenceModel:
		buffered, err := layoutSpan(ctx, "htree", func(ctx context.Context) (*clocktree.Tree, error) {
			tree, err := treeStep(ctx, "clocktree.htree", g, func() (*clocktree.Tree, error) {
				return clocktree.HTree(g)
			})
			if err != nil {
				return nil, err
			}
			if _, err := treeStep(ctx, "clocktree.equalize", g, func() (*clocktree.Tree, error) {
				_, err := tree.Equalize()
				return tree, err
			}); err != nil {
				return nil, err
			}
			return treeStep(ctx, "clocktree.buffered", g, func() (*clocktree.Tree, error) {
				return clocktree.Buffered(tree, a.BufferSpacing)
			})
		})
		if err != nil {
			return nil, err
		}
		analysis, err := skew.AnalyzeCtx(ctx, g, buffered, skew.Difference{F: func(d float64) float64 { return a.M * d }})
		if err != nil {
			return nil, err
		}
		return &Plan{
			Scheme:          SchemeHTree,
			Tree:            buffered,
			Sigma:           analysis.MaxSkew,
			Tau:             tauPipelined,
			Period:          analysis.MaxSkew + a.Delta + tauPipelined,
			SizeIndependent: true,
			Rationale: "Difference model (A9): clock-line delays are tunable, so an " +
				"equalized H-tree gives every cell the same root distance and the " +
				"skew bound f(d)=M·d vanishes; Theorem 2 yields a clock period " +
				"independent of array size.",
		}, nil

	case SummationModel:
		model := skew.Summation{G: func(s float64) float64 { return a.Eps * s }, Beta: a.Eps}
		if oneDimensional(g) {
			buffered, err := layoutSpan(ctx, "spine", func(context.Context) (*clocktree.Tree, error) {
				var tree *clocktree.Tree
				var err error
				if g.Kind() == comm.KindRing {
					// A chain spine would leave the ring's wrap-around pair
					// a full chain apart on the tree; the ladder keeps
					// every ring pair local.
					tree, err = clocktree.Ladder(g)
				} else {
					tree, err = clocktree.Spine(g)
				}
				if err != nil {
					return nil, err
				}
				return clocktree.Buffered(tree, a.BufferSpacing)
			})
			if err != nil {
				return nil, err
			}
			analysis, err := skew.AnalyzeCtx(ctx, g, buffered, model)
			if err != nil {
				return nil, err
			}
			return &Plan{
				Scheme:          SchemeSpine,
				Tree:            buffered,
				Sigma:           analysis.MaxSkew,
				Tau:             tauPipelined,
				Period:          analysis.MaxSkew + a.Delta + tauPipelined,
				SizeIndependent: true,
				Rationale: "Summation model (A10/A11) on a one-dimensional array: run " +
					"the clock along the array (Theorem 3, Fig. 4); communicating " +
					"cells sit a bounded distance apart on the clock path, so skew " +
					"and period are independent of array length.",
			}, nil
		}
		// Two-dimensional (or otherwise wide) structure: global clocking
		// cannot keep skew bounded (Theorem 6) — plan the hybrid scheme.
		plan, err := hybridPlanCtx(ctx, g, a)
		if err != nil {
			return nil, err
		}
		if g.Kind() == comm.KindMesh && g.Rows() >= 2 && g.Cols() >= 2 {
			cctx, cspan := obs.Start(ctx, "core.certify", obs.Int("rows", int64(g.Rows())), obs.Int("cols", int64(g.Cols())))
			tree, err := treeStep(cctx, "clocktree.htree", g, func() (*clocktree.Tree, error) {
				return clocktree.HTree(g)
			})
			var cert skew.CertifiedResult
			if err == nil {
				_, err = treeStep(cctx, "skew.certify", g, func() (*clocktree.Tree, error) {
					var err error
					cert, err = skew.MeshCertifiedLowerBound(g, tree, a.Eps)
					return tree, err
				})
			}
			cspan.End()
			if err != nil {
				return nil, err
			}
			plan.CertifiedSkewLowerBound = cert.Bound
		}
		plan.Rationale = "Summation model on a two-dimensional array: Section V-B " +
			"proves every clock tree suffers skew Ω(n) between communicating " +
			"cells, so no global clock sustains a size-independent period; the " +
			"hybrid scheme of Section VI makes all synchronization paths local " +
			"and restores a constant cycle time."
		return plan, nil

	case NoPipelining:
		// Only equipotential clocking remains for a global clock: τ grows
		// with the layout diameter (A6). Report it, then prefer hybrid.
		plan, err := hybridPlanCtx(ctx, g, a)
		if err != nil {
			return nil, err
		}
		tree, err := layoutSpan(ctx, "htree-equipotential", func(context.Context) (*clocktree.Tree, error) {
			return clocktree.HTree(g)
		})
		if err != nil {
			return nil, err
		}
		if _, err := tree.Equalize(); err != nil {
			return nil, err
		}
		tau := a.Alpha * tree.MaxRootDist()
		plan.Tau = tau
		plan.Rationale = fmt.Sprintf("Pipelined clocking unavailable (A8 fails): an "+
			"equipotential clock needs τ = α·P = %.3g, growing with the layout "+
			"diameter (A6), so the hybrid scheme's constant cycle %.3g wins for "+
			"large arrays.", tau, plan.Period)
		return plan, nil
	}
	return nil, fmt.Errorf("core: unreachable model %q", a.Model)
}

// layoutSpan times one clock-tree construction under a "core.layout"
// span tagged with the layout kind; build's steps may add child spans
// to the context it is given.
func layoutSpan(ctx context.Context, kind string, build func(context.Context) (*clocktree.Tree, error)) (*clocktree.Tree, error) {
	ctx, span := obs.Start(ctx, "core.layout", obs.String("kind", kind))
	tree, err := build(ctx)
	if tree != nil {
		span.Annotate(obs.Int("nodes", int64(tree.NumNodes())))
	}
	span.End()
	return tree, err
}

// treeStep times one step of a clock-tree layer under a child span
// tagged with the graph's cell count and the resulting tree's node count.
func treeStep(ctx context.Context, name string, g *comm.Graph, step func() (*clocktree.Tree, error)) (*clocktree.Tree, error) {
	_, span := obs.Start(ctx, name, obs.Int("cells", int64(g.NumCells())))
	tree, err := step()
	if tree != nil {
		span.Annotate(obs.Int("nodes", int64(tree.NumNodes())))
	}
	span.End()
	return tree, err
}

// hybridPlanCtx times hybridPlan under a "core.hybrid" span.
func hybridPlanCtx(ctx context.Context, g *comm.Graph, a Assumptions) (*Plan, error) {
	_, span := obs.Start(ctx, "core.hybrid")
	plan, err := hybridPlan(g, a)
	if plan != nil && plan.Hybrid != nil {
		span.Annotate(obs.Int("elements", int64(plan.Hybrid.NumElements())))
	}
	span.End()
	return plan, err
}

// hybridPlan builds the Section VI fallback plan.
func hybridPlan(g *comm.Graph, a Assumptions) (*Plan, error) {
	cfg := hybrid.Config{
		ElementSize:       a.ElementSize,
		Handshake:         a.Handshake,
		LocalDistribution: a.LocalDistribution,
		CellDelay:         a.Delta,
		HoldDelay:         a.Delta / 4,
	}
	if cfg.ElementSize <= 0 {
		cfg.ElementSize = 4
	}
	if cfg.Handshake <= 0 {
		cfg.Handshake = a.Delta / 2
	}
	if cfg.LocalDistribution < 0 {
		cfg.LocalDistribution = 0
	}
	sys, err := hybrid.New(g, cfg)
	if err != nil {
		return nil, err
	}
	// Local skew within an element is bounded by ε times the local clock
	// wiring, itself bounded by the element diameter.
	sigma := a.Eps * 2 * cfg.ElementSize
	return &Plan{
		Scheme:          SchemeHybrid,
		Hybrid:          sys,
		Sigma:           sigma,
		Period:          cfg.WaveCost(),
		SizeIndependent: true,
	}, nil
}
