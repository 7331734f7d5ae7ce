// Package skew implements the paper's two clock-skew models (Section III)
// and the analyses built on them: exact worst-case skew over the
// communicating pairs of an array (Sections IV and V), Monte-Carlo skew
// under per-segment delay variation (the physical mechanism that derives
// the models), and the certified Ω(n) lower bound of Section V-B.
//
// Both models bound the skew between two cells from the geometry of the
// clock tree connecting them: the difference model (A9) from the positive
// difference d of their root distances, and the summation model (A10/A11)
// from the length s of the tree path between them. When wire delay per
// unit length lies in [m−ε, m+ε], Section III derives
//
//	σ ≤ m·d + ε·s   and   σ ≥ β·s with β = ε,
//
// which this package exposes as the Linear model.
package skew

import (
	"context"
	"fmt"

	"repro/internal/clocktree"
	"repro/internal/comm"
	"repro/internal/obs"
	"repro/internal/runner"
	"repro/internal/stats"
)

// Model bounds the clock skew between two cells given the two tree
// distances of Section III: d (difference of root distances) and s (tree
// path length). Implementations must be monotone in their distance.
type Model interface {
	// Name identifies the model in reports.
	Name() string
	// Bound returns an upper bound on the skew between two cells whose
	// clock-tree distances are d and s.
	Bound(d, s float64) float64
}

// LowerBounder is implemented by models that also bound skew from below
// (assumption A11 of the summation model).
type LowerBounder interface {
	// LowerBound returns a guaranteed minimum worst-case skew for two
	// cells at tree-path distance s.
	LowerBound(s float64) float64
}

// Difference is the difference model (A9): skew ≤ F(d). It matches
// discrete-component systems whose clock trees are tuned so that delay
// from the root is the same for all cells.
type Difference struct {
	// F maps the root-distance difference to a skew bound; it must be
	// monotonically increasing. A nil F means the identity.
	F func(d float64) float64
}

// Name implements Model.
func (Difference) Name() string { return "difference" }

// Bound implements Model.
func (m Difference) Bound(d, _ float64) float64 {
	if m.F == nil {
		return d
	}
	return m.F(d)
}

// Summation is the summation model (A10/A11): β·s ≤ skew ≤ G(s). It is
// the robust model for integrated circuits, where electrical variation
// along clock lines accumulates with wire length.
type Summation struct {
	// G maps tree-path length to a skew upper bound; nil means identity.
	G func(s float64) float64
	// Beta is the lower-bound constant β of A11; it must be positive for
	// LowerBound to be meaningful.
	Beta float64
}

// Name implements Model.
func (Summation) Name() string { return "summation" }

// Bound implements Model.
func (m Summation) Bound(_, s float64) float64 {
	if m.G == nil {
		return s
	}
	return m.G(s)
}

// LowerBound implements LowerBounder.
func (m Summation) LowerBound(s float64) float64 { return m.Beta * s }

// Linear is the physically derived model of Section III: wire delay per
// unit length lies in [M−Eps, M+Eps], giving skew ≤ M·d + Eps·s and skew
// potentially as large as Eps·s even between equidistant cells.
type Linear struct {
	M   float64 // nominal delay per unit wire length
	Eps float64 // delay variation per unit wire length
}

// Name implements Model.
func (Linear) Name() string { return "linear" }

// Bound implements Model.
func (m Linear) Bound(d, s float64) float64 { return m.M*d + m.Eps*s }

// LowerBound implements LowerBounder: adversarial variation achieves ε·s.
func (m Linear) LowerBound(s float64) float64 { return m.Eps * s }

// Validate checks the Section III parameter constraint 0 ≤ Eps ≤ M (the
// delay band [M−Eps, M+Eps] must be non-negative). It is the single
// validation point shared by every Monte-Carlo entry point, so the error
// message cannot drift between them.
func (m Linear) Validate() error {
	if m.Eps < 0 || m.M < m.Eps {
		return fmt.Errorf("skew: need 0 ≤ Eps ≤ M, got M=%g Eps=%g", m.M, m.Eps)
	}
	return nil
}

// PairSkew is the skew bound for one communicating pair.
type PairSkew struct {
	A, B comm.CellID
	D    float64 // difference distance
	S    float64 // summation (tree-path) distance
	Skew float64 // model upper bound
}

// Analysis is the result of evaluating a skew model over every
// communicating pair of an array under a given clock tree.
type Analysis struct {
	Model     string
	Tree      string
	MaxSkew   float64
	WorstPair PairSkew
	MaxD      float64 // largest difference distance over pairs
	MaxS      float64 // largest tree-path distance over pairs
	Pairs     int
}

// Analyze computes the model's worst-case skew over all communicating
// pairs of g clocked by tree. It returns an error if the tree does not
// clock every cell of g.
//
// Analyze builds a throwaway Kernel; callers evaluating several models,
// seeds, or trial counts against one (graph, tree) should build the
// Kernel once and query it directly.
func Analyze(g *comm.Graph, tree *clocktree.Tree, model Model) (Analysis, error) {
	k, err := NewKernel(g, tree)
	if err != nil {
		return Analysis{}, err
	}
	return k.Analyze(model), nil
}

// GuaranteedMinSkew returns the model's guaranteed worst-case skew for the
// array: the largest lower bound over communicating pairs. For models
// without a lower bound it returns 0.
func GuaranteedMinSkew(g *comm.Graph, tree *clocktree.Tree, model Model) float64 {
	lb, ok := model.(LowerBounder)
	if !ok {
		return 0
	}
	k, err := NewKernel(g, tree)
	if err != nil {
		// Preserve the pre-kernel contract: a non-covering tree panics in
		// CellPathLen rather than returning an error from this helper.
		var worst float64
		c := g.PairIndex().Cursor(0)
		for a, b, ok := c.Next(); ok; a, b, ok = c.Next() {
			if v := lb.LowerBound(tree.CellPathLen(a, b)); v > worst {
				worst = v
			}
		}
		return worst
	}
	return k.GuaranteedMinSkew(model)
}

// MonteCarlo draws random per-segment wire delays in [M−Eps, M+Eps] (each
// clock-tree edge independently, as fabrication variation would), computes
// each cell's clock arrival time as the summed delay along its root path,
// and returns the maximum arrival-time difference over communicating
// pairs, maximized over trials. This is the physical experiment that the
// Section III derivation abstracts; its result must respect both the
// Linear model's upper bound and (statistically) exceed any fixed fraction
// of the summation lower bound as trials grow.
func MonteCarlo(g *comm.Graph, tree *clocktree.Tree, m Linear, trials int, rng *stats.RNG) (float64, error) {
	k, err := NewKernel(g, tree)
	if err != nil {
		return 0, err
	}
	return k.MonteCarlo(m, trials, rng)
}

// MonteCarloParallel is MonteCarlo with the trials fanned out over a
// bounded worker pool and cancellation threaded through ctx — the form
// the serving path uses so one heavy request neither blocks a core nor
// outlives its deadline. Trials are partitioned into contiguous chunks,
// and each chunk borrows one arena from the kernel's pool for all of its
// trials, so steady-state trials allocate nothing. Each trial forks the
// caller's generator by its trial index exactly as MonteCarlo does, and
// the worst skew is a max-reduction — order independent — so the result
// is identical to the sequential run at any worker count and any
// chunking. A cancelled ctx aborts the remaining trials and returns
// ctx's error; a streamed-tier kernel returns its *SizeError.
func (k *Kernel) MonteCarloParallel(ctx context.Context, workers int, m Linear, trials int, rng *stats.RNG) (float64, error) {
	if k.sizeErr != nil {
		return 0, k.sizeErr
	}
	// Chunk so each worker gets a few chunks (tail-latency smoothing)
	// without creating so many that scheduling costs return.
	chunkSize := 1
	if workers > 1 {
		chunkSize = (trials + workers*4 - 1) / (workers * 4)
	}
	chunks := 0
	if chunkSize > 0 {
		chunks = (trials + chunkSize - 1) / chunkSize
	}
	ctx, span := obs.Start(ctx, "skew.montecarlo",
		obs.String("graph", k.graph.Name), obs.String("tree", k.tree.Name),
		obs.Int("trials", int64(trials)), obs.Int("workers", int64(workers)),
		obs.Int("chunks", int64(chunks)))
	defer span.End()
	if err := m.Validate(); err != nil {
		return 0, err
	}
	results := runner.MapChunks(ctx, workers, trials, chunkSize, func(ctx context.Context, lo, hi int) (float64, error) {
		a := k.arenas.Get().(*mcArena)
		defer k.arenas.Put(a)
		var worst float64
		for trial := lo; trial < hi; trial++ {
			if err := ctx.Err(); err != nil {
				return 0, err
			}
			if w := k.trial(m, rng.ForkInto(int64(trial), a.rng), a); w > worst {
				worst = w
			}
		}
		return worst, nil
	})
	if err := runner.Join(results); err != nil {
		return 0, err
	}
	var worst float64
	for _, r := range results {
		if r.Value > worst {
			worst = r.Value
		}
	}
	return worst, nil
}
