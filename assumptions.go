package vlsisync

import (
	"fmt"
	"sort"
)

// PaperAssumption documents one of the paper's numbered assumptions
// (Section II and III) together with where this repository implements or
// exercises it — so users can trace every modeling decision back to the
// text.
type PaperAssumption struct {
	ID        string
	Statement string
	// Implementation names the packages and identifiers realizing it.
	Implementation string
	// Experiments lists the experiment IDs that exercise it.
	Experiments []string
}

var paperAssumptions = map[string]PaperAssumption{
	"A1": {
		ID: "A1",
		Statement: "Intercell communications of an ideally synchronized array are a " +
			"directed graph COMM laid out in the plane; each edge carries one data " +
			"item per cycle between communicating cells.",
		Implementation: "internal/comm (Graph, PairIndex); internal/array (RunIdeal)",
		Experiments:    []string{"E1", "E3", "E8"},
	},
	"A2": {
		ID:             "A2",
		Statement:      "A cell occupies unit area.",
		Implementation: "internal/comm layouts (unit cell pitch); circle counting in internal/skew",
		Experiments:    []string{"E4"},
	},
	"A3": {
		ID:             "A3",
		Statement:      "A communication edge has unit width.",
		Implementation: "internal/skew (2πσ/β crossing bound); internal/clocktree area accounting",
		Experiments:    []string{"E4"},
	},
	"A4": {
		ID: "A4",
		Statement: "The clock is distributed by a rooted binary tree CLK laid out in " +
			"the plane; a cell can be clocked only if it is a node of CLK.",
		Implementation: "internal/clocktree (Tree, Validate enforces binary branching and coverage)",
		Experiments:    []string{"E1", "E2", "E3", "E4"},
	},
	"A5": {
		ID: "A5",
		Statement: "A clocked system may be driven with clock period σ + δ + τ (skew " +
			"plus compute/propagate delay plus distribution time).",
		Implementation: "internal/array (RunClocked, MinWorkingPeriod); internal/core (Plan.Period)",
		Experiments:    []string{"E9"},
	},
	"A6": {
		ID: "A6",
		Statement: "Equipotential distribution time τ is at least α·P, P the longest " +
			"root-to-leaf path of CLK: large equipotentially clocked arrays have " +
			"periods growing with their diameter.",
		Implementation: "internal/clocktree (Tree.MaxRootDist); internal/wiresim (RCWire); internal/core",
		Experiments:    []string{"E6", "E15"},
	},
	"A7": {
		ID: "A7",
		Statement: "With buffers a constant distance apart, the per-segment " +
			"distribution time τ of a buffered clock tree is a constant independent " +
			"of array size (pipelined clocking).",
		Implementation: "internal/clocktree (Buffered); internal/wiresim (InverterString); internal/clocksim",
		Experiments:    []string{"E6", "E15"},
	},
	"A8": {
		ID: "A8",
		Statement: "Signal travel time along a fixed path through a buffered clock " +
			"tree is invariant over time (required for pipelined clocking).",
		Implementation: "internal/wiresim (PipelinedRun's jitterSD models its violation); internal/core (NoPipelining)",
		Experiments:    []string{"E6"},
	},
	"A9": {
		ID: "A9",
		Statement: "Difference model: skew between two nodes is bounded above by " +
			"f(d), d the difference of their path lengths from the clock root.",
		Implementation: "internal/skew (Difference); internal/clocktree (Equalize)",
		Experiments:    []string{"E1"},
	},
	"A10": {
		ID: "A10",
		Statement: "Summation model, upper bound: skew between two nodes is bounded " +
			"above by g(s), s the length of the tree path connecting them.",
		Implementation: "internal/skew (Summation.Bound); internal/clocksim (Random)",
		Experiments:    []string{"E2", "E3"},
	},
	"A11": {
		ID: "A11",
		Statement: "Summation model, lower bound: skew between two nodes can be as " +
			"large as β·s — the assumption powering the Ω(n) mesh lower bound.",
		Implementation: "internal/skew (Summation.LowerBound, MeshCertifiedLowerBound); internal/clocksim (Adversarial)",
		Experiments:    []string{"E4", "E13"},
	},
}

// Assumption returns the paper assumption with the given ID (A1–A11).
func Assumption(id string) (PaperAssumption, error) {
	a, ok := paperAssumptions[id]
	if !ok {
		return PaperAssumption{}, fmt.Errorf("vlsisync: unknown assumption %q (have A1–A11)", id)
	}
	return a, nil
}

// Assumptions11 returns all eleven paper assumptions in order.
func Assumptions11() []PaperAssumption {
	ids := make([]string, 0, len(paperAssumptions))
	for id := range paperAssumptions {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool {
		// A1…A9 sort numerically, then A10, A11.
		return assumptionOrder(ids[i]) < assumptionOrder(ids[j])
	})
	out := make([]PaperAssumption, len(ids))
	for i, id := range ids {
		out[i] = paperAssumptions[id]
	}
	return out
}

func assumptionOrder(id string) int {
	var n int
	if _, err := fmt.Sscanf(id, "A%d", &n); err != nil {
		return 1 << 30
	}
	return n
}
