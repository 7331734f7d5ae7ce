package core

import (
	"bytes"
	"context"
	"testing"

	"repro/internal/comm"
	"repro/internal/obs"
)

// TestPlanTreeSpans checks that a traced plan splits its clock-tree
// layers into child spans: the difference model's core.layout into the
// H-tree build, Equalize and Buffered, and the summation model's
// core.certify into the H-tree build and the bound. Each child carries
// the graph's cell count and the resulting tree's node count.
func TestPlanTreeSpans(t *testing.T) {
	g, err := comm.Mesh(8, 8)
	if err != nil {
		t.Fatal(err)
	}
	for model, want := range map[ModelKind]map[string]string{
		DifferenceModel: {"clocktree.htree": "core.layout", "clocktree.equalize": "core.layout", "clocktree.buffered": "core.layout"},
		SummationModel:  {"clocktree.htree": "core.certify", "skew.certify": "core.certify"},
	} {
		tr := obs.NewTracer()
		if _, err := NewPlanCtx(obs.WithTracer(context.Background(), tr), g, assumptions(model)); err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if err := tr.WriteTrace(&buf); err != nil {
			t.Fatal(err)
		}
		doc, err := obs.ReadTrace(&buf)
		if err != nil {
			t.Fatal(err)
		}
		// A child span lies inside its parent's interval.
		parents := map[string][2]float64{}
		for _, e := range doc.TraceEvents {
			if e.Phase == "X" {
				parents[e.Name] = [2]float64{e.TS, e.TS + e.Dur}
			}
		}
		seen := map[string]bool{}
		for _, e := range doc.TraceEvents {
			parent, ok := want[e.Name]
			if !ok || e.Phase != "X" {
				continue
			}
			seen[e.Name] = true
			if p, ok := parents[parent]; !ok || e.TS < p[0] || e.TS+e.Dur > p[1] {
				t.Errorf("%s: span %s does not lie inside %s", model, e.Name, parent)
			}
			if cells, _ := e.Args["cells"].(float64); cells != 64 {
				t.Errorf("%s: span %s cells = %v, want 64", model, e.Name, e.Args["cells"])
			}
			if nodes, _ := e.Args["nodes"].(float64); nodes < 127 {
				t.Errorf("%s: span %s nodes = %v, want ≥ 127", model, e.Name, e.Args["nodes"])
			}
		}
		for name := range want {
			if !seen[name] {
				t.Errorf("%s: no %s span", model, name)
			}
		}
	}
}
