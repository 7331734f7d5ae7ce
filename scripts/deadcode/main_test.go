package main

import (
	"go/ast"
	"go/parser"
	"go/token"
	"slices"
	"testing"
)

func TestSymbolKeys(t *testing.T) {
	for _, tc := range []struct {
		sym  string
		want []string
	}{
		{"repro/internal/skew.Analyze", []string{"repro/internal/skew.Analyze"}},
		{"repro/internal/skew.(*Kernel).Analyze",
			[]string{"repro/internal/skew.Kernel", "repro/internal/skew.Kernel.Analyze"}},
		{"repro/internal/geom.Path.Length",
			[]string{"repro/internal/geom.Path", "repro/internal/geom.Path.Length"}},
		// A closure or method value accounts for its enclosing function.
		{"repro/internal/clocktree.HTree.func1",
			[]string{"repro/internal/clocktree.HTree", "repro/internal/clocktree.HTree.func1"}},
		{"repro/internal/cluster.(*Forwarder).Do.func1.1",
			[]string{"repro/internal/cluster.Forwarder", "repro/internal/cluster.Forwarder.Do"}},
		{"repro/internal/obs.(*Tracer).End-fm",
			[]string{"repro/internal/obs.Tracer", "repro/internal/obs.Tracer.End"}},
		// Generic instantiations match the declaration, even when the
		// shape names another package or holds spaces.
		{"repro/internal/service.(*engineCache[go.shape.*uint8]).get",
			[]string{"repro/internal/service.engineCache", "repro/internal/service.engineCache.get"}},
		{"repro/internal/runner.Map[go.shape.struct { repro/internal/comm.x int }]",
			[]string{"repro/internal/runner.Map"}},
		{"repro.RunExperiments", []string{"repro.RunExperiments"}},
	} {
		if got := symbolKeys(tc.sym); !slices.Equal(got, tc.want) {
			t.Errorf("symbolKeys(%q) = %q, want %q", tc.sym, got, tc.want)
		}
	}
}

func TestRecvName(t *testing.T) {
	src := `package p
func (a T) M0() {}
func (a *T) M1() {}
func (c *cache[K, V]) M2() {}
func (c cache[K]) M3() {}`
	f, err := parser.ParseFile(token.NewFileSet(), "p.go", src, 0)
	if err != nil {
		t.Fatal(err)
	}
	want := []string{"T", "T", "cache", "cache"}
	for i, d := range f.Decls {
		if got := recvName(d.(*ast.FuncDecl).Recv.List[0].Type); got != want[i] {
			t.Errorf("receiver %d = %q, want %q", i, got, want[i])
		}
	}
}
