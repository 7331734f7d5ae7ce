// Command skewtab prints worst-case clock skew tables for a topology ×
// clocking scheme × skew model sweep — the quantities Sections IV and V
// of the paper reason about.
//
// Usage:
//
//	skewtab [-topology linear|ring|mesh|hex] [-scheme spine|htree|htree-eq|serpentine|ladder]
//	        [-model difference|summation|linear] [-sizes 8,16,32,64] [-m 1] [-eps 0.1]
package main

import (
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"

	vlsisync "repro"
	"repro/internal/clocktree"
	"repro/internal/comm"
	"repro/internal/report"
	"repro/internal/skew"
)

func main() {
	topology := flag.String("topology", "linear", "array topology: linear, ring, mesh, hex")
	scheme := flag.String("scheme", "spine", "clock scheme: spine, htree, htree-eq, serpentine, ladder")
	model := flag.String("model", "summation", "skew model: difference, summation, linear")
	sizesFlag := flag.String("sizes", "8,16,32,64", "comma-separated array sizes")
	m := flag.Float64("m", 1, "nominal wire delay per unit length")
	eps := flag.Float64("eps", 0.1, "wire delay variation per unit length")
	flag.Parse()

	sizes, err := parseSizes(*sizesFlag)
	if err != nil {
		fail(err)
	}
	mdl, err := buildModel(*model, *m, *eps)
	if err != nil {
		fail(err)
	}
	tbl := report.NewTable(
		fmt.Sprintf("worst-case skew: %s array, %s clock, %s model", *topology, *scheme, *model),
		"n", "cells", "max skew", "worst pair d", "worst pair s", "wire length")
	for _, n := range sizes {
		g, err := buildTopology(*topology, n)
		if err != nil {
			fail(err)
		}
		tree, err := buildScheme(*scheme, g)
		if err != nil {
			fail(err)
		}
		a, err := vlsisync.AnalyzeSkew(g, tree, mdl)
		if err != nil {
			fail(err)
		}
		tbl.AddRow(n, g.NumCells(), a.MaxSkew, a.WorstPair.D, a.WorstPair.S, tree.TotalWireLength())
	}
	if err := tbl.Render(os.Stdout); err != nil {
		fail(err)
	}
}

func parseSizes(s string) ([]int, error) {
	var out []int
	for _, part := range strings.Split(s, ",") {
		n, err := strconv.Atoi(strings.TrimSpace(part))
		if err != nil {
			return nil, fmt.Errorf("bad size %q: %w", part, err)
		}
		out = append(out, n)
	}
	return out, nil
}

func buildTopology(name string, n int) (*comm.Graph, error) {
	switch name {
	case "linear":
		return comm.Linear(n)
	case "ring":
		return comm.Ring(n)
	case "mesh":
		return comm.Mesh(n, n)
	case "hex":
		return comm.Hex(n)
	}
	return nil, fmt.Errorf("unknown topology %q", name)
}

func buildScheme(name string, g *comm.Graph) (*clocktree.Tree, error) {
	switch name {
	case "spine":
		return clocktree.Spine(g)
	case "htree":
		return clocktree.HTree(g)
	case "htree-eq":
		tree, err := clocktree.HTree(g)
		if err != nil {
			return nil, err
		}
		if _, err := tree.Equalize(); err != nil {
			return nil, err
		}
		return tree, nil
	case "serpentine":
		return clocktree.Serpentine(g)
	case "ladder":
		return clocktree.Ladder(g)
	}
	return nil, fmt.Errorf("unknown scheme %q", name)
}

func buildModel(name string, m, eps float64) (skew.Model, error) {
	switch name {
	case "difference":
		return skew.Difference{F: func(d float64) float64 { return m * d }}, nil
	case "summation":
		return skew.Summation{G: func(s float64) float64 { return eps * s }, Beta: eps}, nil
	case "linear":
		return skew.Linear{M: m, Eps: eps}, nil
	}
	return nil, fmt.Errorf("unknown model %q", name)
}

func fail(err error) {
	fmt.Fprintln(os.Stderr, "skewtab:", err)
	os.Exit(1)
}
