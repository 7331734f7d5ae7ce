package graph

import (
	"fmt"
	"testing"

	"repro/internal/clocktree"
	"repro/internal/comm"
	"repro/internal/stats"
)

// TreeEdgeSeparator implements the paper's Lemma 5: given a binary tree
// (as a parent array, parent[root] == -1) and a marked subset M of at
// least two nodes, it finds an edge whose removal splits the tree so that
// each part contains at most 2/3·|M| + 1/2 marked nodes; when the marked
// nodes are all leaves the classical strict 2/3·|M| bound holds. (The
// extra 1/2 covers marks on internal nodes, which the paper's asymptotic
// argument absorbs into its constants.) It returns the child endpoint of
// the separating edge (the edge is child—parent[child]).
func TreeEdgeSeparator(parent []int, marked []bool) (child int, err error) {
	n := len(parent)
	if len(marked) != n {
		return 0, fmt.Errorf("graph: marked length %d != %d nodes", len(marked), n)
	}
	root := -1
	children := make([][]int, n)
	for v, p := range parent {
		if p < 0 {
			if root >= 0 {
				return 0, fmt.Errorf("graph: multiple roots (%d and %d)", root, v)
			}
			root = v
			continue
		}
		if p >= n {
			return 0, fmt.Errorf("graph: parent[%d] = %d out of range", v, p)
		}
		children[p] = append(children[p], v)
	}
	if root < 0 {
		return 0, fmt.Errorf("graph: no root")
	}
	total := 0
	for _, m := range marked {
		if m {
			total++
		}
	}
	if total < 2 {
		return 0, fmt.Errorf("graph: need at least 2 marked nodes, have %d", total)
	}

	// Subtree marked-counts via iterative post-order.
	count := make([]int, n)
	type frame struct {
		v, idx int
	}
	stack := []frame{{root, 0}}
	for len(stack) > 0 {
		f := &stack[len(stack)-1]
		if f.idx < len(children[f.v]) {
			c := children[f.v][f.idx]
			f.idx++
			stack = append(stack, frame{c, 0})
			continue
		}
		c := 0
		if marked[f.v] {
			c = 1
		}
		for _, ch := range children[f.v] {
			c += count[ch]
		}
		count[f.v] = c
		stack = stack[:len(stack)-1]
	}

	// Standard constructive proof of Lemma 5 for binary trees: descend
	// from the root into any child whose subtree holds more than 2/3 of
	// the marked nodes (there can be at most one such child). Stop at the
	// deepest node v whose subtree still holds > 2/3; every child of v
	// then holds ≤ 2/3, and because v has at most two children, its
	// heaviest child c holds ≥ (count[v]−1)/2 > total/3 − 1, so the far
	// side total−count[c] ≤ 2/3·total as well. The edge v—c separates.
	for p := range children {
		if len(children[p]) > 2 {
			return 0, fmt.Errorf("graph: node %d has %d children; Lemma 5 requires a binary tree", p, len(children[p]))
		}
	}
	v := root
	for {
		descend := -1
		for _, c := range children[v] {
			if 3*count[c] > 2*total {
				descend = c
				break
			}
		}
		if descend < 0 {
			break
		}
		v = descend
	}
	heaviest, heaviestCount := -1, -1
	for _, c := range children[v] {
		if count[c] > heaviestCount {
			heaviest, heaviestCount = c, count[c]
		}
	}
	if heaviest < 0 {
		// v is a leaf with subtree count > 2/3·total ≥ 4/3 > 1: impossible
		// since a leaf's count is at most 1.
		return 0, fmt.Errorf("graph: internal error: separator descent reached a leaf")
	}
	return heaviest, nil
}

// TestSeparatorMatchesTreeEdgeSeparator checks the sweep separator
// against TreeEdgeSeparator, the parent-array Lemma 5 oracle, on
// H-tree, serpentine and random trees: both must pick the same edge.
func TestSeparatorMatchesTreeEdgeSeparator(t *testing.T) {
	for _, dims := range [][2]int{{2, 2}, {5, 7}, {16, 16}, {13, 30}} {
		g, err := comm.Mesh(dims[0], dims[1])
		if err != nil {
			t.Fatal(err)
		}
		trees := map[string]*clocktree.Tree{}
		for name, build := range map[string]func(*comm.Graph) (*clocktree.Tree, error){
			"htree": clocktree.HTree, "serpentine": clocktree.Serpentine,
		} {
			tr, err := build(g)
			if err != nil {
				t.Fatal(err)
			}
			trees[name] = tr
		}
		for seed := int64(10); seed < 15; seed++ {
			tr, err := clocktree.RandomBinary(g, stats.NewRNG(seed))
			if err != nil {
				t.Fatal(err)
			}
			trees[fmt.Sprintf("random%d", seed)] = tr
		}
		for name, tr := range trees {
			parent := make([]int, tr.NumNodes())
			marked := make([]bool, tr.NumNodes())
			for v := range parent {
				parent[v] = int(tr.Parent(clocktree.NodeID(v)))
				marked[v] = tr.Node(clocktree.NodeID(v)).Cell != comm.Host
			}
			want, err := TreeEdgeSeparator(parent, marked)
			if err != nil {
				t.Fatal(err)
			}
			got, err := tr.Separator()
			if err != nil {
				t.Fatal(err)
			}
			if int(got) != want {
				t.Errorf("%dx%d/%s: separator child %d, oracle %d", dims[0], dims[1], name, got, want)
			}
		}
	}
}
