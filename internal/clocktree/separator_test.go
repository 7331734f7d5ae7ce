package clocktree

// The parent-array Lemma 5 edge separator, kept as the oracle for
// Tree.Separator's sweep, and the tests that keep the oracle honest.

import (
	"fmt"
	"testing"
	"testing/quick"

	"repro/internal/comm"
	"repro/internal/stats"
)

// treeEdgeSeparator implements the paper's Lemma 5: given a binary tree
// (as a parent array, parent[root] == -1) and a marked subset M of at
// least two nodes, it finds an edge whose removal splits the tree so that
// each part contains at most 2/3·|M| + 1/2 marked nodes; when the marked
// nodes are all leaves the classical strict 2/3·|M| bound holds. (The
// extra 1/2 covers marks on internal nodes, which the paper's asymptotic
// argument absorbs into its constants.) It returns the child endpoint of
// the separating edge (the edge is child—parent[child]).
func treeEdgeSeparator(parent []int, marked []bool) (child int, err error) {
	n := len(parent)
	if len(marked) != n {
		return 0, fmt.Errorf("oracle: marked length %d != %d nodes", len(marked), n)
	}
	root := -1
	children := make([][]int, n)
	for v, p := range parent {
		if p < 0 {
			if root >= 0 {
				return 0, fmt.Errorf("oracle: multiple roots (%d and %d)", root, v)
			}
			root = v
			continue
		}
		if p >= n {
			return 0, fmt.Errorf("oracle: parent[%d] = %d out of range", v, p)
		}
		children[p] = append(children[p], v)
	}
	if root < 0 {
		return 0, fmt.Errorf("oracle: no root")
	}
	total := 0
	for _, m := range marked {
		if m {
			total++
		}
	}
	if total < 2 {
		return 0, fmt.Errorf("oracle: need at least 2 marked nodes, have %d", total)
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
			return 0, fmt.Errorf("oracle: node %d has %d children; Lemma 5 requires a binary tree", p, len(children[p]))
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
		return 0, fmt.Errorf("oracle: internal error: separator descent reached a leaf")
	}
	return heaviest, nil
}

// TestSeparatorMatchesTreeEdgeSeparator checks the sweep separator
// against treeEdgeSeparator, the parent-array Lemma 5 oracle, on
// H-tree, serpentine and random trees: both must pick the same edge.
func TestSeparatorMatchesTreeEdgeSeparator(t *testing.T) {
	for _, dims := range [][2]int{{2, 2}, {5, 7}, {16, 16}, {13, 30}} {
		g, err := comm.Mesh(dims[0], dims[1])
		if err != nil {
			t.Fatal(err)
		}
		trees := map[string]*Tree{}
		for name, build := range map[string]func(*comm.Graph) (*Tree, error){
			"htree": HTree, "serpentine": Serpentine,
		} {
			tr, err := build(g)
			if err != nil {
				t.Fatal(err)
			}
			trees[name] = tr
		}
		for seed := int64(10); seed < 15; seed++ {
			tr, err := RandomBinary(g, stats.NewRNG(seed))
			if err != nil {
				t.Fatal(err)
			}
			trees[fmt.Sprintf("random%d", seed)] = tr
		}
		for name, tr := range trees {
			parent := make([]int, tr.NumNodes())
			marked := make([]bool, tr.NumNodes())
			for v := range parent {
				parent[v] = int(tr.Parent(NodeID(v)))
				marked[v] = tr.Node(NodeID(v)).Cell != comm.Host
			}
			want, err := treeEdgeSeparator(parent, marked)
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

// completeBinaryParents converts the implicit heap-indexed complete binary tree
// into a parent array.
func completeBinaryParents(levels int) []int {
	n := (1 << levels) - 1
	parent := make([]int, n)
	parent[0] = -1
	for v := 1; v < n; v++ {
		parent[v] = (v - 1) / 2
	}
	return parent
}

func TestTreeEdgeSeparatorLeafMarked(t *testing.T) {
	// Mark all leaves of a depth-5 complete binary tree; classical strict
	// 2/3 bound applies.
	parent := completeBinaryParents(5)
	n := len(parent)
	marked := make([]bool, n)
	total := 0
	for v := n / 2; v < n; v++ {
		marked[v] = true
		total++
	}
	child, err := treeEdgeSeparator(parent, marked)
	if err != nil {
		t.Fatal(err)
	}
	below := countMarkedBelow(parent, marked, child)
	above := total - below
	if 3*below > 2*total || 3*above > 2*total {
		t.Errorf("split %d|%d violates 2/3 of %d", below, above, total)
	}
}

func TestTreeEdgeSeparatorAllMarked(t *testing.T) {
	parent := completeBinaryParents(6)
	marked := make([]bool, len(parent))
	for i := range marked {
		marked[i] = true
	}
	total := len(parent)
	child, err := treeEdgeSeparator(parent, marked)
	if err != nil {
		t.Fatal(err)
	}
	below := countMarkedBelow(parent, marked, child)
	above := total - below
	// Internal marks allow the documented +1/2 slack.
	if 2*3*below > 2*(2*total)+3 || 2*3*above > 2*(2*total)+3 {
		t.Errorf("split %d|%d violates 2/3+1/2 of %d", below, above, total)
	}
}

func TestTreeEdgeSeparatorPathTree(t *testing.T) {
	// A path (degenerate binary tree) with both endpoints marked: any
	// internal edge separates 1|1.
	n := 9
	parent := make([]int, n)
	parent[0] = -1
	for v := 1; v < n; v++ {
		parent[v] = v - 1
	}
	marked := make([]bool, n)
	marked[0], marked[n-1] = true, true
	child, err := treeEdgeSeparator(parent, marked)
	if err != nil {
		t.Fatal(err)
	}
	below := countMarkedBelow(parent, marked, child)
	if below != 1 {
		t.Errorf("path separator below-count = %d, want 1", below)
	}
}

func TestTreeEdgeSeparatorErrors(t *testing.T) {
	parent := completeBinaryParents(3)
	if _, err := treeEdgeSeparator(parent, make([]bool, 2)); err == nil {
		t.Error("length mismatch accepted")
	}
	one := make([]bool, len(parent))
	one[0] = true
	if _, err := treeEdgeSeparator(parent, one); err == nil {
		t.Error("single marked node accepted")
	}
	noRoot := []int{1, 0} // cycle, no -1
	if _, err := treeEdgeSeparator(noRoot, []bool{true, true}); err == nil {
		t.Error("rootless parent array accepted")
	}
	twoRoots := []int{-1, -1}
	if _, err := treeEdgeSeparator(twoRoots, []bool{true, true}); err == nil {
		t.Error("two roots accepted")
	}
	ternary := []int{-1, 0, 0, 0}
	if _, err := treeEdgeSeparator(ternary, []bool{true, true, true, true}); err == nil {
		t.Error("ternary tree accepted")
	}
	badParent := []int{-1, 5}
	if _, err := treeEdgeSeparator(badParent, []bool{true, true}); err == nil {
		t.Error("out-of-range parent accepted")
	}
}

func TestTreeEdgeSeparatorProperty(t *testing.T) {
	// For random leaf-marked complete binary trees the strict 2/3 bound
	// must always hold.
	f := func(seed int64, lv uint8) bool {
		levels := int(lv%4) + 3 // 3..6
		parent := completeBinaryParents(levels)
		n := len(parent)
		rng := stats.NewRNG(seed)
		marked := make([]bool, n)
		total := 0
		for v := n / 2; v < n; v++ {
			if rng.Bernoulli(0.5) {
				marked[v] = true
				total++
			}
		}
		if total < 2 {
			return true
		}
		child, err := treeEdgeSeparator(parent, marked)
		if err != nil {
			return false
		}
		below := countMarkedBelow(parent, marked, child)
		above := total - below
		return 3*below <= 2*total && 3*above <= 2*total
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// countMarkedBelow counts marked nodes in the subtree rooted at sub.
func countMarkedBelow(parent []int, marked []bool, sub int) int {
	n := len(parent)
	children := make([][]int, n)
	for v, p := range parent {
		if p >= 0 {
			children[p] = append(children[p], v)
		}
	}
	count := 0
	stack := []int{sub}
	for len(stack) > 0 {
		v := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		if marked[v] {
			count++
		}
		stack = append(stack, children[v]...)
	}
	return count
}
