package tree

import (
	"errors"
	"testing"

	"repro/internal/bits"
	"repro/internal/cube"
)

// sbtParent is the classic spanning-binomial-tree parent function rooted at
// 0: complement the highest-order one bit. Reimplemented here (rather than
// importing internal/sbt) to keep the package test self-contained.
func sbtParent(i cube.NodeID) (cube.NodeID, bool) {
	if i == 0 {
		return 0, false
	}
	k := bits.HighestOne(uint64(i))
	return i ^ cube.NodeID(1)<<uint(k), true
}

func buildSBT(t *testing.T, n int) *Tree {
	t.Helper()
	c := cube.New(n)
	tr, err := FromParentFunc(c, 0, sbtParent)
	if err != nil {
		t.Fatalf("FromParentFunc: %v", err)
	}
	return tr
}

func TestBasicStructure(t *testing.T) {
	tr := buildSBT(t, 4)
	if !tr.Spanning() {
		t.Error("not spanning")
	}
	if tr.Size() != 16 {
		t.Errorf("size %d", tr.Size())
	}
	if tr.Root() != 0 {
		t.Errorf("root %d", tr.Root())
	}
	if tr.Height() != 4 {
		t.Errorf("height %d, want 4", tr.Height())
	}
	// Binomial tree: level i has C(n, i) nodes.
	lc := tr.LevelCounts()
	for i, c := range lc {
		if uint64(c) != bits.Binomial(4, i) {
			t.Errorf("level %d count %d, want C(4,%d)", i, c, i)
		}
	}
	// The subtree under root child 2^j holds exactly the nodes whose lowest
	// one bit is j (clearing highest bits ends at the lowest), so sizes in
	// port order are 8, 4, 2, 1.
	sizes := tr.RootSubtreeSizes()
	want := []int{8, 4, 2, 1}
	for i, w := range want {
		if sizes[i] != w {
			t.Errorf("subtree %d size %d, want %d", i, sizes[i], w)
		}
	}
}

func TestLevelsEqualHamming(t *testing.T) {
	// SBT level of node i equals |i| — the Hamming distance from the root.
	tr := buildSBT(t, 6)
	for i := 0; i < tr.Cube().Nodes(); i++ {
		if tr.Level(cube.NodeID(i)) != bits.OnesCount(uint64(i)) {
			t.Fatalf("level(%d) = %d", i, tr.Level(cube.NodeID(i)))
		}
	}
}

func TestParentChildrenConsistency(t *testing.T) {
	tr := buildSBT(t, 5)
	for i := 0; i < tr.Cube().Nodes(); i++ {
		id := cube.NodeID(i)
		for _, ch := range tr.Children(id) {
			p, ok := tr.Parent(ch)
			if !ok || p != id {
				t.Fatalf("child %d of %d has parent %d ok=%v", ch, id, p, ok)
			}
		}
		if p, ok := tr.Parent(id); ok {
			found := false
			for _, ch := range tr.Children(p) {
				if ch == id {
					found = true
				}
			}
			if !found {
				t.Fatalf("node %d not among children of its parent %d", id, p)
			}
		}
	}
	if _, ok := tr.Parent(tr.Root()); ok {
		t.Error("root must have no parent")
	}
}

func TestSubtreeSizeAndNodes(t *testing.T) {
	tr := buildSBT(t, 5)
	if tr.SubtreeSize(tr.Root()) != 32 {
		t.Errorf("root subtree size %d", tr.SubtreeSize(tr.Root()))
	}
	// Subtree size equals length of SubtreeNodes everywhere.
	for i := 0; i < 32; i++ {
		id := cube.NodeID(i)
		if got := len(tr.SubtreeNodes(id)); got != tr.SubtreeSize(id) {
			t.Fatalf("node %d: nodes %d size %d", id, got, tr.SubtreeSize(id))
		}
	}
	// Sizes of children subtrees plus one equal the parent's size.
	for i := 0; i < 32; i++ {
		id := cube.NodeID(i)
		sum := 1
		for _, ch := range tr.Children(id) {
			sum += tr.SubtreeSize(ch)
		}
		if sum != tr.SubtreeSize(id) {
			t.Fatalf("size recurrence fails at %d", id)
		}
	}
}

func TestTraversals(t *testing.T) {
	tr := buildSBT(t, 4)
	n := tr.Size()
	for name, order := range map[string][]cube.NodeID{
		"pre": tr.PreOrder(), "bfs": tr.BreadthFirst(), "rbfs": tr.ReversedBreadthFirst(),
	} {
		if len(order) != n {
			t.Fatalf("%s: length %d", name, len(order))
		}
		seen := map[cube.NodeID]bool{}
		for _, v := range order {
			if seen[v] {
				t.Fatalf("%s: duplicate %d", name, v)
			}
			seen[v] = true
		}
	}
	// BFS is level-monotone.
	bfs := tr.BreadthFirst()
	for i := 1; i < len(bfs); i++ {
		if tr.Level(bfs[i]) < tr.Level(bfs[i-1]) {
			t.Fatal("bfs not level-monotone")
		}
	}
	// Reversed BFS starts at the deepest level and ends at the root.
	rb := tr.ReversedBreadthFirst()
	if tr.Level(rb[0]) != tr.Height() || rb[len(rb)-1] != tr.Root() {
		t.Fatal("reversed bfs order wrong")
	}
	// Preorder: every node appears after its parent.
	pos := map[cube.NodeID]int{}
	for i, v := range tr.PreOrder() {
		pos[v] = i
	}
	for i := 1; i < n; i++ {
		p, _ := tr.Parent(cube.NodeID(i))
		if pos[cube.NodeID(i)] < pos[p] {
			t.Fatalf("preorder: %d before its parent", i)
		}
	}
}

func TestPathToRoot(t *testing.T) {
	tr := buildSBT(t, 5)
	for i := 0; i < 32; i++ {
		id := cube.NodeID(i)
		p := tr.PathToRoot(id)
		if p[0] != id || p[len(p)-1] != tr.Root() {
			t.Fatalf("path endpoints wrong for %d: %v", id, p)
		}
		if len(p) != tr.Level(id)+1 {
			t.Fatalf("path length %d, level %d", len(p), tr.Level(id))
		}
		for k := 1; k < len(p); k++ {
			if !tr.Cube().Adjacent(p[k-1], p[k]) {
				t.Fatalf("non-adjacent path step for %d", id)
			}
		}
	}
}

func TestEdges(t *testing.T) {
	tr := buildSBT(t, 5)
	edges := tr.Edges()
	if len(edges) != tr.Size()-1 {
		t.Fatalf("edge count %d", len(edges))
	}
	for _, e := range edges {
		if p, _ := tr.Parent(e.To); p != e.From {
			t.Fatalf("edge %v not parent->child", e)
		}
	}
}

func TestVerifyChildrenFunc(t *testing.T) {
	tr := buildSBT(t, 4)
	good := func(i cube.NodeID) []cube.NodeID {
		// SBT children: complement any leading zero above the highest one.
		k := bits.HighestOne(uint64(i))
		var out []cube.NodeID
		for m := k + 1; m < 4; m++ {
			out = append(out, i^cube.NodeID(1)<<uint(m))
		}
		return out
	}
	if err := tr.VerifyChildrenFunc(good); err != nil {
		t.Errorf("good children func rejected: %v", err)
	}
	bad := func(i cube.NodeID) []cube.NodeID { return nil }
	if err := tr.VerifyChildrenFunc(bad); err == nil {
		t.Error("bad children func accepted")
	}
}

func TestFromParentFuncErrors(t *testing.T) {
	c := cube.New(3)
	// Non-adjacent parent.
	_, err := FromParentFunc(c, 0, func(i cube.NodeID) (cube.NodeID, bool) {
		if i == 0 {
			return 0, false
		}
		return 0, true // node 7 claims parent 0: not adjacent
	})
	if err == nil {
		t.Error("non-adjacent parent accepted")
	}
	// Cycle: 1 -> 3 -> 1 (via adjacent nodes 1,3 differ in bit 1).
	_, err = FromParentFunc(c, 0, func(i cube.NodeID) (cube.NodeID, bool) {
		switch i {
		case 0:
			return 0, false
		case 1:
			return 3, true
		case 3:
			return 1, true
		default:
			return sbtParent(i)
		}
	})
	if err == nil {
		t.Error("cycle accepted")
	}
	// Root reporting a parent.
	_, err = FromParentFunc(c, 0, func(i cube.NodeID) (cube.NodeID, bool) {
		if i == 0 {
			return 1, true
		}
		return sbtParent(i)
	})
	if err == nil {
		t.Error("root with parent accepted")
	}
}

func TestSubsetTree(t *testing.T) {
	c := cube.New(3)
	// Tree over {0,1,3,7}: a path 0-1-3-7.
	members := []cube.NodeID{0, 1, 3, 7}
	tr, err := FromParentFuncSubset(c, 0, func(i cube.NodeID) (cube.NodeID, bool) {
		switch i {
		case 1:
			return 0, true
		case 3:
			return 1, true
		case 7:
			return 3, true
		}
		return 0, false
	}, members)
	if err != nil {
		t.Fatal(err)
	}
	if tr.Spanning() {
		t.Error("subset tree must not be spanning")
	}
	if tr.Size() != 4 || tr.Height() != 3 {
		t.Errorf("size %d height %d", tr.Size(), tr.Height())
	}
	if tr.Member(2) {
		t.Error("2 is not a member")
	}
	if tr.SubtreeSize(2) != 0 || tr.Level(2) != -1 {
		t.Error("non-member stats wrong")
	}
}

func TestEdgeDisjoint(t *testing.T) {
	tr1 := buildSBT(t, 3)
	// A second, identical tree shares every edge.
	tr2 := buildSBT(t, 3)
	err := EdgeDisjoint(tr1, tr2)
	if !errors.Is(err, errNotEdgeDisjoint) {
		t.Errorf("identical trees reported disjoint: %v", err)
	}
	if err := EdgeDisjoint(tr1); err != nil {
		t.Errorf("single tree: %v", err)
	}
}

func TestNodesAtDistanceInSubtree(t *testing.T) {
	tr := buildSBT(t, 5)
	// At the root, phi(root, j) = C(5, j).
	for j := 0; j <= 5; j++ {
		if got := tr.NodesAtDistanceInSubtree(tr.Root(), j); uint64(got) != bits.Binomial(5, j) {
			t.Errorf("phi(root,%d) = %d", j, got)
		}
	}
	// Sum over j of phi(i, j) equals subtree size.
	for i := 0; i < 32; i++ {
		id := cube.NodeID(i)
		sum := 0
		for j := 0; j <= tr.Height(); j++ {
			sum += tr.NodesAtDistanceInSubtree(id, j)
		}
		if sum != tr.SubtreeSize(id) {
			t.Fatalf("phi sum mismatch at %d", id)
		}
	}
}

func TestIsomorphic(t *testing.T) {
	tr := buildSBT(t, 4)
	// SBT subtrees of the root are binomial trees of different orders —
	// not isomorphic to each other. But the 2-node subtree at root child 4
	// (a B1: {4, 12}) is isomorphic to the B1 {5, 13} inside the subtree
	// of root child 1.
	ch := tr.Children(tr.Root()) // 1, 2, 4, 8
	if Isomorphic(tr, ch[0], tr, ch[1]) {
		t.Error("B3 and B2 must differ")
	}
	if !Isomorphic(tr, ch[2], tr, 5) {
		t.Error("two 1-level binomial trees must be isomorphic")
	}
	if !Isomorphic(tr, tr.Root(), tr, tr.Root()) {
		t.Error("self isomorphism")
	}
}

func TestMaxFanout(t *testing.T) {
	tr := buildSBT(t, 5)
	max, perLevel := tr.MaxFanout()
	if max != 5 { // root has fanout n
		t.Errorf("max fanout %d", max)
	}
	if perLevel[0] != 5 {
		t.Errorf("level-0 fanout %d", perLevel[0])
	}
	// SBT: fanout of a node at level l is at most n - l... the root's child
	// via port n-1 has fanout 0 at level 1; port-0 child has fanout n-1.
	if perLevel[1] != 4 {
		t.Errorf("level-1 max fanout %d", perLevel[1])
	}
}
