package tcbt

import (
	"math/rand"
	"testing"

	"repro/internal/cube"
	"repro/internal/tree"
)

func mustNew(t *testing.T, n int, s cube.NodeID) *Embedding {
	t.Helper()
	e, err := New(n, s)
	if err != nil {
		t.Fatal(err)
	}
	return e
}

func mustTree(t *testing.T, e *Embedding) *tree.Tree {
	t.Helper()
	tr, err := e.Tree()
	if err != nil {
		t.Fatal(err)
	}
	return tr
}

func TestSpanningAllDims(t *testing.T) {
	for n := 1; n <= 10; n++ {
		e, err := New(n, 0)
		if err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		tr, err := e.Tree()
		if err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		if tr.Size() != tr.Cube().Nodes() {
			t.Fatalf("n=%d: not spanning", n)
		}
		if tr.Root() != e.R1 {
			t.Fatalf("n=%d: root mismatch", n)
		}
	}
}

func TestShape(t *testing.T) {
	// The TCBT rooted at R1: R1 has children {R2, C1}; R2 has single child
	// C2; C1 and C2 root complete binary trees of 2^(n-1)-1 nodes each.
	for n := 2; n <= 10; n++ {
		e := mustNew(t, n, 0)
		tr := mustTree(t, e)
		if !tr.Cube().Adjacent(e.R1, e.R2) {
			t.Fatalf("n=%d: roots not adjacent", n)
		}
		chR1 := tr.Children(e.R1)
		if len(chR1) != 2 {
			t.Fatalf("n=%d: R1 has %d children", n, len(chR1))
		}
		found := map[cube.NodeID]bool{}
		for _, c := range chR1 {
			found[c] = true
		}
		if !found[e.R2] || !found[e.C1] {
			t.Fatalf("n=%d: R1 children %v, want {R2=%d, C1=%d}", n, chR1, e.R2, e.C1)
		}
		chR2 := tr.Children(e.R2)
		if len(chR2) != 1 || chR2[0] != e.C2 {
			t.Fatalf("n=%d: R2 children %v, want {C2=%d}", n, chR2, e.C2)
		}
		half := 1<<uint(n-1) - 1
		if got := tr.SubtreeSize(e.C1); got != half {
			t.Fatalf("n=%d: C1 subtree %d, want %d", n, got, half)
		}
		if got := tr.SubtreeSize(e.C2); got != half {
			t.Fatalf("n=%d: C2 subtree %d, want %d", n, got, half)
		}
		// Complete binary tree shape below C1 and C2: every node has 0 or 2
		// children, and all leaves at the same depth.
		for _, top := range []cube.NodeID{e.C1, e.C2} {
			base := tr.Level(top)
			for _, v := range tr.SubtreeNodes(top) {
				f := tr.Fanout(v)
				if f != 0 && f != 2 {
					t.Fatalf("n=%d: CBT node %d has fanout %d", n, v, f)
				}
				if f == 0 && tr.Level(v)-base != n-2 {
					t.Fatalf("n=%d: leaf %d at relative depth %d, want %d", n, v, tr.Level(v)-base, n-2)
				}
			}
		}
	}
}

func TestHeight(t *testing.T) {
	// Height from R1: the deepest leaf is in C2's CBT at depth
	// 2 (R1->R2->C2) + (n-2) = n.
	for n := 2; n <= 10; n++ {
		tr := mustTree(t, mustNew(t, n, 0))
		if tr.Height() != n {
			t.Errorf("n=%d: height %d", n, tr.Height())
		}
	}
}

func TestArbitrarySource(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for n := 1; n <= 8; n++ {
		N := 1 << uint(n)
		for trial := 0; trial < 3; trial++ {
			s := cube.NodeID(rng.Intn(N))
			e := mustNew(t, n, s)
			if e.R1 != s {
				t.Fatalf("n=%d: R1 = %d, want %d", n, e.R1, s)
			}
			tr := mustTree(t, e)
			if tr.Size() != tr.Cube().Nodes() || tr.Root() != s {
				t.Fatalf("n=%d s=%d: bad tree", n, s)
			}
		}
	}
}

func TestDimension1(t *testing.T) {
	e := mustNew(t, 1, 1)
	tr := mustTree(t, e)
	if tr.Size() != 2 || tr.Height() != 1 {
		t.Errorf("n=1 tree wrong: size %d height %d", tr.Size(), tr.Height())
	}
	if e.R1 != 1 || e.R2 != 0 {
		t.Errorf("n=1 roots %d,%d", e.R1, e.R2)
	}
}

func TestNewRejectsBadDim(t *testing.T) {
	if _, err := New(0, 0); err == nil {
		t.Error("New(0) accepted")
	}
	if _, err := New(cube.MaxDim+1, 0); err == nil {
		t.Error("New(MaxDim+1) accepted")
	}
}

func TestParentAdjacency(t *testing.T) {
	// Dilation 1: every tree edge is a cube edge (also checked by
	// tree.FromParentFunc, but assert directly on the embedding).
	for n := 2; n <= 9; n++ {
		e := mustNew(t, n, 0)
		c := cube.New(n)
		for v := 0; v < c.Nodes(); v++ {
			p, ok := e.Parent(cube.NodeID(v))
			if !ok {
				if cube.NodeID(v) != e.R1 {
					t.Fatalf("n=%d: node %d has no parent", n, v)
				}
				continue
			}
			if !c.Adjacent(cube.NodeID(v), p) {
				t.Fatalf("n=%d: dilated edge %d-%d", n, v, p)
			}
		}
	}
}
