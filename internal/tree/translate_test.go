package tree_test

import (
	"math/rand"
	"testing"

	"repro/internal/bst"
	"repro/internal/cube"
	"repro/internal/msbt"
	"repro/internal/sbt"
	"repro/internal/tree"
)

// TestCachedTreesMatchFreshBuilds is the translation-symmetry property
// test: for every spanning-tree family, the cached tree at a random
// source (canonical tree at 0, XOR-translated and LRU-cached) must be
// structurally identical to a tree built directly at that source — every
// parent pointer, traversal order, and subtree statistic.
func TestCachedTreesMatchFreshBuilds(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for n := 2; n <= 10; n++ {
		N := 1 << uint(n)
		sources := []cube.NodeID{0, cube.NodeID(N - 1)}
		for k := 0; k < 6; k++ {
			sources = append(sources, cube.NodeID(rng.Intn(N)))
		}
		for _, s := range sources {
			built, err := sbt.New(n, s)
			if err != nil {
				t.Fatal(err)
			}
			requireSameTree(t, "sbt", n, s, built, sbt.Cached(n, s))
			requireSameTree(t, "bst", n, s, bst.MustNew(n, s), bst.Cached(n, s))
			fresh := msbt.MustTrees(n, s)
			cached := msbt.CachedTrees(n, s)
			if len(fresh) != len(cached) {
				t.Fatalf("msbt n=%d s=%d: %d fresh trees, %d cached", n, s, len(fresh), len(cached))
			}
			for j := range fresh {
				requireSameTree(t, "msbt", n, s, fresh[j], cached[j])
			}
		}
	}
}

// requireSameTree compares two trees field by field and fails the test on
// the first difference.
func requireSameTree(t *testing.T, family string, n int, s cube.NodeID, want, got *tree.Tree) {
	t.Helper()
	fail := func(format string, args ...interface{}) {
		t.Helper()
		t.Errorf("%s n=%d s=%d: "+format, append([]interface{}{family, n, s}, args...)...)
	}
	if got.Root() != want.Root() {
		fail("root %d, want %d", got.Root(), want.Root())
	}
	if got.Size() != want.Size() {
		fail("size %d, want %d", got.Size(), want.Size())
		return
	}
	if got.Height() != want.Height() {
		fail("height %d, want %d", got.Height(), want.Height())
	}
	N := 1 << uint(n)
	for v := 0; v < N; v++ {
		id := cube.NodeID(v)
		gl, wl := got.Level(id), want.Level(id)
		if gl != wl {
			fail("node %d level %d, want %d", id, gl, wl)
		}
		if wl < 0 {
			continue // not a member of this (possibly subset) tree
		}
		if gs, ws := got.SubtreeSize(id), want.SubtreeSize(id); gs != ws {
			fail("node %d subtree size %d, want %d", id, gs, ws)
		}
		if !sameIDs(got.Children(id), want.Children(id)) {
			fail("node %d children %v, want %v", id, got.Children(id), want.Children(id))
		}
		if !sameIDs(got.ChildrenBySubtreeSize(id), want.ChildrenBySubtreeSize(id)) {
			fail("node %d size-ordered children %v, want %v",
				id, got.ChildrenBySubtreeSize(id), want.ChildrenBySubtreeSize(id))
		}
	}
	if !sameIDs(got.SubtreeNodes(got.Root()), want.SubtreeNodes(want.Root())) {
		fail("preorder differs")
	}
	if !sameIDs(got.BreadthFirst(), want.BreadthFirst()) {
		fail("breadth-first order differs")
	}
}

func sameIDs(a, b []cube.NodeID) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
