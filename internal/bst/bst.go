// Package bst implements the Balanced Spanning Tree of Ho & Johnsson §4.1:
// a spanning tree of the n-cube rooted at the source whose n root subtrees
// each contain approximately N/log N nodes, obtained by pruning the MSBT
// graph using the necklace base of each node's relative address.
//
// Node i (relative address c = i XOR s, c != 0) is assigned to subtree
// base(c): the least number of right rotations bringing c to its minimal
// rotation. Because each necklace of period P contributes exactly one node
// to P of the n subtrees (one per element of its base set), subtree sizes
// are nearly equal, and the data transferred on any root link during
// one-to-all personalized communication drops from N*M/2 (SBT) to about
// N*M/log N — the paper's 1/2*log N speedup.
package bst

import (
	"repro/internal/bits"
	"repro/internal/cube"
	"repro/internal/msbt"
	"repro/internal/tree"
)

// Parent returns the parent of node i in the BST of the n-cube rooted at
// source s, with ok == false at the source. For c = i XOR s != 0 with base
// j, the parent complements bit k, the first one bit of c cyclically to
// the right of bit j (k == j when c == 2^j, whose parent is the source).
func Parent(n int, i, s cube.NodeID) (cube.NodeID, bool) {
	c := uint64(i ^ s)
	if c == 0 {
		return 0, false
	}
	j := bits.Base(c, n)
	k := msbt.K(n, j, i, s)
	return i ^ cube.NodeID(1)<<uint(k), true
}

// New materializes the BST of the n-cube rooted at s as a validated
// spanning tree.
func New(n int, s cube.NodeID) (*tree.Tree, error) {
	c := cube.New(n)
	return tree.FromParentFunc(c, s, func(i cube.NodeID) (cube.NodeID, bool) {
		return Parent(n, i, s)
	})
}

// MustNew is New, panicking on construction errors.
func MustNew(n int, s cube.NodeID) *tree.Tree {
	t, err := New(n, s)
	if err != nil {
		panic(err)
	}
	return t
}

// cache holds the canonical source-0 BST per dimension plus an LRU of
// recent translations. The base assignment depends only on the relative
// address i XOR s, so the BST at source s is the XOR-translate of the
// BST at 0.
var cache = tree.NewCanonCache(func(n int, s cube.NodeID) []*tree.Tree {
	return []*tree.Tree{MustNew(n, s)}
})

// Cached returns the BST of the n-cube rooted at s from a process-wide
// cache: the canonical tree at source 0 is built once per dimension and
// other sources are served by O(N) XOR-translation. The returned tree is
// shared and immutable. Safe for concurrent use.
func Cached(n int, s cube.NodeID) *tree.Tree { return cache.Get(n, s)[0] }

// subtreeSizes returns the number of nodes assigned to each of the n root
// subtrees (excluding the source), computed directly from the base
// assignment without materializing the tree. This is how the paper's
// Table 5 column BST(max) is generated up to n = 20.
func subtreeSizes(n int) []int {
	counts := make([]int, n)
	N := uint64(1) << uint(n)
	for c := uint64(1); c < N; c++ {
		counts[bits.Base(c, n)]++
	}
	return counts
}

// MaxSubtreeSize returns the size of the largest root subtree of the
// n-cube BST — the paper's BST(max) column in Table 5.
func MaxSubtreeSize(n int) int {
	max := 0
	for _, c := range subtreeSizes(n) {
		if c > max {
			max = c
		}
	}
	return max
}

// Table5Row is one row of the paper's Table 5.
type Table5Row struct {
	N       int     // cube dimension n
	BSTMax  int     // size of the largest BST root subtree
	Ideal   float64 // (N-1)/log N
	Ratio   float64 // BSTMax / Ideal
	BSTMin  int     // size of the smallest subtree (extension; not in paper)
	Cyclics int     // number of cyclic nodes (degenerate necklaces)
}

// Table5 computes rows n = from..to of the paper's Table 5. The paper
// tabulates n = 2..20; n = 20 enumerates 2^20 addresses and takes on the
// order of a second.
func Table5(from, to int) []Table5Row {
	var rows []Table5Row
	for n := from; n <= to; n++ {
		sizes := subtreeSizes(n)
		max, min := 0, sizes[0]
		for _, c := range sizes {
			if c > max {
				max = c
			}
			if c < min {
				min = c
			}
		}
		cyc := 0
		N := uint64(1) << uint(n)
		for c := uint64(1); c < N; c++ {
			if bits.IsCyclic(c, n) {
				cyc++
			}
		}
		ideal := (float64(N) - 1) / float64(n)
		rows = append(rows, Table5Row{
			N: n, BSTMax: max, Ideal: ideal, Ratio: float64(max) / ideal,
			BSTMin: min, Cyclics: cyc,
		})
	}
	return rows
}
