// Package msbt implements the Multiple Spanning Binomial Trees graph of
// Ho & Johnsson §3.2: n edge-disjoint, edge-reversed, rotated spanning
// binomial trees (ERSBTs), one rooted at each neighbor of the source.
//
// The j-th SBT of the MSBT graph is the standard SBT translated to root
// 2^j (relative to the source) and rotated so that the source lies in its
// smallest subtree — i.e. "leading zeroes" are interpreted cyclically
// starting from bit j. Reversing the single edge directed at the source
// turns each SBT into an ERSBT sourced at s. Because the n ERSBTs are
// pairwise edge-disjoint, the source can stream distinct packets down all
// n trees concurrently, which is where the log N speedup over the single
// SBT comes from.
//
// The package also provides the paper's edge-label function f(i, j), which
// schedules the MSBT broadcast so that, under one-port full-duplex
// communication, no node ever performs two sends or two receives in the
// same cycle, and pipelining with period log N is possible.
package msbt

import (
	"repro/internal/cube"
	"repro/internal/tree"
)

// cyclicK returns the paper's k for relative address c, tree index j, and
// dimension n: the index of the first one bit of c strictly to the right of
// bit j, scanning cyclically (j-1, j-2, ..., 0, n-1, ..., j+1), or j itself
// if bit j is the only one bit; -1 if c == 0.
func cyclicK(c uint64, n, j int) int {
	if c == 0 {
		return -1
	}
	for d := 1; d < n; d++ {
		m := ((j-d)%n + n) % n
		if c&(1<<uint(m)) != 0 {
			return m
		}
	}
	return j // every bit but j is zero, and c != 0, so c == 2^j
}

// K exposes cyclicK for relative address i XOR s: the anchor bit used by
// the MSBT and BST parent/children definitions.
func K(n, j int, i, s cube.NodeID) int { return cyclicK(uint64(i^s), n, j) }

// Parent returns the parent of node i in the j-th ERSBT of the MSBT graph
// with source s, with ok == false exactly at the source.
//
//	k == -1          -> source, no parent
//	c_j == 0         -> leaf: parent across port j
//	c_j == 1         -> internal: parent across port k
func Parent(n, j int, i, s cube.NodeID) (cube.NodeID, bool) {
	c := uint64(i ^ s)
	k := cyclicK(c, n, j)
	switch {
	case k == -1:
		return 0, false
	case c&(1<<uint(j)) == 0:
		return i ^ cube.NodeID(1)<<uint(j), true
	default:
		return i ^ cube.NodeID(1)<<uint(k), true
	}
}

// AppendChildren appends the children of node i in the j-th ERSBT with
// source s to dst and returns the extended slice; it allocates nothing
// when dst has room.
//
//	k == -1 (source)        -> the single child s XOR 2^j (the ERSBT root)
//	c_j == 1 and k != j     -> ports M_MSBT(c, j) plus port j
//	c_j == 1 and k == j     -> ports M_MSBT(c, j) (all ports except j);
//	                           this is the ERSBT root, whose edge to the
//	                           source was reversed
//	c_j == 0                -> leaf, no children
//
// M_MSBT(c, j) = {(k+1) mod n, ..., (j-1) mod n} are the (zero) bits of
// c cyclically between the anchor k and bit j, exclusive on both ends.
func AppendChildren(dst []cube.NodeID, n, j int, i, s cube.NodeID) []cube.NodeID {
	c := uint64(i ^ s)
	k := cyclicK(c, n, j)
	switch {
	case k == -1:
		return append(dst, i^cube.NodeID(1)<<uint(j))
	case c&(1<<uint(j)) == 0:
		return dst
	}
	for m := (k + 1) % n; m != j; m = (m + 1) % n {
		dst = append(dst, i^cube.NodeID(1)<<uint(m))
	}
	if k != j {
		dst = append(dst, i^cube.NodeID(1)<<uint(j))
	}
	return dst
}

// Label returns f(i, j): the scheduling label of the input edge of node i
// in the j-th ERSBT (source s), and ok == false at the source (which has
// no input edge). Labels lie in [0, 2n-1]; an edge labelled t carries the
// first packet of its tree during cycle t, and packet p >= 1 during cycle
// t + p*n.
//
//	c_j == 0, k != -1   -> j + n   (leaves receive last)
//	c_j == 1, k >= j    -> k
//	c_j == 1, k <  j    -> k + n
func Label(n, j int, i, s cube.NodeID) (label int, ok bool) {
	c := uint64(i ^ s)
	k := cyclicK(c, n, j)
	switch {
	case k == -1:
		return 0, false
	case c&(1<<uint(j)) == 0:
		return j + n, true
	case k >= j:
		return k, true
	default:
		return k + n, true
	}
}

// Trees materializes all n ERSBTs of the MSBT graph with source s as
// validated spanning trees of the n-cube (each ERSBT spans every node:
// internal nodes have bit j of the relative address set, all others are
// leaves).
func Trees(n int, s cube.NodeID) ([]*tree.Tree, error) {
	c := cube.New(n)
	out := make([]*tree.Tree, n)
	for j := 0; j < n; j++ {
		t, err := tree.FromParentFunc(c, s, func(i cube.NodeID) (cube.NodeID, bool) {
			return Parent(n, j, i, s)
		})
		if err != nil {
			return nil, err
		}
		out[j] = t
	}
	return out, nil
}

// MustTrees is Trees, panicking on construction errors.
func MustTrees(n int, s cube.NodeID) []*tree.Tree {
	ts, err := Trees(n, s)
	if err != nil {
		panic(err)
	}
	return ts
}

// cache holds the canonical source-0 ERSBT family per dimension plus an
// LRU of recent translations. Each ERSBT parent function depends only on
// the relative address i XOR s, so the whole family at source s is the
// XOR-translate of the family at 0 (edge-disjointness is preserved: XOR
// relabeling is a bijection on directed edges).
var cache = tree.NewCanonCache(MustTrees)

// CachedTrees returns the n ERSBTs of the MSBT with source s from a
// process-wide cache: the canonical family at source 0 is built once per
// dimension and other sources are served by O(N) XOR-translation per
// tree. The returned slice and trees are shared and immutable. Safe for
// concurrent use.
func CachedTrees(n int, s cube.NodeID) []*tree.Tree { return cache.Get(n, s) }

// RootOf returns the root of the j-th ERSBT below the source: s XOR 2^j.
func RootOf(j int, s cube.NodeID) cube.NodeID { return s ^ cube.NodeID(1)<<uint(j) }
