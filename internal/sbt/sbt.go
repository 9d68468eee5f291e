// Package sbt implements the Spanning Binomial Tree of a Boolean n-cube
// (Ho & Johnsson §3.1): the familiar spanning tree rooted at node s whose
// edges connect each node i to the neighbors obtained by complementing any
// bit among the leading zeroes of the relative address c = i XOR s.
//
// The SBT attains the log N lower bound on routing steps for broadcasting
// a single packet under one-port communication: after each step the number
// of informed nodes exactly doubles, which is the defining property of a
// binomial tree.
package sbt

import (
	"repro/internal/bits"
	"repro/internal/cube"
	"repro/internal/tree"
)

// Parent returns the parent of node i in the SBT of the n-cube rooted at
// source s, with ok == false when i == s. The parent complements the
// highest-order one bit k of the relative address c = i XOR s.
func Parent(n int, i, s cube.NodeID) (parent cube.NodeID, ok bool) {
	c := uint64(i ^ s)
	if c == 0 {
		return 0, false
	}
	k := bits.HighestOne(c)
	return i ^ cube.NodeID(1)<<uint(k), true
}

// AppendChildren appends the children of node i in the SBT rooted at s to
// dst and returns the extended slice: the neighbors across every bit m in
// {k+1, ..., n-1} where k is the highest-order one bit of c = i XOR s
// (k = -1 for the root), i.e. the complementations of c's leading zeroes.
// It allocates nothing when dst has room.
func AppendChildren(dst []cube.NodeID, n int, i, s cube.NodeID) []cube.NodeID {
	c := uint64(i^s) & bits.Mask(n)
	for m := bits.HighestOne(c) + 1; m < n; m++ {
		dst = append(dst, i^cube.NodeID(1)<<uint(m))
	}
	return dst
}

// SubtreeSize returns the number of nodes in root subtree j of an n-cube
// SBT: 2^(n-1-j). Subtree n-1 is the single node s XOR 2^(n-1).
func SubtreeSize(n, j int) int { return 1 << uint(n-1-j) }

// New materializes the SBT of the n-cube rooted at s as a validated tree.
func New(n int, s cube.NodeID) (*tree.Tree, error) {
	c := cube.New(n)
	return tree.FromParentFunc(c, s, func(i cube.NodeID) (cube.NodeID, bool) {
		return Parent(n, i, s)
	})
}

// cache holds the canonical source-0 SBT per dimension plus an LRU of
// recent translations. The SBT parent function depends only on i XOR s,
// so the tree at source s is the XOR-translate of the tree at 0.
var cache = tree.NewCanonCache(func(n int, s cube.NodeID) []*tree.Tree {
	t, err := New(n, s)
	if err != nil {
		panic(err) // the SBT definition cannot fail for a valid n and s
	}
	return []*tree.Tree{t}
})

// Cached returns the SBT of the n-cube rooted at s from a process-wide
// cache: the canonical tree at source 0 is built once per dimension and
// other sources are served by O(N) XOR-translation. The returned tree is
// shared and immutable. Safe for concurrent use.
func Cached(n int, s cube.NodeID) *tree.Tree { return cache.Get(n, s)[0] }
