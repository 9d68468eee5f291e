// Package gray provides the binary-reflected Gray-code Hamiltonian path of
// the Boolean n-cube, the simplest broadcasting baseline in the paper
// (a Hamiltonian path is a degenerate spanning tree), and the Gray-code
// port sequencing used by the SBT personalized-communication schedule
// (paper §5.2).
package gray

import (
	"repro/internal/bits"
	"repro/internal/cube"
	"repro/internal/tree"
)

// PathNode returns the p-th node (0-indexed) of the Hamiltonian path that
// starts at source s: s XOR GrayCode(p). Consecutive path nodes are
// adjacent in the cube.
func PathNode(p int, s cube.NodeID) cube.NodeID {
	return s ^ cube.NodeID(bits.GrayCode(uint64(p)))
}

// PathRank is the inverse of PathNode: the position of node i on the path
// from s.
func PathRank(i, s cube.NodeID) int {
	return int(bits.GrayRank(uint64(i ^ s)))
}

// Parent returns the predecessor of node i on the path from s, with
// ok == false at the source. Viewing the path as a spanning tree, this is
// the parent function.
func Parent(i, s cube.NodeID) (cube.NodeID, bool) {
	r := PathRank(i, s)
	if r == 0 {
		return 0, false
	}
	return PathNode(r-1, s), true
}

// New materializes the Hamiltonian path of the n-cube from s as a
// validated spanning tree (a path graph of height N-1).
func New(n int, s cube.NodeID) (*tree.Tree, error) {
	c := cube.New(n)
	return tree.FromParentFunc(c, s, func(i cube.NodeID) (cube.NodeID, bool) {
		return Parent(i, s)
	})
}

// MustNew is New, panicking on error.
func MustNew(n int, s cube.NodeID) *tree.Tree {
	t, err := New(n, s)
	if err != nil {
		panic(err)
	}
	return t
}

// PortSequence returns the first count entries of the binary-reflected
// Gray-code transition sequence (0 1 0 2 0 1 0 3 ...). In the SBT scatter
// implementation the root processes destinations in descending relative
// address order, which makes its port usage follow exactly this sequence:
// port 0 every other cycle, port 1 every fourth, and so on — maximizing
// send/receive overlap downstream.
func PortSequence(count int) []int {
	out := make([]int, count)
	for i := 0; i < count; i++ {
		out[i] = bits.GrayTransition(uint64(i))
	}
	return out
}
