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

// pathNode returns the p-th node (0-indexed) of the Hamiltonian path that
// starts at source s: s XOR GrayCode(p). Consecutive path nodes are
// adjacent in the cube.
func pathNode(p int, s cube.NodeID) cube.NodeID {
	return s ^ cube.NodeID(bits.GrayCode(uint64(p)))
}

// pathRank is the inverse of pathNode: the position of node i on the path
// from s.
func pathRank(i, s cube.NodeID) int {
	return int(bits.GrayRank(uint64(i ^ s)))
}

// parent returns the predecessor of node i on the path from s, with
// ok == false at the source. Viewing the path as a spanning tree, this is
// the parent function.
func parent(i, s cube.NodeID) (cube.NodeID, bool) {
	r := pathRank(i, s)
	if r == 0 {
		return 0, false
	}
	return pathNode(r-1, s), true
}

// New materializes the Hamiltonian path of the n-cube from s as a
// validated spanning tree (a path graph of height N-1).
func New(n int, s cube.NodeID) (*tree.Tree, error) {
	c := cube.New(n)
	return tree.FromParentFunc(c, s, func(i cube.NodeID) (cube.NodeID, bool) {
		return parent(i, s)
	})
}
