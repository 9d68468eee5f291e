// Package routetab sizes the table-driven routing of paper §5.2: the
// compact per-node tables that let the BST scatter run without embedding
// full destination addresses in every packet.
//
// Internal nodes keep either per-port destination counts (depth-first
// order: ~ log^2 N bits) or per-level-per-port counts (reversed
// breadth-first order: ~ log^3 N bits); the paper argues depth-first wins
// on table space, and TableSizeBits reproduces that comparison.
package routetab

import (
	"repro/internal/bst"
	"repro/internal/cube"
	"repro/internal/tree"
)

// Order selects the transmission order an internal node's table encodes.
type Order int

const (
	// DepthFirst: each internal node stores one destination count per
	// used port (paper: at most log N / 2 ports, counts of log N bits
	// each -> ~ log^2 N bits total).
	DepthFirst Order = iota
	// ReversedBreadthFirst: each internal node stores, per port, the
	// number of subtree nodes at every level (paper: up to log^2 N
	// entries of log N bits -> ~ log^3 N bits total).
	ReversedBreadthFirst
)

// nodeTable is one internal node's routing table for BST scatter.
type nodeTable struct {
	Node  cube.NodeID
	Order Order
	// Counts[j] is, for DepthFirst, a single-element slice holding the
	// number of destinations forwarded through port j; for
	// ReversedBreadthFirst, the per-level counts (deepest level first).
	Counts map[int][]int
}

// buildNodeTable constructs node i's table for the BST rooted at s.
func buildNodeTable(t *tree.Tree, i cube.NodeID, order Order) *nodeTable {
	nt := &nodeTable{Node: i, Order: order, Counts: map[int][]int{}}
	for _, c := range t.Children(i) {
		port := t.Cube().Port(i, c)
		switch order {
		case DepthFirst:
			nt.Counts[port] = []int{t.SubtreeSize(c)}
		case ReversedBreadthFirst:
			var levels []int
			maxDepth := 0
			for _, v := range t.SubtreeNodes(c) {
				if d := t.Level(v) - t.Level(c); d > maxDepth {
					maxDepth = d
				}
			}
			for d := maxDepth; d >= 0; d-- {
				levels = append(levels, t.NodesAtDistanceInSubtree(c, d))
			}
			nt.Counts[port] = levels
		}
	}
	return nt
}

// SizeBits returns the table's storage cost in bits, with every count
// stored in a log N-bit field as the paper assumes.
func (nt *nodeTable) SizeBits(n int) int {
	entries := 0
	for _, c := range nt.Counts {
		entries += len(c)
	}
	return entries * n
}

// TableSizeStats aggregates per-node table sizes across the cube.
type TableSizeStats struct {
	Order     Order
	MaxBits   int
	TotalBits int
	MeanBits  float64
}

// TableSizeBits computes the table-size statistics for all internal nodes
// of the n-cube BST under the given order — reproducing §5.2's comparison
// (depth-first needs ~ log^2 N bits per node, reversed breadth-first
// ~ log^3 N).
func TableSizeBits(n int, order Order) (TableSizeStats, error) {
	t := bst.Cached(n, 0)
	stats := TableSizeStats{Order: order}
	count := 0
	for i := 0; i < t.Cube().Nodes(); i++ {
		id := cube.NodeID(i)
		if id == t.Root() || t.IsLeaf(id) {
			continue
		}
		bitsUsed := buildNodeTable(t, id, order).SizeBits(n)
		stats.TotalBits += bitsUsed
		if bitsUsed > stats.MaxBits {
			stats.MaxBits = bitsUsed
		}
		count++
	}
	if count > 0 {
		stats.MeanBits = float64(stats.TotalBits) / float64(count)
	}
	return stats, nil
}
