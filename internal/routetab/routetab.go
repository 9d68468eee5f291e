// Package routetab implements the table-driven routing of paper §5.2: the
// compact per-node tables that let the BST scatter run without embedding
// full destination addresses in every packet.
//
// The root keeps ONE table of ~ N/log N entries (one per node of a
// canonical subtree, each entry log N bits): entry order is the
// transmission order for port 0, and the orders for the other ports are
// obtained by cyclically shifting each entry — the BST's subtrees are
// isomorphic up to rotation (excluding cyclic nodes). A cyclic entry of
// period P is skipped for ports j >= P, which is exactly how the paper
// says degenerate necklaces are handled.
//
// Internal nodes keep either per-port destination counts (depth-first
// order: ~ log^2 N bits) or per-level-per-port counts (reversed
// breadth-first order: ~ log^3 N bits); the paper argues depth-first wins
// on table space, and TableSizeBits reproduces that comparison.
package routetab

import (
	"fmt"

	"repro/internal/bits"
	"repro/internal/bst"
	"repro/internal/cube"
	"repro/internal/tree"
)

// rootTable is the source node's single transmission table for BST
// personalized communication.
type rootTable struct {
	N int // cube dimension
	// Entries are the relative addresses of subtree 0's nodes in
	// transmission order. The address sent on port j at step t is the
	// right rotation by j of Entries[t] (skipped if Period(entry) <= j).
	Entries []cube.NodeID
}

// buildRootTable constructs the root table for the n-cube BST using
// depth-first transmission order within subtree 0.
func buildRootTable(n int) (*rootTable, error) {
	t := bst.Cached(n, 0)
	// Subtree 0 is rooted at node 1 (base(1) == 0).
	var entries []cube.NodeID
	for _, v := range t.SubtreeNodes(1) {
		entries = append(entries, v)
	}
	return &rootTable{N: n, Entries: entries}, nil
}

// PortDest returns the relative destination address transmitted on port j
// at table step t, and ok == false when the entry is cyclic with period
// <= j (that rotation would duplicate a destination already covered by an
// earlier port).
func (rt *rootTable) PortDest(t, j int) (cube.NodeID, bool) {
	e := rt.Entries[t]
	if bits.Period(uint64(e), rt.N) <= j {
		return 0, false
	}
	return cube.NodeID(bits.RotRK(uint64(e), rt.N, rt.N-j)), true
}

// Destinations enumerates, for every port, the relative destination
// sequence the root transmits: Destinations()[j][k] is the k-th address
// sent into subtree j.
func (rt *rootTable) Destinations() [][]cube.NodeID {
	out := make([][]cube.NodeID, rt.N)
	for j := 0; j < rt.N; j++ {
		for t := range rt.Entries {
			if d, ok := rt.PortDest(t, j); ok {
				out[j] = append(out[j], d)
			}
		}
	}
	return out
}

// SizeBits returns the root table's size in bits: one log N-bit entry per
// canonical-subtree node (paper: ~ (N / log N) * log N = N bits).
func (rt *rootTable) SizeBits() int { return len(rt.Entries) * rt.N }

// Validate checks that the rotated port sequences cover every non-root
// node exactly once — the root table is a complete, duplicate-free
// personalization of the cube.
func (rt *rootTable) Validate() error {
	seen := map[cube.NodeID]bool{}
	for _, dests := range rt.Destinations() {
		for _, d := range dests {
			if d == 0 {
				return fmt.Errorf("routetab: destination 0 transmitted")
			}
			if seen[d] {
				return fmt.Errorf("routetab: destination %d transmitted twice", d)
			}
			seen[d] = true
		}
	}
	N := 1 << uint(rt.N)
	if len(seen) != N-1 {
		return fmt.Errorf("routetab: %d destinations covered, want %d", len(seen), N-1)
	}
	return nil
}

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

func (o Order) String() string {
	if o == DepthFirst {
		return "depth-first"
	}
	return "reversed-breadth-first"
}

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
