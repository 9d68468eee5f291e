package routetab

import (
	"fmt"
	"testing"

	"repro/internal/bits"

	"repro/internal/bst"
	"repro/internal/cube"
)

func TestRootTableCoversCube(t *testing.T) {
	for n := 2; n <= 10; n++ {
		rt, err := buildRootTable(n)
		if err != nil {
			t.Fatal(err)
		}
		if err := rt.Validate(); err != nil {
			t.Errorf("n=%d: %v", n, err)
		}
	}
}

func TestRootTableSize(t *testing.T) {
	// The paper: one table of length ~ N/log N with log N-bit entries.
	for n := 3; n <= 12; n++ {
		rt, err := buildRootTable(n)
		if err != nil {
			t.Fatal(err)
		}
		maxSub := bst.MaxSubtreeSize(n)
		if len(rt.Entries) != maxSub && len(rt.Entries) != maxSub-1 {
			// Subtree 0 is the largest (it holds the all-ones node).
			t.Errorf("n=%d: %d entries, BST max subtree %d", n, len(rt.Entries), maxSub)
		}
		if rt.SizeBits() != len(rt.Entries)*n {
			t.Errorf("n=%d: SizeBits %d", n, rt.SizeBits())
		}
		// Near N bits total, per the paper's (N / log N) * log N estimate.
		N := 1 << uint(n)
		if rt.SizeBits() > 2*N || rt.SizeBits() < N/2 {
			t.Errorf("n=%d: table %d bits, expected ~N = %d", n, rt.SizeBits(), N)
		}
	}
}

func TestPortDestRotation(t *testing.T) {
	// Port j's destinations are the right rotations by j of the entries,
	// and rotations of an entry land in subtree j.
	n := 6
	rt, err := buildRootTable(n)
	if err != nil {
		t.Fatal(err)
	}
	for ti, e := range rt.Entries {
		if got := bits.Base(uint64(e), n); got != 0 {
			t.Fatalf("entry %06b not in subtree 0 (base %d)", e, got)
		}
		for j := 0; j < n; j++ {
			d, ok := rt.PortDest(ti, j)
			if !ok {
				if bits.Period(uint64(e), n) > j {
					t.Fatalf("entry %06b wrongly skipped for port %d", e, j)
				}
				continue
			}
			if got := bits.Base(uint64(d), n); got != j {
				t.Fatalf("port %d destination %06b in subtree %d", j, d, got)
			}
		}
	}
}

func TestCyclicEntriesSkipped(t *testing.T) {
	// A cyclic entry of period P must be transmitted only on ports < P.
	n := 6
	rt, err := buildRootTable(n)
	if err != nil {
		t.Fatal(err)
	}
	cyclicSeen := false
	for ti, e := range rt.Entries {
		p := bits.Period(uint64(e), n)
		if p == n {
			continue
		}
		cyclicSeen = true
		for j := 0; j < n; j++ {
			_, ok := rt.PortDest(ti, j)
			if ok != (j < p) {
				t.Fatalf("entry %06b period %d port %d: ok=%v", e, p, j, ok)
			}
		}
	}
	if !cyclicSeen {
		t.Fatal("no cyclic entries exercised; test is vacuous")
	}
}

func TestNodeTableDepthFirst(t *testing.T) {
	n := 6
	tr, err := bst.New(n, 0)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < tr.Cube().Nodes(); i++ {
		id := cube.NodeID(i)
		if id == 0 || tr.IsLeaf(id) {
			continue
		}
		nt := buildNodeTable(tr, id, DepthFirst)
		// One count per child, equal to the child's subtree size.
		if len(nt.Counts) != tr.Fanout(id) {
			t.Fatalf("node %d: %d counts, fanout %d", id, len(nt.Counts), tr.Fanout(id))
		}
		total := 0
		for port, c := range nt.Counts {
			if len(c) != 1 {
				t.Fatalf("node %d port %d: %d entries", id, port, len(c))
			}
			child := tr.Cube().Neighbor(id, port)
			if c[0] != tr.SubtreeSize(child) {
				t.Fatalf("node %d port %d: count %d, subtree %d", id, port, c[0], tr.SubtreeSize(child))
			}
			total += c[0]
		}
		if total != tr.SubtreeSize(id)-1 {
			t.Fatalf("node %d: counts sum %d, want %d", id, total, tr.SubtreeSize(id)-1)
		}
	}
}

func TestNodeTableRBFLevels(t *testing.T) {
	n := 6
	tr, err := bst.New(n, 0)
	if err != nil {
		t.Fatal(err)
	}
	id := tr.Children(0)[0] // root of subtree 0
	nt := buildNodeTable(tr, id, ReversedBreadthFirst)
	for port, levels := range nt.Counts {
		child := tr.Cube().Neighbor(id, port)
		sum := 0
		for _, c := range levels {
			sum += c
		}
		if sum != tr.SubtreeSize(child) {
			t.Fatalf("port %d: levels sum %d, subtree %d", port, sum, tr.SubtreeSize(child))
		}
		// Deepest level first; last entry is the child itself.
		if levels[len(levels)-1] != 1 {
			t.Fatalf("port %d: last level count %d", port, levels[len(levels)-1])
		}
	}
}

func TestTableSizeComparison(t *testing.T) {
	// §5.2: depth-first tables are more space-efficient than reversed
	// breadth-first ones; DF max is O(log^2 N) bits, RBF is larger.
	for n := 4; n <= 10; n++ {
		df, err := TableSizeBits(n, DepthFirst)
		if err != nil {
			t.Fatal(err)
		}
		rbf, err := TableSizeBits(n, ReversedBreadthFirst)
		if err != nil {
			t.Fatal(err)
		}
		if df.MaxBits > rbf.MaxBits {
			t.Errorf("n=%d: DF max %d bits > RBF max %d bits", n, df.MaxBits, rbf.MaxBits)
		}
		if df.TotalBits >= rbf.TotalBits {
			t.Errorf("n=%d: DF total %d >= RBF total %d", n, df.TotalBits, rbf.TotalBits)
		}
		// DF bound: at most (log N / 2 + 1) ports, each log N bits.
		if bound := (n/2 + 1) * n; df.MaxBits > bound {
			t.Errorf("n=%d: DF max %d bits exceeds bound %d", n, df.MaxBits, bound)
		}
	}
}

func TestOrderString(t *testing.T) {
	if DepthFirst.String() != "depth-first" || ReversedBreadthFirst.String() != "reversed-breadth-first" {
		t.Error("order strings")
	}
}

// The root keeps ONE table of ~ N/log N entries (one per node of a
// canonical subtree, each entry log N bits): entry order is the
// transmission order for port 0, and the orders for the other ports are
// obtained by cyclically shifting each entry — the BST's subtrees are
// isomorphic up to rotation (excluding cyclic nodes). A cyclic entry of
// period P is skipped for ports j >= P, which is exactly how the paper
// says degenerate necklaces are handled. No collective routes by it, so
// it lives here, where the tests check the paper's claims about it.

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
	return (e<<uint(j) | e>>uint(rt.N-j)) & cube.NodeID(bits.Mask(rt.N)), true
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

func (o Order) String() string {
	if o == DepthFirst {
		return "depth-first"
	}
	return "reversed-breadth-first"
}
