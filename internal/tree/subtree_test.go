package tree_test

import (
	"fmt"
	"slices"
	"testing"

	"repro/internal/bst"
	"repro/internal/cube"
	"repro/internal/msbt"
	"repro/internal/sbt"
	"repro/internal/tcbt"
	"repro/internal/tree"
)

// TestSubtreeNodesIsSelfThenChildrenRuns pins the layout internal/comm's
// bundle relays rest on: SubtreeNodes(v) is v followed by the
// SubtreeNodes of v's children, whole and in Children(v) order — so a
// message laid out as SubtreeNodes(v) splits into the children's messages
// by slicing at SubtreeSize bounds. Every family, root and node, d ≤ 8.
func TestSubtreeNodesIsSelfThenChildrenRuns(t *testing.T) {
	for n := 1; n <= 8; n++ {
		for r := cube.NodeID(0); r < 1<<uint(n); r++ {
			e, err := tcbt.New(n, r)
			if err != nil {
				t.Fatal(err)
			}
			tc, err := e.Tree()
			if err != nil {
				t.Fatal(err)
			}
			families := map[string]*tree.Tree{
				"sbt":  sbt.Cached(n, r),
				"bst":  bst.Cached(n, r),
				"tcbt": tc,
			}
			for j, tr := range msbt.CachedTrees(n, r) {
				families[fmt.Sprintf("ersbt%d", j)] = tr
			}
			for name, tr := range families {
				for _, v := range tr.SubtreeNodes(tr.Root()) {
					want := []cube.NodeID{v}
					for _, ch := range tr.Children(v) {
						want = append(want, tr.SubtreeNodes(ch)...)
					}
					if got := tr.SubtreeNodes(v); !slices.Equal(got, want) {
						t.Fatalf("%s n=%d root=%d: SubtreeNodes(%d) = %v, want itself then its children's runs %v",
							name, n, r, v, got, want)
					}
					if len(want) != tr.SubtreeSize(v) {
						t.Fatalf("%s n=%d root=%d: SubtreeSize(%d) = %d, its run has %d nodes",
							name, n, r, v, tr.SubtreeSize(v), len(want))
					}
				}
			}
		}
	}
}
