// Package vis renders spanning structures as ASCII trees and Graphviz DOT
// — reproducing the paper's structure diagrams: Figure 1 (the SBT in a
// 4-cube), Figure 2 (three edge-disjoint directed spanning trees in a
// 3-cube), Figure 3 (the MSBT labelled by the routing function f) and
// Figure 4 (the balanced spanning tree in a 5-cube).
package vis

import (
	"fmt"
	"sort"
	"strings"

	"repro/internal/cube"
	"repro/internal/msbt"
	"repro/internal/tree"
)

// nodeLabel formats a node id as an n-bit binary string, the paper's
// address notation.
func nodeLabel(id cube.NodeID, n int) string {
	return fmt.Sprintf("%0*b", n, uint64(id))
}

// EdgeLabeler optionally annotates the edge into a node (e.g. with the
// MSBT label function f). Return ok == false for unlabelled edges.
type EdgeLabeler func(child cube.NodeID) (label int, ok bool)

// ASCIITree renders the tree as an indented ASCII hierarchy with binary
// node addresses, one node per line:
//
//	0000
//	├── 0001
//	│   ├── 0011
//	│   └── 0101
//	└── 0010
func ASCIITree(t *tree.Tree, labeler EdgeLabeler) string {
	var b strings.Builder
	n := t.Cube().Dim()
	b.WriteString(nodeLabel(t.Root(), n))
	b.WriteString("\n")
	var walk func(v cube.NodeID, prefix string)
	walk = func(v cube.NodeID, prefix string) {
		ch := t.Children(v)
		for i, c := range ch {
			connector, nextPrefix := "├── ", prefix+"│   "
			if i == len(ch)-1 {
				connector, nextPrefix = "└── ", prefix+"    "
			}
			b.WriteString(prefix)
			b.WriteString(connector)
			b.WriteString(nodeLabel(c, n))
			if labeler != nil {
				if l, ok := labeler(c); ok {
					fmt.Fprintf(&b, " [%d]", l)
				}
			}
			b.WriteString("\n")
			walk(c, nextPrefix)
		}
	}
	walk(t.Root(), "")
	return b.String()
}

// DOT renders one or more trees over the same cube as a Graphviz digraph.
// Each tree gets its own edge color; edge labels come from the optional
// labelers (parallel to trees; nil entries allowed).
func DOT(name string, trees []*tree.Tree, labelers []EdgeLabeler) string {
	colors := []string{"black", "red3", "blue3", "green4", "orange3", "purple3", "brown", "cyan4"}
	var b strings.Builder
	fmt.Fprintf(&b, "digraph %q {\n  rankdir=TB;\n  node [shape=box, fontname=\"monospace\"];\n", name)
	if len(trees) == 0 {
		b.WriteString("}\n")
		return b.String()
	}
	n := trees[0].Cube().Dim()
	// Emit nodes once, sorted.
	ids := make([]int, 0, trees[0].Cube().Nodes())
	for i := 0; i < trees[0].Cube().Nodes(); i++ {
		ids = append(ids, i)
	}
	sort.Ints(ids)
	for _, i := range ids {
		fmt.Fprintf(&b, "  n%d [label=%q];\n", i, nodeLabel(cube.NodeID(i), n))
	}
	for k, t := range trees {
		color := colors[k%len(colors)]
		var labeler EdgeLabeler
		if k < len(labelers) {
			labeler = labelers[k]
		}
		for _, e := range t.Edges() {
			fmt.Fprintf(&b, "  n%d -> n%d [color=%s", e.From, e.To, color)
			if labeler != nil {
				if l, ok := labeler(e.To); ok {
					fmt.Fprintf(&b, ", label=\"%d\"", l)
				}
			}
			b.WriteString("];\n")
		}
	}
	b.WriteString("}\n")
	return b.String()
}

// MSBTLabeler returns the edge labeler for the j-th ERSBT with source s:
// the paper's f(i, j) routing labels of Figure 3.
func MSBTLabeler(n, j int, s cube.NodeID) EdgeLabeler {
	return func(child cube.NodeID) (int, bool) {
		return msbt.Label(n, j, child, s)
	}
}

// LevelHistogram renders the per-level node populations as a textual bar
// chart — a quick visual of tree balance.
func LevelHistogram(t *tree.Tree) string {
	counts := t.LevelCounts()
	max := 0
	for _, c := range counts {
		if c > max {
			max = c
		}
	}
	var b strings.Builder
	for l, c := range counts {
		bar := ""
		if max > 0 {
			bar = strings.Repeat("#", c*40/max)
		}
		fmt.Fprintf(&b, "level %2d |%-40s| %d\n", l, bar, c)
	}
	return b.String()
}

// SubtreeSummary renders the root subtree sizes, the balance view that
// distinguishes the BST (near-equal) from the SBT (powers of two).
func SubtreeSummary(t *tree.Tree) string {
	sizes := t.RootSubtreeSizes()
	var b strings.Builder
	for k, s := range sizes {
		port := -1
		if k < len(t.Children(t.Root())) {
			port = t.Cube().Port(t.Root(), t.Children(t.Root())[k])
		}
		fmt.Fprintf(&b, "subtree via port %d: %d nodes\n", port, s)
	}
	return b.String()
}
