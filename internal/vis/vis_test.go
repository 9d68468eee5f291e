package vis

import (
	"strings"
	"testing"

	"repro/internal/bst"
	"repro/internal/cube"
	"repro/internal/msbt"
	"repro/internal/sbt"
)

func TestNodeLabel(t *testing.T) {
	if nodeLabel(5, 4) != "0101" {
		t.Errorf("label %q", nodeLabel(5, 4))
	}
	if nodeLabel(0, 3) != "000" {
		t.Errorf("label %q", nodeLabel(0, 3))
	}
}

func TestASCIITreeStructure(t *testing.T) {
	// Paper Figure 1: the SBT in a 4-cube.
	tr := sbt.Cached(4, 0)
	out := ASCIITree(tr, nil)
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	if len(lines) != 16 {
		t.Fatalf("%d lines, want 16", len(lines))
	}
	if lines[0] != "0000" {
		t.Errorf("root line %q", lines[0])
	}
	// Every node address appears.
	for i := 0; i < 16; i++ {
		want := nodeLabel(cube.NodeID(i), 4)
		if strings.Count(out, want) < 1 {
			t.Errorf("address %s missing", want)
		}
	}
	// Indentation encodes depth: the deepest node (1111, level 4) is
	// preceded by 3 rune-columns of guides plus one connector = 16 runes.
	for _, l := range lines {
		if strings.HasSuffix(l, "1111") {
			if runes := len([]rune(l)) - len("1111"); runes != 16 {
				t.Errorf("1111 drawn with %d prefix runes, want 16", runes)
			}
		}
	}
}

func TestASCIITreeWithLabels(t *testing.T) {
	// Paper Figure 3: MSBT routing labels on tree 0 of a 3-cube.
	trees := msbt.MustTrees(3, 0)
	out := ASCIITree(trees[0], MSBTLabeler(3, 0, 0))
	if !strings.Contains(out, "[") {
		t.Fatalf("no labels rendered:\n%s", out)
	}
	// The ERSBT root (001) has input label 0 in tree 0.
	if !strings.Contains(out, "001 [0]") {
		t.Errorf("root label missing:\n%s", out)
	}
}

func TestFigure3Golden(t *testing.T) {
	// Exact rendering of ERSBT 0 with f-labels for the paper's Figure 3
	// setting (3-cube, source 0) — a regression anchor for both the tree
	// construction and the label function.
	trees := msbt.MustTrees(3, 0)
	got := ASCIITree(trees[0], MSBTLabeler(3, 0, 0))
	want := `000
└── 001 [0]
    ├── 011 [1]
    │   ├── 010 [3]
    │   └── 111 [2]
    │       └── 110 [3]
    └── 101 [2]
        └── 100 [3]
`
	if got != want {
		t.Errorf("figure 3 tree 0 drifted:\n got:\n%s\nwant:\n%s", got, want)
	}
}

func TestDOTAllTrees(t *testing.T) {
	// Paper Figure 2: three edge-disjoint directed spanning trees in a
	// 3-cube, one color each.
	trees := msbt.MustTrees(3, 0)
	labelers := make([]EdgeLabeler, len(trees))
	for j := range trees {
		labelers[j] = MSBTLabeler(3, j, 0)
	}
	out := DOT("msbt3", trees, labelers)
	if !strings.HasPrefix(out, "digraph \"msbt3\"") {
		t.Errorf("header: %q", out[:30])
	}
	// 8 node declarations and 3*(8-1) edges.
	if got := strings.Count(out, "label=\"0"); got < 4 {
		t.Errorf("node labels missing (%d)", got)
	}
	if got := strings.Count(out, "->"); got != 21 {
		t.Errorf("%d edges, want 21", got)
	}
	for _, color := range []string{"black", "red3", "blue3"} {
		if !strings.Contains(out, color) {
			t.Errorf("color %s missing", color)
		}
	}
	if DOT("empty", nil, nil) == "" {
		t.Error("empty DOT")
	}
}

func TestLevelHistogram(t *testing.T) {
	tr := bst.MustNew(5, 0)
	out := LevelHistogram(tr)
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	if len(lines) != 6 {
		t.Fatalf("%d lines", len(lines))
	}
	// Middle level (C(5,2)=10 or C(5,3)=10) has the longest bar.
	if !strings.Contains(lines[2], strings.Repeat("#", 40)) &&
		!strings.Contains(lines[3], strings.Repeat("#", 40)) {
		t.Errorf("no full-width bar:\n%s", out)
	}
}

func TestSubtreeSummary(t *testing.T) {
	out := SubtreeSummary(bst.MustNew(5, 0))
	if strings.Count(out, "subtree via port") != 5 {
		t.Errorf("summary:\n%s", out)
	}
	if !strings.Contains(out, "7 nodes") {
		t.Errorf("BST(max)=7 missing for n=5:\n%s", out)
	}
}
