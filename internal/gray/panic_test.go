package gray

import (
	"testing"

	"repro/internal/cube"
)

func TestParentFollowsPath(t *testing.T) {
	// parent(path[k]) == path[k-1] for every position, any source.
	for _, s := range []int{0, 5, 12} {
		p := path(4, cube.NodeID(s))
		for k := 1; k < len(p); k++ {
			got, ok := parent(p[k], cube.NodeID(s))
			if !ok || got != p[k-1] {
				t.Fatalf("s=%d k=%d: parent %d ok=%v", s, k, got, ok)
			}
		}
		if _, ok := parent(cube.NodeID(s), cube.NodeID(s)); ok {
			t.Fatalf("source must have no parent")
		}
	}
}
