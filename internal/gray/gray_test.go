package gray

import (
	"math/rand"
	"testing"

	"repro/internal/cube"
)

// path is the Hamiltonian path of the n-cube from s, node by node.
func path(n int, s cube.NodeID) []cube.NodeID {
	p := make([]cube.NodeID, 1<<uint(n))
	for k := range p {
		p[k] = pathNode(k, s)
	}
	return p
}

func TestPathIsHamiltonian(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	for n := 1; n <= 10; n++ {
		N := 1 << uint(n)
		s := cube.NodeID(rng.Intn(N))
		p := path(n, s)
		if len(p) != N {
			t.Fatalf("n=%d: path length %d", n, len(p))
		}
		if p[0] != s {
			t.Fatalf("n=%d: path starts at %d", n, p[0])
		}
		c := cube.New(n)
		seen := map[cube.NodeID]bool{}
		for i, v := range p {
			if seen[v] {
				t.Fatalf("n=%d: node %d repeated", n, v)
			}
			seen[v] = true
			if i > 0 && !c.Adjacent(p[i-1], v) {
				t.Fatalf("n=%d: path step %d not a cube edge", n, i)
			}
		}
	}
}

func TestRankInverse(t *testing.T) {
	const n = 8
	for s := 0; s < 1<<n; s += 37 {
		for i := 0; i < 1<<n; i++ {
			if pathNode(pathRank(cube.NodeID(i), cube.NodeID(s)), cube.NodeID(s)) != cube.NodeID(i) {
				t.Fatalf("rank/node not inverse at i=%d s=%d", i, s)
			}
		}
	}
}

func TestTreeIsPath(t *testing.T) {
	for n := 1; n <= 8; n++ {
		tr, err := New(n, 0)
		if err != nil {
			t.Fatal(err)
		}
		if tr.Size() != tr.Cube().Nodes() {
			t.Fatalf("n=%d: not spanning", n)
		}
		N := 1 << uint(n)
		if tr.Height() != N-1 {
			t.Fatalf("n=%d: height %d, want %d", n, tr.Height(), N-1)
		}
		// Every node has at most one child: it's a path.
		for i := 0; i < N; i++ {
			if tr.Fanout(cube.NodeID(i)) > 1 {
				t.Fatalf("n=%d: node %d fanout %d", n, i, tr.Fanout(cube.NodeID(i)))
			}
		}
	}
}
