package cube

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestNewPanics(t *testing.T) {
	for _, n := range []int{0, -1, MaxDim + 1} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("New(%d) did not panic", n)
				}
			}()
			New(n)
		}()
	}
}

func TestCounts(t *testing.T) {
	for n := 1; n <= 10; n++ {
		c := New(n)
		if c.Dim() != n {
			t.Errorf("Dim = %d", c.Dim())
		}
		if c.Nodes() != 1<<uint(n) {
			t.Errorf("Nodes(%d) = %d", n, c.Nodes())
		}
		if c.Links() != (1<<uint(n))*n/2 {
			t.Errorf("Links(%d) = %d", n, c.Links())
		}
	}
}

func TestNeighborInvolution(t *testing.T) {
	c := New(7)
	f := func(idRaw uint32, jRaw uint8) bool {
		id := NodeID(idRaw) & NodeID(c.Nodes()-1)
		j := int(jRaw) % c.Dim()
		nb := c.Neighbor(id, j)
		return nb != id && c.Neighbor(nb, j) == id && c.Distance(id, nb) == 1
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestNeighborsAndPort(t *testing.T) {
	c := New(5)
	for i := 0; i < c.Nodes(); i++ {
		id := NodeID(i)
		seen := map[NodeID]bool{}
		for j := 0; j < c.Dim(); j++ {
			nb := c.Neighbor(id, j)
			if seen[nb] {
				t.Fatalf("duplicate neighbor")
			}
			seen[nb] = true
			if got := c.Port(id, nb); got != j {
				t.Fatalf("Port(%d,%d) = %d, want %d", id, nb, got, j)
			}
		}
	}
	if c.Port(0, 3) != -1 {
		t.Error("non-adjacent nodes must give port -1")
	}
	if c.Port(4, 4) != -1 {
		t.Error("identical nodes must give port -1")
	}
}

func TestNodesAtDistance(t *testing.T) {
	// Count must match C(n, d) by brute force.
	c := New(8)
	for d := 0; d <= 8; d++ {
		count := 0
		for i := 0; i < c.Nodes(); i++ {
			if c.Distance(0, NodeID(i)) == d {
				count++
			}
		}
		if uint64(count) != c.NodesAtDistance(d) {
			t.Errorf("d=%d: brute %d formula %d", d, count, c.NodesAtDistance(d))
		}
	}
}

func TestShortestPath(t *testing.T) {
	c := New(6)
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 200; trial++ {
		a := NodeID(rng.Intn(c.Nodes()))
		b := NodeID(rng.Intn(c.Nodes()))
		p := c.ShortestPath(a, b)
		if p[0] != a || p[len(p)-1] != b {
			t.Fatalf("endpoints wrong: %v", p)
		}
		if len(p) != c.Distance(a, b)+1 {
			t.Fatalf("length %d, want %d", len(p), c.Distance(a, b)+1)
		}
		for i := 1; i < len(p); i++ {
			if !c.Adjacent(p[i-1], p[i]) {
				t.Fatalf("non-adjacent step in path %v", p)
			}
		}
	}
}

func TestDisjointPaths(t *testing.T) {
	c := New(5)
	rng := rand.New(rand.NewSource(2))
	for trial := 0; trial < 100; trial++ {
		a := NodeID(rng.Intn(c.Nodes()))
		b := NodeID(rng.Intn(c.Nodes()))
		if a == b {
			if got := c.DisjointPaths(a, b); got != nil {
				t.Fatal("equal endpoints must give nil")
			}
			continue
		}
		paths := c.DisjointPaths(a, b)
		if len(paths) != c.Dim() {
			t.Fatalf("want %d paths, got %d", c.Dim(), len(paths))
		}
		h := c.Distance(a, b)
		interior := map[NodeID]int{}
		for j, p := range paths {
			if p[0] != a || p[len(p)-1] != b {
				t.Fatalf("path %d endpoints wrong: %v", j, p)
			}
			// Paper: each path has length equal to the Hamming distance or
			// Hamming distance plus two.
			steps := len(p) - 1
			if steps != h && steps != h+2 {
				t.Fatalf("path %d length %d, Hamming %d", j, steps, h)
			}
			for i := 1; i < len(p); i++ {
				if !c.Adjacent(p[i-1], p[i]) {
					t.Fatalf("path %d has non-adjacent step: %v", j, p)
				}
			}
			for _, v := range p[1 : len(p)-1] {
				interior[v]++
			}
		}
		// Node-disjointness of interiors.
		for v, k := range interior {
			if k > 1 {
				t.Fatalf("node %d appears on %d path interiors", v, k)
			}
		}
	}
}

func TestSubcubeNodes(t *testing.T) {
	c := New(4)
	// Fix bit 3 = 1 and bit 0 = 0: a 2-subcube of 4 nodes.
	got := c.SubcubeNodes(0b1001, 0b1000)
	if len(got) != 4 {
		t.Fatalf("len = %d", len(got))
	}
	want := []NodeID{0b1000, 0b1010, 0b1100, 0b1110}
	for i, w := range want {
		if got[i] != w {
			t.Errorf("got[%d] = %04b, want %04b", i, got[i], w)
		}
	}
	// Fixing no bits enumerates the whole cube.
	all := c.SubcubeNodes(0, 0)
	if len(all) != c.Nodes() {
		t.Errorf("full subcube size %d", len(all))
	}
}

func TestDirectedEdges(t *testing.T) {
	c := New(4)
	edges := c.DirectedEdges()
	if len(edges) != c.Nodes()*c.Dim() {
		t.Fatalf("edge count %d", len(edges))
	}
	seen := map[Edge]bool{}
	for _, e := range edges {
		if !c.ValidEdge(e) {
			t.Fatalf("invalid edge %v", e)
		}
		if seen[e] {
			t.Fatalf("duplicate edge %v", e)
		}
		seen[e] = true
	}
}

func TestRelativeAddress(t *testing.T) {
	c := New(6)
	f := func(iRaw, sRaw uint32) bool {
		i := NodeID(iRaw) & NodeID(c.Nodes()-1)
		s := NodeID(sRaw) & NodeID(c.Nodes()-1)
		rel := c.RelativeAddress(i, s)
		// XOR translation: relative address of the source is 0, and the map
		// is an involution preserving adjacency.
		return rel^s == i && c.RelativeAddress(s, s) == 0 &&
			c.Distance(i, s) == c.Distance(rel, 0)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestContains(t *testing.T) {
	c := New(3)
	if !c.Contains(7) || c.Contains(8) {
		t.Error("Contains wrong")
	}
}

// The cube geometry below is reached by no collective; the paper states
// it and the tests check it against the graph.

// NodesAtDistance returns C(n, d): the number of nodes at Hamming distance
// d from any fixed node.
func (c *Cube) NodesAtDistance(d int) uint64 {
	if d < 0 || d > c.n {
		return 0
	}
	var out uint64 = 1
	for i := 0; i < d; i++ {
		out = out * uint64(c.n-i) / uint64(i+1)
	}
	return out
}

// RelativeAddress returns i XOR s, the address of node i relative to a
// spanning structure rooted (sourced) at node s. Translation by XOR is how
// every tree in the paper is moved to an arbitrary source.
func (c *Cube) RelativeAddress(i, s NodeID) NodeID { return i ^ s }

// DisjointPaths returns n paths from a to b that are pairwise node-disjoint
// except at the endpoints (Saad & Schultz). Path j first corrects bit
// positions starting from bit j cyclically. When bit j of a^b is set the
// path has length Hamming(a,b); otherwise it detours through dimension j
// first and last, for length Hamming(a,b)+2.
func (c *Cube) DisjointPaths(a, b NodeID) [][]NodeID {
	if a == b {
		return nil
	}
	d := a ^ b
	paths := make([][]NodeID, 0, c.n)
	for j := 0; j < c.n; j++ {
		var path []NodeID
		cur := a
		path = append(path, cur)
		detour := d&(1<<uint(j)) == 0
		if detour {
			// Leave through dimension j even though it does not need
			// correcting; re-correct it at the end.
			cur ^= 1 << uint(j)
			path = append(path, cur)
		}
		// Correct needed bits in cyclic order starting at j.
		for t := 0; t < c.n; t++ {
			m := (j + t) % c.n
			if d&(1<<uint(m)) != 0 {
				cur ^= 1 << uint(m)
				path = append(path, cur)
			}
		}
		if detour {
			cur ^= 1 << uint(j)
			path = append(path, cur)
		}
		paths = append(paths, path)
	}
	return paths
}

// SubcubeNodes returns the addresses of the subcube obtained by fixing the
// bits selected by fixedMask to the corresponding bits of fixedValue and
// letting the remaining bits range freely. The result is in increasing
// order of the free bits' value.
func (c *Cube) SubcubeNodes(fixedMask, fixedValue NodeID) []NodeID {
	freeBits := make([]int, 0, c.n)
	for j := 0; j < c.n; j++ {
		if fixedMask&(1<<uint(j)) == 0 {
			freeBits = append(freeBits, j)
		}
	}
	k := len(freeBits)
	out := make([]NodeID, 0, 1<<uint(k))
	base := fixedValue & fixedMask
	for v := 0; v < 1<<uint(k); v++ {
		id := base
		for t, j := range freeBits {
			if v&(1<<uint(t)) != 0 {
				id |= 1 << uint(j)
			}
		}
		out = append(out, id)
	}
	return out
}
