// Package cube models the Boolean n-cube (hypercube) interconnection
// topology: 2^n nodes with n-bit addresses, where two nodes are adjacent
// exactly when their addresses differ in one bit. The j-th port of a node
// connects it to the neighbor obtained by complementing bit j.
//
// This is the substrate topology on which all spanning structures (SBT,
// MSBT, BST, TCBT, Hamiltonian path) and routing algorithms of Ho &
// Johnsson (ICPP 1986) are defined.
package cube

import (
	"fmt"

	"repro/internal/bits"
)

// MaxDim is the largest supported cube dimension. 2^30 nodes is far beyond
// anything the simulator or runtime can instantiate, but topology queries
// (addresses, distances, paths) remain cheap at this size.
const MaxDim = 30

// NodeID is a node address in the cube: an n-bit binary number.
type NodeID uint32

// Cube describes a Boolean n-cube topology. The zero value is unusable;
// construct with New.
type Cube struct {
	n int // dimension
}

// New returns an n-dimensional Boolean cube. It panics if n is outside
// [1, MaxDim]; dimension is a structural constant, so a bad value is a
// programming error rather than a runtime condition.
func New(n int) *Cube {
	if n < 1 || n > MaxDim {
		panic(fmt.Sprintf("cube: dimension %d out of range [1,%d]", n, MaxDim))
	}
	return &Cube{n: n}
}

// Dim returns n, the dimension of the cube (log2 of the node count).
func (c *Cube) Dim() int { return c.n }

// Nodes returns N = 2^n, the number of nodes.
func (c *Cube) Nodes() int { return 1 << uint(c.n) }

// Links returns the number of (bidirectional) communication links,
// N * n / 2.
func (c *Cube) Links() int { return c.Nodes() * c.n / 2 }

// Contains reports whether id is a valid node address in this cube.
func (c *Cube) Contains(id NodeID) bool { return uint64(id) < uint64(c.Nodes()) }

// Neighbor returns the node reached from id through port j, i.e. the
// address with bit j complemented. Panics if j is not a valid port.
func (c *Cube) Neighbor(id NodeID, j int) NodeID {
	c.checkPort(j)
	return id ^ NodeID(1)<<uint(j)
}

// Port returns the port of node a that leads to node b, or -1 if a and b
// are not adjacent. The port index equals the index of the single
// differing bit.
func (c *Cube) Port(a, b NodeID) int {
	d := uint64(a ^ b)
	if bits.OnesCount(d) != 1 {
		return -1
	}
	return bits.LowestOne(d)
}

// Distance returns the Hamming distance between a and b, which is the
// length of every shortest path between them.
func (c *Cube) Distance(a, b NodeID) int { return bits.Hamming(uint64(a), uint64(b)) }

// Adjacent reports whether a and b are connected by a link.
func (c *Cube) Adjacent(a, b NodeID) bool { return c.Distance(a, b) == 1 }

// ShortestPath returns a shortest path from a to b as a node sequence
// beginning with a and ending with b, correcting differing bits from the
// lowest to the highest ("e-cube" / dimension-ordered routing).
func (c *Cube) ShortestPath(a, b NodeID) []NodeID {
	path := make([]NodeID, 0, c.Distance(a, b)+1)
	path = append(path, a)
	cur := a
	d := a ^ b
	for j := 0; j < c.n; j++ {
		if d&(1<<uint(j)) != 0 {
			cur ^= 1 << uint(j)
			path = append(path, cur)
		}
	}
	return path
}

// Edge is a directed edge of the cube graph: communication from From to To
// across one link. From and To must be adjacent.
type Edge struct {
	From, To NodeID
}

func (e Edge) String() string { return fmt.Sprintf("%d->%d", e.From, e.To) }

// DirectedEdges returns all N*n directed edges of the cube.
func (c *Cube) DirectedEdges() []Edge {
	out := make([]Edge, 0, c.Nodes()*c.n)
	for i := 0; i < c.Nodes(); i++ {
		for j := 0; j < c.n; j++ {
			out = append(out, Edge{NodeID(i), c.Neighbor(NodeID(i), j)})
		}
	}
	return out
}

// ValidEdge reports whether e joins two adjacent nodes of this cube.
func (c *Cube) ValidEdge(e Edge) bool {
	return c.Contains(e.From) && c.Contains(e.To) && c.Adjacent(e.From, e.To)
}

func (c *Cube) checkPort(j int) {
	if j < 0 || j >= c.n {
		panic(fmt.Sprintf("cube: port %d out of range [0,%d)", j, c.n))
	}
}
