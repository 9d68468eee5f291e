// Package tcbt implements the Two-rooted (double-rooted) Complete Binary
// Tree embedding in a Boolean n-cube, the broadcast baseline the paper
// compares against (Bhatt & Ipsen 1985; Deshpande & Jenevein 1986).
//
// The TCBT on N = 2^n nodes is a complete binary tree on N-1 nodes whose
// root has been split into two adjacent roots: R1 — R2, with R1 owning one
// child C1 and R2 the other child C2; C1 and C2 each root a complete
// binary tree on 2^(n-1) - 1 nodes. Unlike the complete binary tree
// itself, the TCBT is a spanning subgraph of the n-cube (dilation 1).
//
// The embedding is built recursively. Build(n, i, j, k) produces a
// spanning TCBT of Q_n whose root edge R1-R2 runs along dimension i, whose
// R1-C1 edge runs along dimension j, and whose R2-C2 edge runs along
// dimension k. The inductive step splits Q_n along dimension i into
// subcubes A and B, takes a TCBT in A with root edge j, re-roots it so its
// secondary root becomes the new R1, and splices the B-side TCBT in so
// that each new root subtree is the node-disjoint union {C} + CBT(A-half)
// + CBT(B-half) — exactly a complete binary tree on 2^(n-1) - 1 nodes.
package tcbt

import (
	"fmt"

	"repro/internal/cube"
	"repro/internal/tree"
)

// Embedding is a spanning TCBT of the n-cube, rooted (for broadcast
// purposes) at the primary root R1.
type Embedding struct {
	N      int         // cube dimension
	R1, R2 cube.NodeID // the two adjacent roots; R1 is the broadcast source
	C1, C2 cube.NodeID // child of R1 resp. R2 (roots of the two half CBTs); unset for N == 1
	parent []int32     // parent[i]; tree.NoParent at R1
}

// Parent returns the parent of node v, with ok == false at R1.
func (e *Embedding) Parent(v cube.NodeID) (cube.NodeID, bool) {
	p := e.parent[v]
	if p == tree.NoParent {
		return 0, false
	}
	return cube.NodeID(p), true
}

// New builds a spanning TCBT of the n-cube with broadcast source s (s
// becomes the primary root R1). n must be >= 1.
func New(n int, s cube.NodeID) (*Embedding, error) {
	if n < 1 || n > cube.MaxDim {
		return nil, fmt.Errorf("tcbt: dimension %d out of range", n)
	}
	var e *Embedding
	if n == 1 {
		// Two nodes, two roots, no subtrees.
		e = &Embedding{N: 1, R1: 0, R2: 1, parent: []int32{tree.NoParent, 0}}
	} else {
		dims := make([]int, n)
		for d := range dims {
			dims[d] = d
		}
		var j, k int
		if n == 2 {
			j, k = 1, 1 // base case: both child edges along the non-root dimension
		} else {
			j, k = 1, 2
		}
		e = build(dims, 0, j, k)
	}
	// Translate so the primary root lands on s.
	t := e.R1 ^ s
	translated := make([]int32, len(e.parent))
	for v, p := range e.parent {
		nv := cube.NodeID(v) ^ t
		if p == tree.NoParent {
			translated[nv] = tree.NoParent
		} else {
			translated[nv] = int32(cube.NodeID(p) ^ t)
		}
	}
	e.parent = translated
	e.R1 ^= t
	e.R2 ^= t
	e.C1 ^= t
	e.C2 ^= t
	return e, nil
}

// Tree materializes the embedding as a validated spanning tree rooted at R1.
func (e *Embedding) Tree() (*tree.Tree, error) {
	c := cube.New(e.N)
	return tree.FromParentFunc(c, e.R1, func(i cube.NodeID) (cube.NodeID, bool) {
		return e.Parent(i)
	})
}

// MustTree is Tree, panicking on error.
func (e *Embedding) MustTree() *tree.Tree {
	t, err := e.Tree()
	if err != nil {
		panic(err)
	}
	return t
}

// build constructs a TCBT over the given dimension set with the root edge
// along rootDim, the R1-C1 edge along c1Dim, and the R2-C2 edge along
// c2Dim. R1 is placed at node 0. Node addresses use the global bit
// positions in dims. len(dims) >= 2; for len(dims) == 2 the two child
// dimensions coincide (c1Dim == c2Dim == the non-root dimension).
func build(dims []int, rootDim, c1Dim, c2Dim int) *Embedding {
	n := len(dims)
	if n == 2 {
		// Base: Q_2 over {rootDim, c1Dim}. R1 = 0, R2 = e_root,
		// C1 = e_child, C2 = e_root + e_child.
		er := cube.NodeID(1) << uint(rootDim)
		ec := cube.NodeID(1) << uint(c1Dim)
		size := maxNode(dims) + 1
		parent := newParents(size)
		parent[er] = 0            // R2 under R1
		parent[ec] = 0            // C1 under R1
		parent[er|ec] = int32(er) // C2 under R2
		return &Embedding{N: n, R1: 0, R2: er, C1: ec, C2: er | ec, parent: parent}
	}

	m := rootDim // split dimension; B-half has bit m set
	sub := removeDim(dims, m)

	// A-half: root edge along c1Dim, secondary child edge along c2Dim.
	// Its secondary root rA2 becomes the new primary root R1.
	var a *Embedding
	if len(sub) == 2 {
		a = build(sub, c1Dim, c2Dim, c2Dim)
	} else {
		jA := pickDim(sub, c1Dim, c2Dim)
		a = build(sub, c1Dim, jA, c2Dim)
	}
	// B-half: root edge along c2Dim, C1 edge along c1Dim. Pinned so that
	// its C1 node lands on rA1 XOR e_m.
	var b *Embedding
	if len(sub) == 2 {
		b = build(sub, c2Dim, c1Dim, c1Dim)
	} else {
		kB := pickDim(sub, c2Dim, c1Dim)
		b = build(sub, c2Dim, c1Dim, kB)
	}
	em := cube.NodeID(1) << uint(m)
	bShift := (a.R1 ^ em ^ cube.NodeID(1)<<uint(c1Dim)) ^ b.R1 // rB1 target XOR current
	// After translation, every B node must carry bit m; bShift includes em
	// because b's coordinates have bit m clear.

	size := maxNode(dims) + 1
	parent := newParents(size)
	copyParents(parent, a, 0)
	copyParents(parent, b, bShift)

	rA1, rA2, cA2 := a.R1, a.R2, a.C2
	rB1, rB2, cB1, cB2 := b.R1^bShift, b.R2^bShift, b.C1^bShift, b.C2^bShift

	// Re-root A: rA2 becomes the primary root R1, rA1 its child C1.
	parent[rA2] = tree.NoParent
	parent[rA1] = int32(rA2)
	// New root edge: R2 = rB1 sits across dimension m from R1 = rA2.
	parent[rB1] = int32(rA2)
	// C1 = rA1 adopts B's first half-CBT root across dimension m.
	parent[cB1] = int32(rA1)
	// C2 = rB2 adopts A's second half-CBT root across dimension m.
	parent[cA2] = int32(rB2)
	// B-copy edges rB1->rB2 and rB2->cB2 are kept as copied.
	_ = cB2

	return &Embedding{
		N: n, R1: rA2, R2: rB1, C1: rA1, C2: rB2, parent: parent,
	}
}

func newParents(size cube.NodeID) []int32 {
	p := make([]int32, size)
	for i := range p {
		p[i] = tree.NoParent
	}
	return p
}

// copyParents copies src's parent links into dst, translating node ids by
// XOR with shift. Unassigned (NoParent) entries of src that are not src's
// root are nodes outside src's dimension span; they stay untouched because
// src only assigns parents for its own nodes.
func copyParents(dst []int32, src *Embedding, shift cube.NodeID) {
	for v, p := range src.parent {
		if p == tree.NoParent {
			if cube.NodeID(v) == src.R1 {
				dst[cube.NodeID(v)^shift] = tree.NoParent
			}
			continue
		}
		dst[cube.NodeID(v)^shift] = int32(cube.NodeID(p) ^ shift)
	}
}

// maxNode returns the largest address representable over dims.
func maxNode(dims []int) cube.NodeID {
	var m cube.NodeID
	for _, d := range dims {
		m |= 1 << uint(d)
	}
	return m
}

func removeDim(dims []int, d int) []int {
	out := make([]int, 0, len(dims)-1)
	for _, x := range dims {
		if x != d {
			out = append(out, x)
		}
	}
	return out
}

// pickDim returns a dimension from dims different from both a and b.
func pickDim(dims []int, a, b int) int {
	for _, x := range dims {
		if x != a && x != b {
			return x
		}
	}
	panic("tcbt: no free dimension")
}
