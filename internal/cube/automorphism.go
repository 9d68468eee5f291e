package cube

import (
	"fmt"
	"math/rand"
)

// automorphism is a symmetry of the Boolean cube: a permutation of the
// dimensions followed by a translation (bitwise XOR). Every automorphism
// of the hypercube graph has this form, and the paper's constructions
// lean on both halves: XOR translation moves a spanning tree to an
// arbitrary source, and dimension rotation turns the SBT into the j-th
// tree of the MSBT. The trees build their translations and rotations
// directly; the tests use this type to check the symmetry itself.
type automorphism struct {
	// Perm[j] is the dimension that bit j maps to. Must be a permutation
	// of 0..n-1.
	Perm []int
	// Translate is XORed after the bit permutation.
	Translate NodeID
}

// identityAutomorphism returns the identity automorphism of the n-cube.
func identityAutomorphism(n int) automorphism {
	p := make([]int, n)
	for i := range p {
		p[i] = i
	}
	return automorphism{Perm: p}
}

// Validate checks that Perm is a permutation of the cube's dimensions and
// the translation is a valid node.
func (a automorphism) Validate(c *Cube) error {
	if len(a.Perm) != c.Dim() {
		return fmt.Errorf("cube: automorphism has %d dims, want %d", len(a.Perm), c.Dim())
	}
	seen := make([]bool, c.Dim())
	for _, d := range a.Perm {
		if d < 0 || d >= c.Dim() || seen[d] {
			return fmt.Errorf("cube: invalid dimension permutation %v", a.Perm)
		}
		seen[d] = true
	}
	if !c.Contains(a.Translate) {
		return fmt.Errorf("cube: translation %d outside cube", a.Translate)
	}
	return nil
}

// Apply maps a node through the automorphism.
func (a automorphism) Apply(v NodeID) NodeID {
	var out NodeID
	for j, d := range a.Perm {
		if v&(1<<uint(j)) != 0 {
			out |= 1 << uint(d)
		}
	}
	return out ^ a.Translate
}

// ApplyPort maps a port (dimension) through the automorphism.
func (a automorphism) ApplyPort(j int) int { return a.Perm[j] }

// Compose returns the automorphism "b after a": a.Compose(b).Apply(v) ==
// b.Apply(a.Apply(v)). Derivation: b(a(v)) = bP(aP(v) ^ aT) ^ bT =
// (bP∘aP)(v) ^ bP(aT) ^ bT.
func (a automorphism) Compose(b automorphism) automorphism {
	n := len(a.Perm)
	p := make([]int, n)
	for j := 0; j < n; j++ {
		p[j] = b.Perm[a.Perm[j]]
	}
	return automorphism{Perm: p, Translate: b.applyBitsOnly(a.Translate) ^ b.Translate}
}

// applyBitsOnly applies only the dimension permutation, no translation.
func (a automorphism) applyBitsOnly(v NodeID) NodeID {
	var out NodeID
	for j, d := range a.Perm {
		if v&(1<<uint(j)) != 0 {
			out |= 1 << uint(d)
		}
	}
	return out
}

// Inverse returns the automorphism undoing a.
func (a automorphism) Inverse() automorphism {
	n := len(a.Perm)
	p := make([]int, n)
	for j, d := range a.Perm {
		p[d] = j
	}
	inv := automorphism{Perm: p}
	inv.Translate = inv.applyBitsOnly(a.Translate)
	return inv
}

// randomAutomorphism draws a uniform automorphism of the n-cube.
func randomAutomorphism(n int, rng *rand.Rand) automorphism {
	return automorphism{
		Perm:      rng.Perm(n),
		Translate: NodeID(rng.Intn(1 << uint(n))),
	}
}

// rotationAutomorphism returns the automorphism rotating dimensions left
// by k (bit j maps to bit (j+k) mod n) — the rotation R^(-k) of the
// paper's necklace machinery lifted to the cube.
func rotationAutomorphism(n, k int) automorphism {
	p := make([]int, n)
	for j := 0; j < n; j++ {
		p[j] = ((j+k)%n + n) % n
	}
	return automorphism{Perm: p}
}

// translationAutomorphism returns the pure-XOR automorphism v -> v ^ t.
func translationAutomorphism(n int, t NodeID) automorphism {
	a := identityAutomorphism(n)
	a.Translate = t
	return a
}
