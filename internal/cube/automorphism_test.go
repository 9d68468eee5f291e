package cube

import (
	"math/rand"
	"testing"

	"repro/internal/bits"
)

func TestAutomorphismPreservesAdjacency(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	c := New(6)
	for trial := 0; trial < 100; trial++ {
		a := randomAutomorphism(6, rng)
		if err := a.Validate(c); err != nil {
			t.Fatal(err)
		}
		for k := 0; k < 50; k++ {
			u := NodeID(rng.Intn(c.Nodes()))
			v := NodeID(rng.Intn(c.Nodes()))
			if c.Distance(u, v) != c.Distance(a.Apply(u), a.Apply(v)) {
				t.Fatalf("distance not preserved by %v", a)
			}
		}
		// Ports map consistently: a(neighbor(u, j)) == neighbor(a(u), Perm[j]).
		u := NodeID(rng.Intn(c.Nodes()))
		for j := 0; j < 6; j++ {
			if a.Apply(c.Neighbor(u, j)) != c.Neighbor(a.Apply(u), a.ApplyPort(j)) {
				t.Fatalf("port map broken for %v", a)
			}
		}
	}
}

func TestAutomorphismBijective(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	c := New(5)
	for trial := 0; trial < 50; trial++ {
		a := randomAutomorphism(5, rng)
		seen := make([]bool, c.Nodes())
		for v := 0; v < c.Nodes(); v++ {
			img := a.Apply(NodeID(v))
			if seen[img] {
				t.Fatalf("automorphism not injective: %v", a)
			}
			seen[img] = true
		}
	}
}

func TestInverse(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	c := New(6)
	for trial := 0; trial < 100; trial++ {
		a := randomAutomorphism(6, rng)
		inv := a.Inverse()
		if err := inv.Validate(c); err != nil {
			t.Fatal(err)
		}
		for v := 0; v < c.Nodes(); v++ {
			if inv.Apply(a.Apply(NodeID(v))) != NodeID(v) {
				t.Fatalf("inverse broken for %v at %d", a, v)
			}
		}
	}
}

func TestCompose(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	c := New(5)
	for trial := 0; trial < 100; trial++ {
		a := randomAutomorphism(5, rng)
		b := randomAutomorphism(5, rng)
		ab := a.Compose(b)
		if err := ab.Validate(c); err != nil {
			t.Fatal(err)
		}
		for v := 0; v < c.Nodes(); v++ {
			if ab.Apply(NodeID(v)) != b.Apply(a.Apply(NodeID(v))) {
				t.Fatalf("compose broken: a=%v b=%v v=%d", a, b, v)
			}
		}
	}
}

func TestRotationAutomorphismMatchesBitRotation(t *testing.T) {
	// Rotating dimensions left by k maps node v to RotL^k(v) — i.e. the
	// inverse of the paper's right rotation R^k.
	const n = 6
	for k := 0; k < n; k++ {
		a := rotationAutomorphism(n, k)
		for v := 0; v < 1<<n; v++ {
			want := NodeID(bits.RotRK(uint64(v), n, n-k))
			if got := a.Apply(NodeID(v)); got != want {
				t.Fatalf("k=%d v=%06b: got %06b want %06b", k, v, got, want)
			}
		}
	}
}

func TestTranslationAutomorphism(t *testing.T) {
	a := translationAutomorphism(4, 0b1010)
	if a.Apply(0b0110) != 0b1100 {
		t.Errorf("translation wrong: %04b", a.Apply(0b0110))
	}
	if a.Inverse().Apply(a.Apply(7)) != 7 {
		t.Error("translation inverse broken")
	}
}

func TestValidateRejectsBadAutomorphisms(t *testing.T) {
	c := New(3)
	if err := (automorphism{Perm: []int{0, 1}}).Validate(c); err == nil {
		t.Error("short perm accepted")
	}
	if err := (automorphism{Perm: []int{0, 0, 1}}).Validate(c); err == nil {
		t.Error("repeated dim accepted")
	}
	if err := (automorphism{Perm: []int{0, 1, 2}, Translate: 8}).Validate(c); err == nil {
		t.Error("out-of-range translation accepted")
	}
	if err := identityAutomorphism(3).Validate(c); err != nil {
		t.Error(err)
	}
}

func TestMSBTRotationStructureViaAutomorphism(t *testing.T) {
	// The j-th ERSBT is the 0-th one pushed through the rotation
	// automorphism — the structural fact behind the MSBT construction,
	// checked here purely at the cube level: rotating preserves the
	// "first one bit cyclically right of j" anchor.
	const n = 5
	a := rotationAutomorphism(n, 2)
	for v := 1; v < 1<<n; v++ {
		img := a.Apply(NodeID(v))
		// lowest one bit of v relative to position 0 maps to the same
		// bit relative to position 2.
		lo := bits.LowestOne(uint64(v))
		want := (lo + 2) % n
		found := false
		for d := 0; d < n; d++ {
			probe := (2 + d) % n // scan cyclically from bit 2 upward
			if uint64(img)&(1<<uint(probe)) != 0 {
				found = probe == want
				break
			}
		}
		if !found {
			t.Fatalf("anchor not preserved for v=%05b img=%05b", v, img)
		}
	}
}
