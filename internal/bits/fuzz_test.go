package bits

import "testing"

// FuzzRotations checks the rotation-algebra invariants on arbitrary words:
// inverses, popcount preservation, period divisibility and base minimality.
func FuzzRotations(f *testing.F) {
	f.Add(uint64(0b011011), uint8(6), uint8(2))
	f.Add(uint64(0), uint8(1), uint8(0))
	f.Add(^uint64(0), uint8(64), uint8(63))
	f.Add(uint64(0b1011001110001111), uint8(16), uint8(5))
	f.Fuzz(func(t *testing.T, xRaw uint64, nRaw, kRaw uint8) {
		n := int(nRaw%64) + 1
		k := int(kRaw) % n
		x := xRaw & Mask(n)
		if got := RotRK(RotRK(x, n, k), n, n-k); got != x {
			t.Fatalf("rotation inverse broken: x=%b n=%d k=%d", x, n, k)
		}
		if OnesCount(RotRK(x, n, k)) != OnesCount(x) {
			t.Fatalf("rotation changed popcount: x=%b n=%d k=%d", x, n, k)
		}
		p := Period(x, n)
		if p < 1 || n%p != 0 {
			t.Fatalf("period %d does not divide n=%d for x=%b", p, n, x)
		}
		if RotRK(x, n, p) != x {
			t.Fatalf("R^P(x) != x: x=%b n=%d P=%d", x, n, p)
		}
		b := Base(x, n)
		min := RotRK(x, n, b)
		for j := 0; j < n; j++ {
			r := RotRK(x, n, j)
			if r < min || (r == min && j < b) {
				t.Fatalf("base not minimal-first: x=%b n=%d base=%d j=%d", x, n, b, j)
			}
		}
		if x != 0 && min != 0 && min&1 == 0 {
			t.Fatalf("minimal rotation of nonzero word is even: x=%b n=%d min=%b", x, n, min)
		}
	})
}

// FuzzGrayCode checks that GrayRank inverts GrayCode and that consecutive
// codes differ in exactly one bit.
func FuzzGrayCode(f *testing.F) {
	f.Add(uint64(0))
	f.Add(uint64(12345))
	f.Add(^uint64(0) - 1)
	f.Fuzz(func(t *testing.T, i uint64) {
		if GrayRank(GrayCode(i)) != i {
			t.Fatalf("rank/code not inverse at %d", i)
		}
		if i != ^uint64(0) {
			if OnesCount(GrayCode(i)^GrayCode(i+1)) != 1 {
				t.Fatalf("codes %d and %d differ in more than one bit", i, i+1)
			}
		}
	})
}
