package bits

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestOnesCountAndHamming(t *testing.T) {
	cases := []struct {
		x, y uint64
		d    int
	}{
		{0, 0, 0},
		{0b1011, 0b0000, 3},
		{0b1011, 0b1011, 0},
		{0b1111, 0b0000, 4},
		{^uint64(0), 0, 64},
		{0b1010, 0b0101, 4},
	}
	for _, c := range cases {
		if got := Hamming(c.x, c.y); got != c.d {
			t.Errorf("Hamming(%b,%b) = %d, want %d", c.x, c.y, got, c.d)
		}
	}
	if OnesCount(0b10110) != 3 {
		t.Errorf("OnesCount(0b10110) = %d, want 3", OnesCount(0b10110))
	}
}

func TestMask(t *testing.T) {
	if Mask(0) != 0 {
		t.Errorf("Mask(0) = %x", Mask(0))
	}
	if Mask(1) != 1 {
		t.Errorf("Mask(1) = %x", Mask(1))
	}
	if Mask(8) != 0xff {
		t.Errorf("Mask(8) = %x", Mask(8))
	}
	if Mask(64) != ^uint64(0) {
		t.Errorf("Mask(64) = %x", Mask(64))
	}
	if Mask(-3) != 0 {
		t.Errorf("Mask(-3) = %x", Mask(-3))
	}
}

func TestHighestLowestOne(t *testing.T) {
	if HighestOne(0) != -1 || LowestOne(0) != -1 {
		t.Error("zero should give -1")
	}
	if HighestOne(1) != 0 || LowestOne(1) != 0 {
		t.Error("one")
	}
	if HighestOne(0b101000) != 5 {
		t.Errorf("HighestOne = %d", HighestOne(0b101000))
	}
	if LowestOne(0b101000) != 3 {
		t.Errorf("LowestOne = %d", LowestOne(0b101000))
	}
}

func TestRotR(t *testing.T) {
	// Paper definition: R((a_{n-1}...a_1 a_0)) = (a_0 a_{n-1}...a_1).
	if got := rotR(0b000001, 6); got != 0b100000 {
		t.Errorf("rotR(000001) = %06b", got)
	}
	if got := rotR(0b011011, 6); got != 0b101101 {
		t.Errorf("rotR(011011) = %06b", got)
	}
	if got := RotRK(0b011011, 6, 3); got != 0b011011 {
		t.Errorf("RotRK 3 of period-3 word = %06b", got)
	}
	if got := RotRK(0b0001, 4, -1); got != 0b0010 {
		t.Errorf("RotRK(-1) = %04b", got)
	}
	if got := RotRK(0b1000, 4, 3); got != 0b0001 {
		t.Errorf("RotRK(3) = %04b", got)
	}
}

func TestRotationInverse(t *testing.T) {
	cfg := &quick.Config{MaxCount: 500}
	f := func(x uint64, nRaw uint8, kRaw uint8) bool {
		n := int(nRaw%64) + 1
		k := int(kRaw) % n
		x &= Mask(n)
		return RotRK(RotRK(x, n, k), n, n-k) == x
	}
	if err := quick.Check(f, cfg); err != nil {
		t.Error(err)
	}
}

func TestPeriod(t *testing.T) {
	cases := []struct {
		x uint64
		n int
		p int
	}{
		{0b011011, 6, 3}, // paper's example
		{0b000000, 6, 1},
		{0b111111, 6, 1},
		{0b101010, 6, 2},
		{0b001001, 6, 3},
		{0b000001, 6, 6},
		{0b1, 1, 1},
		{0b01, 2, 2},
	}
	for _, c := range cases {
		if got := Period(c.x, c.n); got != c.p {
			t.Errorf("Period(%b, %d) = %d, want %d", c.x, c.n, got, c.p)
		}
	}
}

func TestPeriodDividesN(t *testing.T) {
	f := func(x uint64, nRaw uint8) bool {
		n := int(nRaw%20) + 1
		x &= Mask(n)
		return n%Period(x, n) == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 1000}); err != nil {
		t.Error(err)
	}
}

func TestIsCyclic(t *testing.T) {
	if !IsCyclic(0b011011, 6) {
		t.Error("011011 is cyclic")
	}
	if IsCyclic(0b000001, 6) {
		t.Error("000001 is non-cyclic")
	}
	// Over width n=1 every word has period 1 == n: non-cyclic.
	if IsCyclic(1, 1) || IsCyclic(0, 1) {
		t.Error("width-1 words are non-cyclic")
	}
}

func TestBasePaperExamples(t *testing.T) {
	// base((110110)) = 1 per the paper (period 3, J = {1, 4}).
	//
	// The paper's other example claims base((011010)) = 3, but its own formal
	// definition (least j such that R^j(i) is minimal over all rotations)
	// gives 1: R^1(011010) = 001101 = 13 is the unique minimum rotation.
	// We follow the formal definition; it is the one consistent with the
	// second example and with the paper's Table 5 subtree sizes (golden-
	// tested in internal/bst).
	if got := Base(0b110110, 6); got != 1 {
		t.Errorf("Base(110110) = %d, want 1", got)
	}
	if got := Base(0b011010, 6); got != 1 {
		t.Errorf("Base(011010) = %d, want 1 (see comment)", got)
	}
	if got := Base(0, 6); got != 0 {
		t.Errorf("Base(0) = %d, want 0", got)
	}
}

func TestBaseIsArgminRotation(t *testing.T) {
	f := func(x uint64, nRaw uint8) bool {
		n := int(nRaw%16) + 1
		x &= Mask(n)
		b := Base(x, n)
		min := RotRK(x, n, b)
		// Minimality and first-ness.
		for j := 0; j < n; j++ {
			r := RotRK(x, n, j)
			if r < min {
				return false
			}
			if r == min && j < b {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 1000}); err != nil {
		t.Error(err)
	}
}

// baseSet returns the paper's J_x = {j : R^j(x) is the minimal rotation
// of x}, in increasing order.
func baseSet(x uint64, n int) []int {
	min := RotRK(x, n, Base(x, n))
	var out []int
	for j := 0; j < n; j++ {
		if RotRK(x, n, j) == min {
			out = append(out, j)
		}
	}
	return out
}

func TestRotationSetAndBaseSet(t *testing.T) {
	// (001001), (010010), (100100) are one generator set.
	if p := Period(0b001001, 6); p != 3 {
		t.Fatalf("period = %d", p)
	}
	want := map[uint64]bool{0b001001: true, 0b100100: true, 0b010010: true}
	for j := 0; j < 3; j++ {
		if v := RotRK(0b001001, 6, j); !want[v] {
			t.Errorf("unexpected rotation %06b", v)
		}
	}
	bs := baseSet(0b001001, 6)
	if len(bs) != 2 { // n / P = 6/3
		t.Fatalf("BaseSet len = %d, want 2", len(bs))
	}
	if bs[0] != Base(0b001001, 6) {
		t.Error("J[0] must equal Base")
	}
}

func TestBaseSetSize(t *testing.T) {
	f := func(x uint64, nRaw uint8) bool {
		n := int(nRaw%16) + 1
		x &= Mask(n)
		return len(baseSet(x, n)) == n/Period(x, n)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

// TestNecklaceCount checks that Base's canonical forms R^base(x)(x) are
// the binary necklaces: one per generator set, as many as OEIS A000031
// counts.
func TestNecklaceCount(t *testing.T) {
	want := []int{1: 2, 3, 4, 6, 8, 14, 20, 36, 60, 108, 188, 352, 632, 1182}
	for n := 1; n < len(want); n++ {
		seen := map[uint64]bool{}
		for x := uint64(0); x < 1<<uint(n); x++ {
			seen[RotRK(x, n, Base(x, n))] = true
		}
		if len(seen) != want[n] {
			t.Errorf("n=%d: %d canonical forms, want %d necklaces", n, len(seen), want[n])
		}
	}
}

func TestGrayCodeAdjacency(t *testing.T) {
	for n := 1; n <= 12; n++ {
		size := uint64(1) << uint(n)
		seen := make(map[uint64]bool, size)
		prev := GrayCode(0)
		seen[prev] = true
		for i := uint64(1); i < size; i++ {
			g := GrayCode(i)
			if Hamming(prev, g) != 1 {
				t.Fatalf("n=%d: Gray codes %d and %d not adjacent", n, i-1, i)
			}
			if seen[g] {
				t.Fatalf("n=%d: duplicate gray code %b", n, g)
			}
			seen[g] = true
			prev = g
		}
	}
}

func TestGrayRankInverse(t *testing.T) {
	f := func(i uint64) bool { return GrayRank(GrayCode(i)) == i }
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestBinomial(t *testing.T) {
	if Binomial(0, 0) != 1 {
		t.Error("C(0,0)")
	}
	if Binomial(5, -1) != 0 || Binomial(5, 6) != 0 {
		t.Error("out of range")
	}
	if Binomial(10, 3) != 120 {
		t.Errorf("C(10,3) = %d", Binomial(10, 3))
	}
	if Binomial(20, 10) != 184756 {
		t.Errorf("C(20,10) = %d", Binomial(20, 10))
	}
	// Pascal identity.
	for n := 1; n <= 30; n++ {
		for k := 1; k < n; k++ {
			if Binomial(n, k) != Binomial(n-1, k-1)+Binomial(n-1, k) {
				t.Fatalf("Pascal fails at (%d,%d)", n, k)
			}
		}
	}
	// Row sums: sum_k C(n,k) = 2^n — the node count of the n-cube by distance.
	for n := 0; n <= 20; n++ {
		var sum uint64
		for k := 0; k <= n; k++ {
			sum += Binomial(n, k)
		}
		if sum != 1<<uint(n) {
			t.Fatalf("row sum n=%d: %d", n, sum)
		}
	}
}

func TestRotationPreservesOnes(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 200; trial++ {
		n := 1 + rng.Intn(32)
		x := rng.Uint64() & Mask(n)
		k := rng.Intn(3*n) - n
		if OnesCount(RotRK(x, n, k)) != OnesCount(x) {
			t.Fatalf("rotation changed popcount: x=%b n=%d k=%d", x, n, k)
		}
	}
}
