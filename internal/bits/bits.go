// Package bits provides the bit-manipulation substrate used throughout the
// hypercube routing library: rotations of fixed-width binary words, periods
// and necklaces (generator sets), binary-reflected Gray codes, and assorted
// mask and popcount helpers.
//
// All words are fixed-width: a value x paired with a width n means the
// n-bit binary number (x_{n-1} ... x_1 x_0). Bit 0 is the lowest-order bit,
// matching the paper's convention that the j-th port of a node flips bit j.
package bits

import "math/bits"

// OnesCount returns |x|, the number of one bits in x.
func OnesCount(x uint64) int { return bits.OnesCount64(x) }

// Hamming returns the Hamming distance |x XOR y| between x and y.
func Hamming(x, y uint64) int { return bits.OnesCount64(x ^ y) }

// Mask returns a mask with the low n bits set. n must be in [0, 64].
func Mask(n int) uint64 {
	if n <= 0 {
		return 0
	}
	if n >= 64 {
		return ^uint64(0)
	}
	return (uint64(1) << uint(n)) - 1
}

// HighestOne returns the index of the highest-order one bit of x,
// or -1 if x == 0. For the SBT with relative address c, HighestOne(c)
// is the paper's k: the child set complements bits above k.
func HighestOne(x uint64) int {
	if x == 0 {
		return -1
	}
	return 63 - bits.LeadingZeros64(x)
}

// LowestOne returns the index of the lowest-order one bit of x,
// or -1 if x == 0.
func LowestOne(x uint64) int {
	if x == 0 {
		return -1
	}
	return bits.TrailingZeros64(x)
}

// rotR returns the right rotation by one step of the n-bit word x:
// R((a_{n-1} ... a_1 a_0)) = (a_0 a_{n-1} ... a_1).
// x must fit in n bits; n must be in [1, 64].
func rotR(x uint64, n int) uint64 {
	low := x & 1
	return (x >> 1) | (low << uint(n-1))
}

// RotRK returns R^k(x), the right rotation of the n-bit word x by k steps.
// k may exceed n; it is reduced modulo n. Negative k rotates left.
func RotRK(x uint64, n, k int) uint64 {
	if n <= 0 {
		return x
	}
	k %= n
	if k < 0 {
		k += n
	}
	if k == 0 {
		return x
	}
	m := Mask(n)
	x &= m
	return ((x >> uint(k)) | (x << uint(n-k))) & m
}

// Period returns P_x, the least j >= 1 such that R^j(x) == x for the n-bit
// word x. The period always divides n. Example: Period(0b011011, 6) == 3.
func Period(x uint64, n int) int {
	// The period divides n, so only divisors need checking, but n <= 64
	// makes the straightforward scan cheap and obviously correct.
	y := x
	for j := 1; j <= n; j++ {
		y = rotR(y, n)
		if y == x {
			return j
		}
	}
	return n // unreachable: j == n always satisfies R^n(x) == x
}

// IsCyclic reports whether the n-bit word x is cyclic, i.e. its period is
// strictly less than its length n. Nodes with cyclic relative addresses are
// the "cyclic nodes" of the BST construction.
func IsCyclic(x uint64, n int) bool { return Period(x, n) < n }

// Base returns base(x) for the n-bit word x: the minimum number of right
// rotations j such that R^j(x) is minimal among all rotations of x.
// base(0) == 0 by convention. In the BST, node i (relative address c) is
// assigned to subtree base(c).
//
// Examples from the paper: Base(0b011010, 6) == 3, Base(0b110110, 6) == 1.
func Base(x uint64, n int) int {
	best := x & Mask(n)
	bestJ := 0
	y := x & Mask(n)
	for j := 1; j < n; j++ {
		y = rotR(y, n)
		if y < best {
			best = y
			bestJ = j
		}
	}
	return bestJ
}

// GrayCode returns the i-th binary-reflected Gray code word: i XOR (i >> 1).
// Successive Gray code words differ in exactly one bit, so the sequence
// GrayCode(0), GrayCode(1), ..., GrayCode(2^n - 1) is a Hamiltonian path in
// the n-cube starting at node 0.
func GrayCode(i uint64) uint64 { return i ^ (i >> 1) }

// GrayRank is the inverse of GrayCode: GrayRank(GrayCode(i)) == i.
func GrayRank(g uint64) uint64 {
	var i uint64
	for ; g != 0; g >>= 1 {
		i ^= g
	}
	return i
}

// Binomial returns C(n, k), the binomial coefficient, with C(n, k) == 0 for
// k < 0 or k > n. Safe for the n <= 64 range used by cube dimensions.
func Binomial(n, k int) uint64 {
	if k < 0 || k > n {
		return 0
	}
	if k > n-k {
		k = n - k
	}
	var c uint64 = 1
	for i := 0; i < k; i++ {
		c = c * uint64(n-i) / uint64(i+1)
	}
	return c
}
