package exp

import (
	"math"
	"testing"
)

func TestAblateMSBTLabels(t *testing.T) {
	// The f-labelling must beat tree-major streaming clearly: tree-major
	// serializes the source, costing ~n*q steps instead of ~q+n.
	for _, n := range []int{4, 5, 6} {
		r, err := AblateMSBTLabels(n, 6)
		if err != nil {
			t.Fatal(err)
		}
		if r.Paper != float64(6*n+n) {
			t.Errorf("n=%d: labelled schedule took %.0f steps, want %d", n, r.Paper, 6*n+n)
		}
		if r.Gain() < 1.5 {
			t.Errorf("n=%d: labelling gain only %.2fx", n, r.Gain())
		}
	}
}

func TestAblateScatterOrder(t *testing.T) {
	// The paper implemented depth-first order (§5.2) for its smaller
	// routing tables. Measured on the simulator, neither order dominates
	// (DF wins at n=5 with these packets, RBF at n=6..7), but they stay
	// within ~25% of each other — which is exactly why the paper could
	// take DF's table-space win without a meaningful time penalty.
	for _, n := range []int{5, 6, 7} {
		r, err := AblateScatterOrder(n, 4, 16)
		if err != nil {
			t.Fatal(err)
		}
		if g := r.Gain(); g < 1/1.3 || g > 1.3 {
			t.Errorf("n=%d: DF %.1f vs RBF %.1f diverge beyond 30%%", n, r.Paper, r.Alternative)
		}
	}
}

func TestAblateSBTScatterInterleave(t *testing.T) {
	// With overlap, the interleaved (Gray-ordered) scatter must not lose
	// to the port-oriented one; §5.2's measured advantage came from
	// exactly this overlap exploitation.
	r, err := AblateSBTScatterInterleave(6, 32, 0.2)
	if err != nil {
		t.Fatal(err)
	}
	if r.Paper > r.Alternative*1.05 {
		t.Errorf("interleaved %.1f clearly slower than port-oriented %.1f", r.Paper, r.Alternative)
	}
}

func TestAblatePacketSizeNearFormula(t *testing.T) {
	// The measured optimum over powers of two must bracket the closed
	// form within a factor of 2 (the sweep's resolution).
	measured, formula, err := AblatePacketSize(5, 4096, 100, 1)
	if err != nil {
		t.Fatal(err)
	}
	if formula <= 0 {
		t.Fatalf("bad formula B_opt %f", formula)
	}
	ratio := measured / formula
	if ratio < 0.5 || ratio > 2.5 {
		t.Errorf("measured B_opt %.0f vs formula %.1f (ratio %.2f)", measured, formula, ratio)
	}
}

func TestAblateBalance(t *testing.T) {
	// BST root-link load approaches N/log N; SBT stays N/2. The gain is
	// about log N / 2.
	for _, n := range []int{6, 8, 10} {
		r := AblateBalance(n)
		want := float64(n) / 2
		if math.Abs(r.Gain()-want)/want > 0.25 {
			t.Errorf("n=%d: balance gain %.2f, want ~%.1f", n, r.Gain(), want)
		}
	}
}
