package bst

import (
	"math"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/bits"
	"repro/internal/cube"
	"repro/internal/tree"
)

// subtreeOf returns the root subtree of node i in the BST rooted at s,
// base(i XOR s); -1 at the source.
func subtreeOf(n int, i, s cube.NodeID) int {
	if i == s {
		return -1
	}
	return bits.Base(uint64(i^s), n)
}

func sources(n int) []cube.NodeID {
	N := 1 << uint(n)
	set := map[cube.NodeID]bool{0: true, cube.NodeID(N - 1): true}
	rng := rand.New(rand.NewSource(int64(n) * 13))
	for len(set) < 3 && len(set) < N {
		set[cube.NodeID(rng.Intn(N))] = true
	}
	out := make([]cube.NodeID, 0, len(set))
	for s := range set {
		out = append(out, s)
	}
	return out
}

func TestSpanningAndConsistent(t *testing.T) {
	for n := 1; n <= 8; n++ {
		for _, s := range sources(n) {
			tr, err := New(n, s)
			if err != nil {
				t.Fatalf("n=%d s=%d: %v", n, s, err)
			}
			if !tr.Spanning() {
				t.Fatalf("n=%d s=%d not spanning", n, s)
			}
			if err := tr.VerifyChildrenFunc(func(i cube.NodeID) []cube.NodeID {
				return Children(n, i, s)
			}); err != nil {
				t.Fatalf("n=%d s=%d: %v", n, s, err)
			}
		}
	}
}

func TestParentPreservesBase(t *testing.T) {
	// Climbing toward the root stays within the same root subtree: the
	// parent of i (unless it is the source) has the same base.
	for n := 2; n <= 9; n++ {
		for i := 1; i < 1<<n; i++ {
			id := cube.NodeID(i)
			p, ok := Parent(n, id, 0)
			if !ok {
				t.Fatalf("node %d has no parent", i)
			}
			if p == 0 {
				continue
			}
			if subtreeOf(n, p, 0) != subtreeOf(n, id, 0) {
				t.Fatalf("n=%d: parent %0*b of %0*b changes base %d -> %d",
					n, n, p, n, id, subtreeOf(n, id, 0), subtreeOf(n, p, 0))
			}
		}
	}
}

func TestParentReducesWeight(t *testing.T) {
	// Each parent step clears exactly one bit of the relative address, so
	// tree level == Hamming weight of the relative address.
	const n = 8
	for _, s := range sources(n) {
		tr := MustNew(n, s)
		for i := 0; i < 1<<n; i++ {
			id := cube.NodeID(i)
			if tr.Level(id) != bits.OnesCount(uint64(id^s)) {
				t.Fatalf("level(%d) = %d, want |c| = %d", id, tr.Level(id), bits.OnesCount(uint64(id^s)))
			}
		}
	}
}

func TestTable5Golden(t *testing.T) {
	// Paper Table 5, digit for digit, n = 2..20 (n = 17..20 are slow-ish;
	// kept because they pin down the necklace machinery at scale).
	want := map[int]int{
		2: 2, 3: 3, 4: 5, 5: 7, 6: 13, 7: 19, 8: 35, 9: 59, 10: 107,
		11: 187, 12: 351, 13: 631, 14: 1181, 15: 2191, 16: 4115,
		17: 7711, 18: 14601, 19: 27595, 20: 52487,
	}
	to := 20
	if testing.Short() {
		to = 14
	}
	for _, row := range Table5(2, to) {
		if row.BSTMax != want[row.N] {
			t.Errorf("n=%d: BST(max) = %d, want %d", row.N, row.BSTMax, want[row.N])
		}
		ideal := (math.Pow(2, float64(row.N)) - 1) / float64(row.N)
		if math.Abs(row.Ideal-ideal) > 1e-9 {
			t.Errorf("n=%d: ideal %f", row.N, row.Ideal)
		}
		if row.Ratio < 1.0 {
			t.Errorf("n=%d: max subtree smaller than ideal", row.N)
		}
	}
	// The ratio approaches 1: by n=13 it is below 1.01 (paper shows 1.00).
	rows := Table5(13, 13)
	if rows[0].Ratio >= 1.01 {
		t.Errorf("n=13 ratio %f not near 1", rows[0].Ratio)
	}
}

func TestSubtreeSizesSumAndBounds(t *testing.T) {
	for n := 2; n <= 12; n++ {
		sizes := subtreeSizes(n)
		sum := 0
		for _, c := range sizes {
			sum += c
		}
		if sum != 1<<n-1 {
			t.Fatalf("n=%d: sizes sum to %d", n, sum)
		}
		// Lemma 4.1 lower bound: at least (N+2)/(2+log N) nodes per subtree.
		N := int(1) << uint(n)
		lower := float64(N+2) / float64(2+n)
		if float64(slices.Min(sizes)) < math.Floor(lower) {
			t.Errorf("n=%d: min subtree %d below lower bound %f", n, slices.Min(sizes), lower)
		}
	}
}

func TestPaperProperty1Heights(t *testing.T) {
	// Property 1: one subtree has height log N, all others log N - 1
	// (heights counted from the source; the deep subtree contains the
	// all-ones relative address at level n).
	for n := 2; n <= 9; n++ {
		tr := MustNew(n, 0)
		deep := 0
		for _, ch := range tr.Children(0) {
			h := 0
			for _, v := range tr.SubtreeNodes(ch) {
				if tr.Level(v) > h {
					h = tr.Level(v)
				}
			}
			switch h {
			case n:
				deep++
			case n - 1:
			default:
				t.Fatalf("n=%d: subtree at %d has depth %d", n, ch, h)
			}
		}
		if deep != 1 {
			t.Fatalf("n=%d: %d subtrees of depth n, want 1", n, deep)
		}
	}
}

func TestPaperProperty2Fanout(t *testing.T) {
	// Property 2: the maximum fanout of any node at level i is
	// floor((log N - i) / 2) + ... the paper states floor((log N - i)/2)
	// for 1 <= i <= log N; verify as an upper bound, and that the root has
	// fanout exactly n.
	for n := 2; n <= 9; n++ {
		tr := MustNew(n, 0)
		if tr.Fanout(0) != n {
			t.Fatalf("n=%d root fanout %d", n, tr.Fanout(0))
		}
		_, perLevel := tr.MaxFanout()
		for i := 1; i < len(perLevel); i++ {
			bound := (n - i + 1) / 2 // ceil((n-i)/2), a safe reading of the bound
			if perLevel[i] > bound {
				t.Errorf("n=%d level %d: max fanout %d > %d", n, i, perLevel[i], bound)
			}
		}
	}
}

func TestPaperProperty3Phi(t *testing.T) {
	// Property 3: phi(i, j) >= phi(k, j) where k is a child of i — the
	// number of nodes at distance j below a node does not grow when
	// descending. (Needed for the level-by-level scatter to be root-bound.)
	for n := 2; n <= 8; n++ {
		tr := MustNew(n, 0)
		for v := 0; v < 1<<n; v++ {
			id := cube.NodeID(v)
			for _, ch := range tr.Children(id) {
				for j := 0; j <= n; j++ {
					if tr.NodesAtDistanceInSubtree(id, j) < tr.NodesAtDistanceInSubtree(ch, j) {
						t.Fatalf("n=%d: phi(%d,%d) < phi(%d,%d)", n, id, j, ch, j)
					}
				}
			}
		}
	}
}

func TestPaperProperty4Isomorphic(t *testing.T) {
	// Property 4: if log N is prime, all subtrees are isomorphic after
	// excluding the all-ones node (which lives in subtree 0).
	for _, n := range []int{3, 5, 7} {
		full := MustNew(n, 0)
		ones := cube.NodeID(1<<n - 1)
		c := cube.New(n)
		// Rebuild subtree 0 without the all-ones node.
		members := []cube.NodeID{}
		for i := 1; i < 1<<n; i++ {
			id := cube.NodeID(i)
			if subtreeOf(n, id, 0) == 0 && id != ones {
				members = append(members, id)
			}
		}
		root0 := full.Children(0)[0]
		sub0, err := tree.FromParentFuncSubset(c, root0, func(i cube.NodeID) (cube.NodeID, bool) {
			p, _ := Parent(n, i, 0)
			if p == 0 {
				return 0, false
			}
			return p, true
		}, members)
		if err != nil {
			t.Fatal(err)
		}
		for j := 1; j < n; j++ {
			rootJ := cube.NodeID(1) << uint(j)
			if !tree.Isomorphic(sub0, root0, full, rootJ) {
				t.Errorf("n=%d: subtree %d not isomorphic to pruned subtree 0", n, j)
			}
		}
	}
}

func TestPaperProperty5CyclicPeriods(t *testing.T) {
	// Property 5: subtrees P through log N - 1 contain no cyclic node of
	// period P. (A period-P address has base < P because its minimal
	// rotation recurs every P steps.)
	for n := 2; n <= 10; n++ {
		for i := 1; i < 1<<n; i++ {
			id := uint64(i)
			if !bits.IsCyclic(id, n) {
				continue
			}
			p := bits.Period(id, n)
			if b := bits.Base(id, n); b >= p {
				t.Fatalf("n=%d: cyclic node %b period %d in subtree %d", n, i, p, b)
			}
		}
	}
}

func TestPaperProperty6CyclicLeaves(t *testing.T) {
	// Property 6: every cyclic node is a leaf of the BST.
	for n := 2; n <= 9; n++ {
		tr := MustNew(n, 0)
		for i := 1; i < 1<<n; i++ {
			if bits.IsCyclic(uint64(i), n) && !tr.IsLeaf(cube.NodeID(i)) {
				t.Fatalf("n=%d: cyclic node %b is internal", n, i)
			}
		}
	}
}

func TestTranslationInvariance(t *testing.T) {
	const n = 7
	rng := rand.New(rand.NewSource(17))
	for trial := 0; trial < 300; trial++ {
		i := cube.NodeID(rng.Intn(1 << n))
		s := cube.NodeID(rng.Intn(1 << n))
		p1, ok1 := Parent(n, i, s)
		p0, ok0 := Parent(n, i^s, 0)
		if ok1 != ok0 || (ok1 && p1 != (p0^s)) {
			t.Fatalf("translation broken i=%d s=%d", i, s)
		}
	}
}

func TestRootNeighborsRootTheirSubtrees(t *testing.T) {
	// base(2^j) == j, so the source's neighbor across port j roots subtree j.
	for n := 1; n <= 10; n++ {
		for j := 0; j < n; j++ {
			if got := subtreeOf(n, cube.NodeID(1)<<uint(j), 0); got != j {
				t.Errorf("n=%d: base(2^%d) = %d", n, j, got)
			}
		}
	}
}
