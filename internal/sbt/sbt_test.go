package sbt

import (
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/bits"
	"repro/internal/cube"
)

func TestSpanningAllSources(t *testing.T) {
	for n := 1; n <= 8; n++ {
		for _, s := range sources(n) {
			tr, err := New(n, s)
			if err != nil {
				t.Fatalf("n=%d s=%d: %v", n, s, err)
			}
			if tr.Size() != tr.Cube().Nodes() {
				t.Fatalf("n=%d s=%d: not spanning", n, s)
			}
			if tr.Height() != n {
				t.Fatalf("n=%d s=%d: height %d", n, s, tr.Height())
			}
		}
	}
}

func sources(n int) []cube.NodeID {
	N := 1 << uint(n)
	set := map[cube.NodeID]bool{0: true, cube.NodeID(N - 1): true}
	rng := rand.New(rand.NewSource(int64(n)))
	for len(set) < 4 && len(set) < N {
		set[cube.NodeID(rng.Intn(N))] = true
	}
	out := make([]cube.NodeID, 0, len(set))
	for s := range set {
		out = append(out, s)
	}
	return out
}

func TestChildrenParentConsistency(t *testing.T) {
	const n = 6
	for _, s := range sources(n) {
		tr, err := New(n, s)
		if err != nil {
			t.Fatal(err)
		}
		if err := tr.VerifyChildrenFunc(func(i cube.NodeID) []cube.NodeID {
			return AppendChildren(nil, n, i, s)
		}); err != nil {
			t.Errorf("s=%d: %v", s, err)
		}
	}
}

// TestAppendChildrenKeepsPrefix: AppendChildren appends after whatever
// dst held, in port order, and every child it appends names i as its
// parent.
func TestAppendChildrenKeepsPrefix(t *testing.T) {
	prefix := []cube.NodeID{7, 9}
	const n = 5
	for s := cube.NodeID(0); s < 1<<n; s++ {
		for i := cube.NodeID(0); i < 1<<n; i++ {
			got := AppendChildren(append([]cube.NodeID(nil), prefix...), n, i, s)
			if got[0] != prefix[0] || got[1] != prefix[1] {
				t.Fatalf("i=%d s=%d: AppendChildren %v lost the prefix %v", i, s, got, prefix)
			}
			for k, ch := range got[len(prefix):] {
				if k > 0 && ch^i <= got[len(prefix)+k-1]^i {
					t.Fatalf("i=%d s=%d: children %v out of port order", i, s, got[len(prefix):])
				}
				if p, ok := Parent(n, ch, s); !ok || p != i {
					t.Fatalf("i=%d s=%d: child %d names parent %d", i, s, ch, p)
				}
			}
		}
	}
}

// TestAppendChildrenZeroAllocs: with room in dst, no call allocates.
func TestAppendChildrenZeroAllocs(t *testing.T) {
	buf := make([]cube.NodeID, 0, 8)
	if a := testing.AllocsPerRun(100, func() {
		for i := cube.NodeID(0); i < 8; i++ {
			buf = AppendChildren(buf[:0], 8, 0xA5^i, 0x11)
		}
	}); a != 0 {
		t.Fatalf("a warm AppendChildren allocates %.1f times per 8 calls", a)
	}
}

func TestBinomialLevelCounts(t *testing.T) {
	// Level i of an n-level binomial tree has C(n, i) nodes: the n-bit
	// addresses with i ones.
	for n := 1; n <= 9; n++ {
		tr, err := New(n, 0)
		if err != nil {
			t.Fatal(err)
		}
		want := make([]int, n+1)
		for x := uint64(0); x < 1<<n; x++ {
			want[bits.OnesCount(x)]++
		}
		for i, c := range tr.LevelCounts() {
			if c != want[i] {
				t.Errorf("n=%d level %d: %d nodes, want C(%d,%d)", n, i, c, n, i)
			}
		}
	}
}

func TestLevelEqualsHamming(t *testing.T) {
	f := func(iRaw, sRaw uint16) bool {
		const n = 10
		mask := cube.NodeID(1<<n - 1)
		i, s := cube.NodeID(iRaw)&mask, cube.NodeID(sRaw)&mask
		return Cached(n, s).Level(i) == bits.Hamming(uint64(i), uint64(s))
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestParentReducesLevel(t *testing.T) {
	f := func(iRaw, sRaw uint16) bool {
		const n = 10
		mask := cube.NodeID(1<<n - 1)
		i, s := cube.NodeID(iRaw)&mask, cube.NodeID(sRaw)&mask
		p, ok := Parent(n, i, s)
		if i == s {
			return !ok
		}
		level := func(v cube.NodeID) int { return bits.Hamming(uint64(v), uint64(s)) }
		return ok && level(p) == level(i)-1 && bits.Hamming(uint64(p), uint64(i)) == 1
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestTranslationInvariance(t *testing.T) {
	// The SBT rooted at s is the XOR-translation of the SBT rooted at 0:
	// parent(i, s) == parent(i XOR s, 0) XOR s.
	const n = 8
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 500; trial++ {
		i := cube.NodeID(rng.Intn(1 << n))
		s := cube.NodeID(rng.Intn(1 << n))
		p1, ok1 := Parent(n, i, s)
		p0, ok0 := Parent(n, i^s, 0)
		if ok1 != ok0 {
			t.Fatalf("ok mismatch at i=%d s=%d", i, s)
		}
		if ok1 && p1 != (p0^s) {
			t.Fatalf("translation broken at i=%d s=%d: %d vs %d", i, s, p1, p0^s)
		}
	}
}

func TestSubtreeStructure(t *testing.T) {
	const n = 7
	for _, s := range sources(n) {
		tr, err := New(n, s)
		if err != nil {
			t.Fatal(err)
		}
		// Root subtree j, below s XOR 2^j, holds exactly the nodes whose
		// relative address has lowest one bit j: 2^(n-1-j) of them.
		for j := 0; j < n; j++ {
			sub := tr.SubtreeNodes(s ^ cube.NodeID(1)<<uint(j))
			if len(sub) != SubtreeSize(n, j) {
				t.Errorf("s=%d subtree %d: %d nodes, want %d", s, j, len(sub), SubtreeSize(n, j))
			}
			for _, id := range sub {
				if bits.LowestOne(uint64(id^s)) != j {
					t.Fatalf("s=%d: node %d lies in subtree %d", s, id, j)
				}
			}
		}
	}
}

func TestRecursiveDecomposition(t *testing.T) {
	// An n-level binomial tree is two (n-1)-level binomial trees joined at
	// the roots: the subtree under the root's port-(n-1) neighbor, together
	// with the rest, each span an (n-1)-subcube.
	const n = 6
	tr := Cached(n, 0)
	// The largest root subtree hangs below node 1 and spans the odd
	// (n-1)-subcube: every node with bit 0 set.
	sub := tr.SubtreeNodes(1)
	if len(sub) != 1<<(n-1) {
		t.Fatalf("largest subtree size %d", len(sub))
	}
	for _, v := range sub {
		if v&1 == 0 {
			t.Fatalf("node %d of the odd subtree is even", v)
		}
	}
}
