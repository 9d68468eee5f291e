package msbt

import (
	"math/rand"
	"testing"

	"repro/internal/bits"
	"repro/internal/cube"
	"repro/internal/tree"
)

func sources(n int) []cube.NodeID {
	N := 1 << uint(n)
	set := map[cube.NodeID]bool{0: true, cube.NodeID(N - 1): true}
	rng := rand.New(rand.NewSource(int64(n) * 7))
	for len(set) < 3 && len(set) < N {
		set[cube.NodeID(rng.Intn(N))] = true
	}
	out := make([]cube.NodeID, 0, len(set))
	for s := range set {
		out = append(out, s)
	}
	return out
}

func TestERSBTsSpanAndValidate(t *testing.T) {
	for n := 1; n <= 7; n++ {
		for _, s := range sources(n) {
			trees, err := Trees(n, s)
			if err != nil {
				t.Fatalf("n=%d s=%d: %v", n, s, err)
			}
			if len(trees) != n {
				t.Fatalf("want %d trees", n)
			}
			for j, tr := range trees {
				if !tr.Spanning() {
					t.Fatalf("n=%d s=%d tree %d not spanning", n, s, j)
				}
				if tr.Root() != s {
					t.Fatalf("tree %d rooted at %d, want %d", j, tr.Root(), s)
				}
				// The source has exactly one child: the ERSBT root s^2^j.
				ch := tr.Children(s)
				if len(ch) != 1 || ch[0] != RootOf(j, s) {
					t.Fatalf("n=%d s=%d tree %d: source children %v", n, s, j, ch)
				}
				if err := tr.VerifyChildrenFunc(func(i cube.NodeID) []cube.NodeID {
					return AppendChildren(nil, n, j, i, s)
				}); err != nil {
					t.Fatalf("n=%d s=%d tree %d: %v", n, s, j, err)
				}
			}
		}
	}
}

func TestEdgeDisjointness(t *testing.T) {
	// The n directed ERSBTs are edge-disjoint; together with the n unused
	// edges from the ERSBT roots back to the source they use every
	// directed edge of the cube exactly once.
	for n := 2; n <= 7; n++ {
		for _, s := range sources(n) {
			trees := MustTrees(n, s)
			if err := tree.EdgeDisjoint(trees...); err != nil {
				t.Fatalf("n=%d s=%d: %v", n, s, err)
			}
			used := map[cube.Edge]bool{}
			for _, tr := range trees {
				for _, e := range tr.Edges() {
					used[e] = true
				}
			}
			N := 1 << uint(n)
			if len(used) != N*n-n {
				t.Fatalf("n=%d s=%d: %d directed edges used, want %d", n, s, len(used), N*n-n)
			}
			// The unused edges are exactly root->source for each tree.
			for j := 0; j < n; j++ {
				e := cube.Edge{From: RootOf(j, s), To: s}
				if used[e] {
					t.Fatalf("edge %v to the source must be unused", e)
				}
			}
		}
	}
}

func TestHeights(t *testing.T) {
	// Each ERSBT has height log N + 1 (source -> SBT root -> SBT of height
	// log N, with the source excised from the smallest subtree), except in
	// dimension 1 where the single tree is an edge.
	for n := 2; n <= 7; n++ {
		for j, tr := range MustTrees(n, 0) {
			if tr.Height() != n+1 {
				t.Errorf("n=%d tree %d height %d, want %d", n, j, tr.Height(), n+1)
			}
		}
	}
	if h := MustTrees(1, 0)[0].Height(); h != 1 {
		t.Errorf("n=1 height %d", h)
	}
}

func TestInternalLeafSplit(t *testing.T) {
	// In the j-th ERSBT, nodes with relative bit j set are internal (the
	// source aside, they have children); the rest are leaves except the
	// source.
	const n = 6
	for _, s := range sources(n) {
		trees := MustTrees(n, s)
		for j, tr := range trees {
			for i := 0; i < 1<<n; i++ {
				id := cube.NodeID(i)
				if id == s {
					continue
				}
				internal := (id^s)>>uint(j)&1 == 1
				hasChildren := len(tr.Children(id)) > 0
				// The ERSBT root with every other relative bit zero has
				// n-1 children; a relative address of just bit j is still
				// internal even if all its children are leaves.
				if internal && tr.Level(id) <= n && !hasChildren && id != RootOf(j, s) {
					// Internal nodes at the maximum level may have no
					// children only if no deeper node exists; verify via
					// level rather than failing outright.
					if tr.Level(id) < tr.Height() {
						t.Fatalf("internal node %d (tree %d) has no children at level %d", id, j, tr.Level(id))
					}
				}
				if !internal && hasChildren {
					t.Fatalf("leaf node %d of tree %d has children", id, j)
				}
			}
		}
	}
}

func TestLabelConditions(t *testing.T) {
	// The three validity conditions of the labelling f (paper §3.3.2).
	for n := 1; n <= 7; n++ {
		for _, s := range sources(n) {
			trees := MustTrees(n, s)
			N := 1 << uint(n)
			// Condition 1: within each subtree, every output-edge label of a
			// node exceeds its input-edge label.
			for j, tr := range trees {
				for i := 0; i < N; i++ {
					id := cube.NodeID(i)
					in, ok := Label(n, j, id, s)
					if !ok {
						if id != s {
							t.Fatalf("non-source %d lacks label", id)
						}
						continue
					}
					for _, ch := range tr.Children(id) {
						out, _ := Label(n, j, ch, s)
						if out <= in {
							t.Fatalf("n=%d s=%d tree %d: node %d out %d <= in %d", n, s, j, id, out, in)
						}
					}
				}
			}
			// Conditions 2 and 3: per cube node, input-edge labels distinct
			// mod n, and output-edge labels distinct mod n.
			for i := 0; i < N; i++ {
				id := cube.NodeID(i)
				if id == s {
					continue
				}
				inMod := map[int]int{}
				for j := 0; j < n; j++ {
					l, ok := Label(n, j, id, s)
					if !ok {
						t.Fatalf("missing input label node %d tree %d", id, j)
					}
					if l < 0 || l > 2*n-1 {
						t.Fatalf("label %d out of range", l)
					}
					if prev, dup := inMod[l%n]; dup {
						t.Fatalf("n=%d s=%d node %d: input labels collide mod n (trees %d,%d)", n, s, id, prev, j)
					}
					inMod[l%n] = j
				}
			}
			for i := 0; i < N; i++ {
				id := cube.NodeID(i)
				outMod := map[int]cube.Edge{}
				for j, tr := range trees {
					for _, ch := range tr.Children(id) {
						l, _ := Label(n, j, ch, s)
						e := cube.Edge{From: id, To: ch}
						if prev, dup := outMod[l%n]; dup {
							t.Fatalf("n=%d s=%d node %d: output labels collide mod n (%v,%v)", n, s, id, prev, e)
						}
						outMod[l%n] = e
					}
				}
			}
		}
	}
}

func TestLabelRangeAndCompletion(t *testing.T) {
	// Largest input label is 2n-1, so the first packet of every tree has
	// reached every node by the end of cycle 2n-1 — 2 log N steps total.
	for n := 2; n <= 7; n++ {
		max := 0
		for i := 1; i < 1<<n; i++ {
			for j := 0; j < n; j++ {
				l, ok := Label(n, j, cube.NodeID(i), 0)
				if !ok {
					t.Fatalf("missing label")
				}
				if l > max {
					max = l
				}
			}
		}
		if max != 2*n-1 {
			t.Errorf("n=%d: max label %d, want %d", n, max, 2*n-1)
		}
	}
}

func TestTranslationInvariance(t *testing.T) {
	const n = 6
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 300; trial++ {
		i := cube.NodeID(rng.Intn(1 << n))
		s := cube.NodeID(rng.Intn(1 << n))
		j := rng.Intn(n)
		p1, ok1 := Parent(n, j, i, s)
		p0, ok0 := Parent(n, j, i^s, 0)
		if ok1 != ok0 || (ok1 && p1 != (p0^s)) {
			t.Fatalf("parent translation broken i=%d s=%d j=%d", i, s, j)
		}
		l1, lok1 := Label(n, j, i, s)
		l0, lok0 := Label(n, j, i^s, 0)
		if lok1 != lok0 || l1 != l0 {
			t.Fatalf("label translation broken i=%d s=%d j=%d", i, s, j)
		}
	}
}

func TestRotationStructure(t *testing.T) {
	// Tree j with source 0 is tree 0 with all addresses rotated left by j:
	// parent_j(i) == RotL^j(parent_0(RotR^j(i))).
	const n = 6
	for j := 0; j < n; j++ {
		for i := 1; i < 1<<n; i++ {
			id := cube.NodeID(i)
			rot := cube.NodeID(bits.RotRK(uint64(id), n, j))
			p0, ok0 := Parent(n, 0, rot, 0)
			pj, okj := Parent(n, j, id, 0)
			if ok0 != okj {
				t.Fatalf("ok mismatch i=%d j=%d", i, j)
			}
			if ok0 {
				want := cube.NodeID(bits.RotRK(uint64(p0), n, n-j))
				if pj != want {
					t.Fatalf("rotation structure broken: i=%06b j=%d got %06b want %06b", i, j, pj, want)
				}
			}
		}
	}
}

// childrenRef is Children as the paper states it, built the direct way:
// the ports M_MSBT(c, j) between the anchor k and bit j, then port j
// unless i is the tree's root.
func childrenRef(n, j int, i, s cube.NodeID) []cube.NodeID {
	c := uint64(i ^ s)
	k := cyclicK(c, n, j)
	switch {
	case k == -1:
		return []cube.NodeID{i ^ 1<<uint(j)}
	case c&(1<<uint(j)) == 0:
		return nil
	}
	var ports []int
	for m := (k + 1) % n; m != j; m = (m + 1) % n {
		ports = append(ports, m)
	}
	if k != j {
		ports = append(ports, j)
	}
	var out []cube.NodeID
	for _, m := range ports {
		out = append(out, i^cube.NodeID(1)<<uint(m))
	}
	return out
}

// TestAppendChildrenMatchesChildren: for every n <= 8, tree, node and
// source, AppendChildren appends exactly the paper's children, in port
// order, after whatever dst held, and every child names i as its parent.
func TestAppendChildrenMatchesChildren(t *testing.T) {
	prefix := []cube.NodeID{7, 9}
	buf := make([]cube.NodeID, 0, 16)
	for n := 1; n <= 8; n++ {
		N := cube.NodeID(1) << uint(n)
		for j := 0; j < n; j++ {
			for s := cube.NodeID(0); s < N; s++ {
				for i := cube.NodeID(0); i < N; i++ {
					want := childrenRef(n, j, i, s)
					got := AppendChildren(append(buf[:0], prefix...), n, j, i, s)
					if len(got) != len(prefix)+len(want) || got[0] != prefix[0] || got[1] != prefix[1] {
						t.Fatalf("n=%d j=%d i=%d s=%d: AppendChildren %v, want %v after %v", n, j, i, s, got, want, prefix)
					}
					for k, ch := range want {
						if got[len(prefix)+k] != ch {
							t.Fatalf("n=%d j=%d i=%d s=%d: AppendChildren %v, want %v after %v", n, j, i, s, got, want, prefix)
						}
						if p, ok := Parent(n, j, ch, s); !ok || p != i {
							t.Fatalf("n=%d j=%d s=%d: child %d of %d names parent %d", n, j, s, ch, i, p)
						}
					}
				}
			}
		}
	}
}

// TestAppendChildrenZeroAllocs: with room in dst, no call allocates.
func TestAppendChildrenZeroAllocs(t *testing.T) {
	buf := make([]cube.NodeID, 0, 8)
	if a := testing.AllocsPerRun(100, func() {
		for j := 0; j < 8; j++ {
			buf = AppendChildren(buf[:0], 8, j, 0xA5, 0x11)
		}
	}); a != 0 {
		t.Fatalf("a warm AppendChildren allocates %.1f times per 8 calls", a)
	}
}
