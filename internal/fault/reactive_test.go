package fault

import (
	"strings"
	"testing"

	"repro/internal/cube"
	"repro/internal/msbt"
	"repro/internal/sbt"
)

func sbtBase(n int) func(root cube.NodeID) ParentFunc {
	return func(root cube.NodeID) ParentFunc {
		return func(i cube.NodeID) (cube.NodeID, bool) { return sbt.Parent(n, i, root) }
	}
}

// TestReactiveDerivesAndMemoizes: a bound epoch serves repaired trees
// lazily and returns the identical memoized tree on repeat asks.
func TestReactiveDerivesAndMemoizes(t *testing.T) {
	const n = 4
	r := NewReactive(n, sbtBase(n))
	live := AllAlive(n)
	live.Clear(5)
	r.Rebind(7, live)

	t1, err := r.Tree(7, 0)
	if err != nil {
		t.Fatal(err)
	}
	if t1.Contains(5) {
		t.Fatal("repaired tree contains the dead node")
	}
	if t1.Size() != (1<<n)-1 {
		t.Fatalf("tree size %d, want %d", t1.Size(), (1<<n)-1)
	}
	// Every live node hangs off a live parent over a real cube edge.
	for _, id := range t1.order {
		if p, ok := t1.Parent(id); ok {
			if !live.Alive(p) {
				t.Fatalf("node %d grafted to dead parent %d", id, p)
			}
			if x := uint(id ^ p); x&(x-1) != 0 {
				t.Fatalf("tree edge %d-%d is not a cube edge", id, p)
			}
		}
	}
	t2, err := r.Tree(7, 0)
	if err != nil {
		t.Fatal(err)
	}
	if t1 != t2 {
		t.Fatal("second ask rebuilt the tree instead of memoizing")
	}
	// A different root is its own derivation.
	if _, err := r.Tree(7, 3); err != nil {
		t.Fatal(err)
	}
}

// TestReactiveEpochGate: stale or future epochs are refused, rebinding
// drops the cache, and rebinding backwards is ignored.
func TestReactiveEpochGate(t *testing.T) {
	const n = 3
	r := NewReactive(n, sbtBase(n))
	if _, err := r.Tree(0, 0); err == nil || !strings.Contains(err.Error(), "before first Rebind") {
		t.Fatalf("unbound Tree: got %v", err)
	}
	live := AllAlive(n)
	r.Rebind(10, live)
	t1, err := r.Tree(10, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := r.Tree(9, 0); err == nil {
		t.Fatal("stale epoch accepted")
	}
	if _, err := r.Tree(11, 0); err == nil {
		t.Fatal("future epoch accepted")
	}

	live2 := AllAlive(n)
	live2.Clear(1)
	r.Rebind(11, live2)
	if _, err := r.Tree(10, 0); err == nil {
		t.Fatal("old epoch still served after rebind")
	}
	t2, err := r.Tree(11, 0)
	if err != nil {
		t.Fatal(err)
	}
	if t2 == t1 {
		t.Fatal("rebind did not drop the memoized tree")
	}
	if t2.Contains(1) {
		t.Fatal("new epoch's tree contains the newly dead node")
	}

	// Regressing the epoch must not un-repair the view.
	r.Rebind(5, AllAlive(n))
	if got := r.Epoch(); got != 11 {
		t.Fatalf("backwards rebind moved epoch to %d", got)
	}
}

// TestReactiveDeadRoot: asking for a tree rooted at a dead rank fails —
// the caller must pick a live root for the epoch (e.g. lowest live).
func TestReactiveDeadRoot(t *testing.T) {
	const n = 3
	r := NewReactive(n, sbtBase(n))
	live := AllAlive(n)
	live.Clear(0)
	r.Rebind(1, live)
	if _, err := r.Tree(1, 0); err == nil {
		t.Fatal("dead root accepted")
	}
	if _, err := r.Tree(1, 1); err != nil {
		t.Fatal(err)
	}
}

// TestReactiveMSBTBase: the same seam drives repair of one rotation of
// the paper's MSBT family, not just the SBT.
func TestReactiveMSBTBase(t *testing.T) {
	const n = 4
	r := NewReactive(n, func(root cube.NodeID) ParentFunc {
		return func(i cube.NodeID) (cube.NodeID, bool) { return msbt.Parent(n, 1, i, root) }
	})
	live := AllAlive(n)
	live.Clear(9)
	live.Clear(12)
	r.Rebind(3, live)
	tr, err := r.Tree(3, 2)
	if err != nil {
		t.Fatal(err)
	}
	if tr.Size() != (1<<n)-2 {
		t.Fatalf("tree size %d, want %d", tr.Size(), (1<<n)-2)
	}
	for _, id := range tr.order {
		if p, ok := tr.Parent(id); ok {
			if x := uint(id ^ p); x&(x-1) != 0 || !live.Alive(p) {
				t.Fatalf("bad repaired edge %d-%d", id, p)
			}
		}
	}
}
