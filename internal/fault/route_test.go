package fault

import (
	"math/rand"
	"testing"

	"repro/internal/bst"
	"repro/internal/cube"
	"repro/internal/sbt"
)

// reachable computes the live-subgraph reachability set from root by BFS,
// independently of Regraft's internals.
func reachable(n int, root cube.NodeID, live Liveness, linkDead func(a, b cube.NodeID) bool) map[cube.NodeID]bool {
	c := cube.New(n)
	seen := map[cube.NodeID]bool{root: true}
	queue := []cube.NodeID{root}
	for len(queue) > 0 {
		v := queue[0]
		queue = queue[1:]
		for j := 0; j < n; j++ {
			w := c.Neighbor(v, j)
			if seen[w] || !live.Alive(w) {
				continue
			}
			if linkDead != nil && (linkDead(v, w) || linkDead(w, v)) {
				continue
			}
			seen[w] = true
			queue = append(queue, w)
		}
	}
	return seen
}

// checkTree asserts the regrafted tree's structural invariants: spans
// exactly the reachable live nodes, uses only live cube edges, and every
// member walks up to the root without cycles.
func checkTree(t *testing.T, ft *Tree, n int, root cube.NodeID, live Liveness, linkDead func(a, b cube.NodeID) bool) {
	t.Helper()
	c := cube.New(n)
	want := reachable(n, root, live, linkDead)
	if ft.Size() != len(want) {
		t.Fatalf("tree spans %d nodes, want %d reachable", ft.Size(), len(want))
	}
	for id := range want {
		if !ft.Contains(id) {
			t.Fatalf("reachable node %d missing from tree", id)
		}
	}
	for _, id := range ft.order {
		if id == root {
			continue
		}
		p, ok := ft.Parent(id)
		if !ok {
			t.Fatalf("member %d has no parent", id)
		}
		if !c.Adjacent(id, p) {
			t.Fatalf("parent %d of %d is not a cube neighbor", p, id)
		}
		if !live.Alive(p) {
			t.Fatalf("parent %d of %d is dead", p, id)
		}
		if linkDead != nil && (linkDead(id, p) || linkDead(p, id)) {
			t.Fatalf("tree edge %d-%d uses a dead link", id, p)
		}
		// Walk to the root; more than N hops means a cycle.
		cur, hops := id, 0
		for cur != root {
			next, ok := ft.Parent(cur)
			if !ok {
				t.Fatalf("walk from %d stranded at %d", id, cur)
			}
			cur = next
			if hops++; hops > c.Nodes() {
				t.Fatalf("cycle on walk from %d", id)
			}
		}
	}
}

func TestRegraftFaultFreeReproducesBaseTrees(t *testing.T) {
	for _, n := range []int{2, 3, 4, 5} {
		for _, s := range []cube.NodeID{0, cube.NodeID(1<<uint(n)) - 1} {
			live := AllAlive(n)
			sbtBase := func(i cube.NodeID) (cube.NodeID, bool) { return sbt.Parent(n, i, s) }
			bstBase := func(i cube.NodeID) (cube.NodeID, bool) { return bst.Parent(n, i, s) }
			for name, base := range map[string]ParentFunc{"sbt": sbtBase, "bst": bstBase} {
				ft, err := Regraft(n, s, base, live, nil)
				if err != nil {
					t.Fatal(err)
				}
				for i := 0; i < 1<<uint(n); i++ {
					id := cube.NodeID(i)
					gp, gok := ft.Parent(id)
					wp, wok := base(id)
					if gok != wok || (gok && gp != wp) {
						t.Fatalf("n=%d s=%d %s: fault-free regraft moved node %d: parent %d, want %d", n, s, name, id, gp, wp)
					}
				}
			}
		}
	}
}

func TestRegraftAroundDeadSourceNeighbor(t *testing.T) {
	const n = 4
	plan := deadSourceNeighbor(n, 0, 0) // node 1 dies
	live := plan.Liveness()
	ft, err := Regraft(n, 0, func(i cube.NodeID) (cube.NodeID, bool) { return bst.Parent(n, i, 0) }, live, nil)
	if err != nil {
		t.Fatal(err)
	}
	checkTree(t, ft, n, 0, live, nil)
	if ft.Contains(1) {
		t.Error("dead node 1 kept in tree")
	}
	if ft.Size() != 15 {
		t.Errorf("tree spans %d nodes, want 15", ft.Size())
	}
}

func TestRegraftRootDeadFails(t *testing.T) {
	live := AllAlive(3)
	live.Clear(0)
	if _, err := Regraft(3, 0, func(i cube.NodeID) (cube.NodeID, bool) { return sbt.Parent(3, i, 0) }, live, nil); err == nil {
		t.Error("regraft with dead root accepted")
	}
}

// TestRegraftPropertyRandomDeadLinks is the fuzz-style property test: for
// random fault plans of dead links (no dead nodes), the pruned/regrafted
// tree spans every node still reachable from the source and uses only
// live edges — for both the SBT and BST base trees.
func TestRegraftPropertyRandomDeadLinks(t *testing.T) {
	for seed := int64(0); seed < 40; seed++ {
		rng := rand.New(rand.NewSource(seed))
		n := 3 + int(seed%3) // 3, 4, 5
		maxDead := 1<<uint(n) - 2
		k := 1 + rng.Intn(maxDead)
		plan := RandomDeadLinks(n, k, seed)
		src := cube.NodeID(rng.Intn(1 << uint(n)))
		live := plan.Liveness()
		for name, base := range map[string]ParentFunc{
			"sbt": func(i cube.NodeID) (cube.NodeID, bool) { return sbt.Parent(n, i, src) },
			"bst": func(i cube.NodeID) (cube.NodeID, bool) { return bst.Parent(n, i, src) },
		} {
			ft, err := Regraft(n, src, base, live, plan.LinkDead)
			if err != nil {
				t.Fatalf("seed=%d %s: %v", seed, name, err)
			}
			checkTree(t, ft, n, src, live, plan.LinkDead)
			if len(ft.Unreachable)+ft.Size() != 1<<uint(n) {
				t.Fatalf("seed=%d %s: members %d + unreachable %d != %d",
					seed, name, ft.Size(), len(ft.Unreachable), 1<<uint(n))
			}
		}
	}
}

// TestRegraftPropertyRandomDeadNodes covers the dead-node direction the
// degraded scatter relies on.
func TestRegraftPropertyRandomDeadNodes(t *testing.T) {
	for seed := int64(0); seed < 25; seed++ {
		rng := rand.New(rand.NewSource(seed ^ 0x5ca1ab1e))
		n := 3 + int(seed%3)
		src := cube.NodeID(rng.Intn(1 << uint(n)))
		k := 1 + rng.Intn(1<<uint(n-1))
		plan := RandomDeadNodes(n, k, seed, src)
		live := plan.Liveness()
		ft, err := Regraft(n, src, func(i cube.NodeID) (cube.NodeID, bool) { return bst.Parent(n, i, src) }, live, nil)
		if err != nil {
			t.Fatalf("seed=%d: %v", seed, err)
		}
		checkTree(t, ft, n, src, live, nil)
	}
}
