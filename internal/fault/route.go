// Degraded-mode routing: pruning and regrafting the paper's spanning
// trees around failed components, so that personalized communication
// degrades gracefully to the live subcube instead of deadlocking.
package fault

import (
	"fmt"
	"sort"

	"repro/internal/cube"
	"repro/internal/tree"
)

// ParentFunc gives a base tree's parent for node i (ok == false at the
// root) — the signature shared by sbt.Parent and bst.Parent closures.
type ParentFunc func(i cube.NodeID) (cube.NodeID, bool)

// Tree is a pruned/regrafted spanning tree of the live subcube: every
// node reachable from the root through live nodes and live links appears
// exactly once, and every tree edge is a live cube link. Where the base
// tree's edge survives, it is kept; where it died, the node is regrafted
// to an alternate live parent.
type Tree struct {
	Dim  int
	Root cube.NodeID

	parent   []int32 // tree.NoParent for root and non-members
	member   []bool
	children [][]cube.NodeID
	order    []cube.NodeID // members in BFS (top-down) order

	// Unreachable lists live nodes cut off from the root by the faults
	// (in increasing order). They cannot be served by any routing.
	Unreachable []cube.NodeID
}

// Regraft builds the degraded-mode spanning tree of the live subcube for
// a base tree (its ParentFunc) rooted at root. Dead nodes are pruned;
// live nodes whose base parent or parent link died are regrafted
// greedily: among the live neighbors one hop closer to the root (in live
// subgraph distance), the base parent is preferred, then the
// lowest-dimension neighbor. linkDead may be nil when only node faults
// matter.
//
// Choosing parents strictly by live-subgraph BFS level makes the result
// acyclic and spanning by construction, and on a fault-free cube — where
// BFS distance equals Hamming distance and every base parent is one bit
// closer to the root — it reproduces the base tree exactly.
func Regraft(n int, root cube.NodeID, base ParentFunc, live Liveness, linkDead func(a, b cube.NodeID) bool) (*Tree, error) {
	if live.Dim() != n {
		return nil, fmt.Errorf("fault: regraft of %d-cube with %d-cube liveness", n, live.Dim())
	}
	if !live.Alive(root) {
		return nil, fmt.Errorf("fault: regraft root %d is dead", root)
	}
	c := cube.New(n)
	N := c.Nodes()
	t := &Tree{
		Dim:      n,
		Root:     root,
		parent:   make([]int32, N),
		member:   make([]bool, N),
		children: make([][]cube.NodeID, N),
	}
	for i := range t.parent {
		t.parent[i] = tree.NoParent
	}
	edgeAlive := func(a, b cube.NodeID) bool {
		return linkDead == nil || (!linkDead(a, b) && !linkDead(b, a))
	}

	// BFS over the live subgraph to find each node's level.
	dist := make([]int32, N)
	for i := range dist {
		dist[i] = -1
	}
	dist[root] = 0
	queue := []cube.NodeID{root}
	for len(queue) > 0 {
		v := queue[0]
		queue = queue[1:]
		for j := 0; j < n; j++ {
			w := c.Neighbor(v, j)
			if dist[w] >= 0 || !live.Alive(w) || !edgeAlive(v, w) {
				continue
			}
			dist[w] = dist[v] + 1
			queue = append(queue, w)
		}
	}

	// Assign parents: prefer the surviving base edge, else the greedy
	// lowest-dimension live neighbor one BFS level up.
	t.member[root] = true
	t.order = append(t.order, root)
	byLevel := make([]cube.NodeID, 0, N)
	for i := 0; i < N; i++ {
		id := cube.NodeID(i)
		if id != root && dist[id] > 0 {
			byLevel = append(byLevel, id)
		}
	}
	sort.Slice(byLevel, func(a, b int) bool {
		if dist[byLevel[a]] != dist[byLevel[b]] {
			return dist[byLevel[a]] < dist[byLevel[b]]
		}
		return byLevel[a] < byLevel[b]
	})
	for _, id := range byLevel {
		chosen := cube.NodeID(0)
		found := false
		if bp, ok := base(id); ok && live.Alive(bp) && dist[bp] == dist[id]-1 && edgeAlive(id, bp) {
			chosen, found = bp, true
		}
		for j := 0; j < n && !found; j++ {
			w := c.Neighbor(id, j)
			if live.Alive(w) && dist[w] == dist[id]-1 && edgeAlive(id, w) {
				chosen, found = w, true
			}
		}
		if !found {
			// Impossible: dist[id] > 0 means BFS reached id through such
			// a neighbor.
			return nil, fmt.Errorf("fault: regraft found no parent for reachable node %d", id)
		}
		t.parent[id] = int32(chosen)
		t.children[chosen] = append(t.children[chosen], id)
		t.member[id] = true
		t.order = append(t.order, id)
	}
	for i := 0; i < N; i++ {
		id := cube.NodeID(i)
		if live.Alive(id) && !t.member[id] {
			t.Unreachable = append(t.Unreachable, id)
		}
	}
	return t, nil
}

// Contains reports whether node id belongs to the regrafted tree.
func (t *Tree) Contains(id cube.NodeID) bool { return t.member[id] }

// Parent returns the tree parent of id, with ok == false at the root or
// for non-members.
func (t *Tree) Parent(id cube.NodeID) (cube.NodeID, bool) {
	if !t.member[id] || id == t.Root {
		return 0, false
	}
	return cube.NodeID(t.parent[id]), true
}

// Children returns the tree children of id (nil for non-members/leaves).
func (t *Tree) Children(id cube.NodeID) []cube.NodeID { return t.children[id] }

// Size returns the number of member nodes.
func (t *Tree) Size() int { return len(t.order) }

// Subtree returns the members of the subtree rooted at v (inclusive), in
// depth-first order — the bundle addresses for a degraded scatter.
func (t *Tree) Subtree(v cube.NodeID) []cube.NodeID {
	out := []cube.NodeID{v}
	for _, ch := range t.children[v] {
		out = append(out, t.Subtree(ch)...)
	}
	return out
}
