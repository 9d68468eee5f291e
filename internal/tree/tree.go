// Package tree provides generic machinery for spanning trees of a Boolean
// cube: construction from parent functions, structural validation,
// traversals, per-subtree statistics, and edge-disjointness checks across
// sets of trees.
//
// Every routing structure in Ho & Johnsson (SBT, the ERSBTs of the MSBT,
// BST, TCBT, Hamiltonian path) is materialized through this package so the
// same validation and scheduling code applies to all of them.
//
// The representation is flat and index-based (no per-node maps or
// pointers): children live in one contiguous buffer addressed by per-node
// offsets, and the preorder sequence, subtree sizes, and breadth-first
// orders are precomputed at construction. Traversal methods therefore
// return shared sub-slices in O(1) — callers must treat them as read-only
// — and schedule emission over a tree is a linear sweep. Trees are
// immutable once built, so one tree may be shared freely across
// goroutines; Translate produces the XOR-translated tree rooted at any
// other source in O(N) without re-validation (see CanonCache).
package tree

import (
	"errors"
	"fmt"
	"sort"

	"repro/internal/cube"
)

// NoParent marks the root in parent arrays.
const NoParent = -1

// Tree is a rooted spanning tree (or subtree) of a cube, stored as a
// parent array plus flat derived structures: a CSR-style children buffer,
// the preorder sequence with per-node positions and subtree sizes, and
// the breadth-first order.
type Tree struct {
	c      *cube.Cube
	root   cube.NodeID
	parent []int32 // parent[i], or NoParent for the root and non-members
	member []bool  // member[i]: node i belongs to this tree
	level  []int32 // distance from root in tree edges; -1 for non-members

	childOff []int32       // children of i are childBuf[childOff[i]:childOff[i+1]]
	childBuf []cube.NodeID // children in increasing port order
	sizeBuf  []cube.NodeID // children in decreasing subtree-size order (port tiebreak)

	pre     []cube.NodeID // members in preorder (children visited in port order)
	preIdx  []int32       // position of i in pre; -1 for non-members
	subSize []int32       // subtree size of i (including i); 0 for non-members

	bfs []cube.NodeID // members level by level, within a level by parent order

	height int
	size   int
}

// ParentFunc gives the parent of node i, with ok == false exactly when i is
// the root. It is only consulted for member nodes.
type ParentFunc func(i cube.NodeID) (parent cube.NodeID, ok bool)

// FromParentFunc builds a spanning tree of c rooted at root from a parent
// function defined on all nodes. It validates that every non-root node's
// parent is adjacent to it and that following parents reaches the root
// without cycles.
func FromParentFunc(c *cube.Cube, root cube.NodeID, pf ParentFunc) (*Tree, error) {
	members := make([]cube.NodeID, c.Nodes())
	for i := range members {
		members[i] = cube.NodeID(i)
	}
	return FromParentFuncSubset(c, root, pf, members)
}

// FromParentFuncSubset builds a tree over just the given member nodes
// (which must include root). Subtrees of the BST, for example, are trees
// over a subset of the cube.
func FromParentFuncSubset(c *cube.Cube, root cube.NodeID, pf ParentFunc, members []cube.NodeID) (*Tree, error) {
	n := c.Nodes()
	t := &Tree{
		c:      c,
		root:   root,
		parent: make([]int32, n),
		member: make([]bool, n),
		level:  make([]int32, n),
	}
	for i := range t.parent {
		t.parent[i] = NoParent
		t.level[i] = -1
	}
	if !c.Contains(root) {
		return nil, fmt.Errorf("tree: root %d not in cube", root)
	}
	rootSeen := false
	for _, m := range members {
		if !c.Contains(m) {
			return nil, fmt.Errorf("tree: member %d not in cube", m)
		}
		if t.member[m] {
			return nil, fmt.Errorf("tree: duplicate member %d", m)
		}
		t.member[m] = true
		if m == root {
			rootSeen = true
		}
	}
	if !rootSeen {
		return nil, fmt.Errorf("tree: root %d not among members", root)
	}
	for _, m := range members {
		if m == root {
			continue
		}
		p, ok := pf(m)
		if !ok {
			return nil, fmt.Errorf("tree: non-root node %d reports no parent", m)
		}
		if !t.member[p] {
			return nil, fmt.Errorf("tree: parent %d of %d is not a member", p, m)
		}
		if !c.Adjacent(m, p) {
			return nil, fmt.Errorf("tree: parent %d of node %d not adjacent", p, m)
		}
		t.parent[m] = int32(p)
	}
	if p, ok := pf(root); ok {
		return nil, fmt.Errorf("tree: root %d reports parent %d", root, p)
	}
	// Assign levels by walking to the root; detect cycles with a path mark.
	state := make([]int8, n) // 0 unvisited, 1 on current path, 2 done
	t.level[root] = 0
	state[root] = 2
	var walk func(i cube.NodeID) error
	walk = func(i cube.NodeID) error {
		if state[i] == 2 {
			return nil
		}
		if state[i] == 1 {
			return fmt.Errorf("tree: cycle through node %d", i)
		}
		state[i] = 1
		p := cube.NodeID(t.parent[i])
		if err := walk(p); err != nil {
			return err
		}
		t.level[i] = t.level[p] + 1
		state[i] = 2
		return nil
	}
	for _, m := range members {
		if err := walk(m); err != nil {
			return nil, err
		}
	}
	t.size = len(members)
	t.buildDerived(members)
	return t, nil
}

// buildDerived fills every flat derived structure (children buffers,
// preorder, subtree sizes, breadth-first orders, height) from the
// validated parent array and levels. Cost: O(N + size·log maxFanout).
func (t *Tree) buildDerived(members []cube.NodeID) {
	n := t.c.Nodes()
	// Children counts -> offsets -> fill, then sort each range by port.
	t.childOff = make([]int32, n+1)
	for _, m := range members {
		if m != t.root {
			t.childOff[t.parent[m]+1]++
		}
		if int(t.level[m]) > t.height {
			t.height = int(t.level[m])
		}
	}
	for i := 0; i < n; i++ {
		t.childOff[i+1] += t.childOff[i]
	}
	t.childBuf = make([]cube.NodeID, t.size-1)
	fill := make([]int32, n)
	for _, m := range members {
		if m == t.root {
			continue
		}
		p := t.parent[m]
		t.childBuf[t.childOff[p]+fill[p]] = m
		fill[p]++
	}
	// Port order == ascending relative address p^child == ascending child
	// XOR parent; insertion sort per range (fanout <= cube dimension).
	for _, m := range members {
		sortByKey(t.childBuf[t.childOff[m]:t.childOff[m+1]], func(c cube.NodeID) int32 {
			return int32(c ^ m)
		})
	}

	// Preorder via explicit stack, children pushed in reverse port order.
	t.pre = make([]cube.NodeID, 0, t.size)
	t.preIdx = make([]int32, n)
	for i := range t.preIdx {
		t.preIdx[i] = -1
	}
	stack := make([]cube.NodeID, 0, t.height+2)
	stack = append(stack, t.root)
	for len(stack) > 0 {
		v := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		t.preIdx[v] = int32(len(t.pre))
		t.pre = append(t.pre, v)
		ch := t.childBuf[t.childOff[v]:t.childOff[v+1]]
		for k := len(ch) - 1; k >= 0; k-- {
			stack = append(stack, ch[k])
		}
	}

	// Subtree sizes: reverse preorder accumulation into the parent.
	t.subSize = make([]int32, n)
	for k := len(t.pre) - 1; k >= 0; k-- {
		v := t.pre[k]
		t.subSize[v]++
		if v != t.root {
			t.subSize[t.parent[v]] += t.subSize[v]
		}
	}

	// Children by decreasing subtree size (the paper's "largest subtree
	// first" transmission rule), ties by port.
	// The sort is stable and the input is already port-ordered, so equal
	// sizes keep the port tiebreak for free.
	t.sizeBuf = append([]cube.NodeID(nil), t.childBuf...)
	for _, m := range members {
		sortByKey(t.sizeBuf[t.childOff[m]:t.childOff[m+1]], func(c cube.NodeID) int32 {
			return -t.subSize[c]
		})
	}

	// Breadth-first order.
	t.bfs = make([]cube.NodeID, 0, t.size)
	t.bfs = append(t.bfs, t.root)
	for k := 0; k < len(t.bfs); k++ {
		v := t.bfs[k]
		t.bfs = append(t.bfs, t.childBuf[t.childOff[v]:t.childOff[v+1]]...)
	}
}

// sortByKey insertion-sorts ids ascending by key(id). Stable; ranges are
// child lists, at most cube-dimension long.
func sortByKey(ids []cube.NodeID, key func(cube.NodeID) int32) {
	for i := 1; i < len(ids); i++ {
		v, kv := ids[i], key(ids[i])
		j := i - 1
		for j >= 0 && key(ids[j]) > kv {
			ids[j+1] = ids[j]
			j--
		}
		ids[j+1] = v
	}
}

// translate returns the tree XOR-translated by `by`: node v of t becomes
// node v XOR by, rooted at Root() XOR by. Every spanning structure of the
// paper is translation-invariant (its parent function depends only on the
// relative address i XOR s), so the tree at an arbitrary source is the
// translate of the canonical tree at source 0 — translate rebuilds all
// flat structures by relabeling in O(N) with no re-validation. Ports are
// preserved by XOR, so child orders, preorder, and both breadth-first
// orders translate position for position.
func translate(t *Tree, by cube.NodeID) *Tree {
	if by == 0 {
		return t
	}
	n := t.c.Nodes()
	out := &Tree{
		c:      t.c,
		root:   t.root ^ by,
		parent: make([]int32, n),
		member: make([]bool, n),
		level:  make([]int32, n),

		childOff: make([]int32, n+1),
		childBuf: make([]cube.NodeID, len(t.childBuf)),
		sizeBuf:  make([]cube.NodeID, len(t.sizeBuf)),

		pre:     make([]cube.NodeID, len(t.pre)),
		preIdx:  make([]int32, n),
		subSize: make([]int32, n),

		bfs: make([]cube.NodeID, len(t.bfs)),

		height: t.height,
		size:   t.size,
	}
	for v := 0; v < n; v++ {
		w := cube.NodeID(v) ^ by
		out.member[w] = t.member[v]
		out.level[w] = t.level[v]
		out.preIdx[w] = t.preIdx[v]
		out.subSize[w] = t.subSize[v]
		if p := t.parent[v]; p == NoParent {
			out.parent[w] = NoParent
		} else {
			out.parent[w] = p ^ int32(by)
		}
	}
	// Child ranges move with their node; within a range the port order is
	// XOR-invariant, so buffers translate element for element once offsets
	// are rebuilt for the relabeled nodes.
	for v := 0; v < n; v++ {
		w := int(cube.NodeID(v) ^ by)
		out.childOff[w+1] = t.childOff[v+1] - t.childOff[v]
	}
	for i := 0; i < n; i++ {
		out.childOff[i+1] += out.childOff[i]
	}
	for v := 0; v < n; v++ {
		w := int(cube.NodeID(v) ^ by)
		src := t.childBuf[t.childOff[v]:t.childOff[v+1]]
		srcSz := t.sizeBuf[t.childOff[v]:t.childOff[v+1]]
		dst := out.childBuf[out.childOff[w]:out.childOff[w+1]]
		dstSz := out.sizeBuf[out.childOff[w]:out.childOff[w+1]]
		for k := range src {
			dst[k] = src[k] ^ by
			dstSz[k] = srcSz[k] ^ by
		}
	}
	for k, v := range t.pre {
		out.pre[k] = v ^ by
	}
	for k, v := range t.bfs {
		out.bfs[k] = v ^ by
	}
	// preIdx positions are structural and already copied above, but the
	// translated pre sequence defines them; keep them consistent for
	// non-members too (-1 copied verbatim).
	return out
}

// Cube returns the underlying cube.
func (t *Tree) Cube() *cube.Cube { return t.c }

// Root returns the root node.
func (t *Tree) Root() cube.NodeID { return t.root }

// Size returns the number of member nodes, including the root.
func (t *Tree) Size() int { return t.size }

// Children returns the children of i in increasing port order. The returned
// slice is shared; callers must not modify it.
func (t *Tree) Children(i cube.NodeID) []cube.NodeID {
	return t.childBuf[t.childOff[i]:t.childOff[i+1]]
}

// ChildrenBySubtreeSize returns the children of i ordered by decreasing
// subtree size (the paper's "largest subtree first" transmission rule),
// ties broken by port. Precomputed; the returned slice is shared and must
// not be modified.
func (t *Tree) ChildrenBySubtreeSize(i cube.NodeID) []cube.NodeID {
	return t.sizeBuf[t.childOff[i]:t.childOff[i+1]]
}

// Level returns the level of i (root is level 0), or -1 for non-members.
func (t *Tree) Level(i cube.NodeID) int { return int(t.level[i]) }

// Height returns the label of the last level.
func (t *Tree) Height() int { return t.height }

// IsLeaf reports whether i is a member with no children.
func (t *Tree) IsLeaf(i cube.NodeID) bool {
	return t.member[i] && t.childOff[i] == t.childOff[i+1]
}

// Fanout returns the out-degree of node i.
func (t *Tree) Fanout(i cube.NodeID) int { return int(t.childOff[i+1] - t.childOff[i]) }

// MaxFanout returns the maximum out-degree over all members, and the
// maximum over nodes at each level (indexed by level).
func (t *Tree) MaxFanout() (max int, perLevel []int) {
	perLevel = make([]int, t.height+1)
	for _, v := range t.pre {
		f := t.Fanout(v)
		if f > max {
			max = f
		}
		l := t.level[v]
		if f > perLevel[l] {
			perLevel[l] = f
		}
	}
	return max, perLevel
}

// LevelCounts returns the number of member nodes at each level.
func (t *Tree) LevelCounts() []int {
	out := make([]int, t.height+1)
	for _, v := range t.pre {
		out[t.level[v]]++
	}
	return out
}

// SubtreeSize returns the number of nodes in the subtree rooted at i
// (including i), or 0 for non-members. O(1): sizes are precomputed.
func (t *Tree) SubtreeSize(i cube.NodeID) int { return int(t.subSize[i]) }

// SubtreeNodes returns the nodes of the subtree rooted at i in preorder:
// i itself, then each child's SubtreeNodes whole, in Children(i) order
// (internal/comm slices subtree bundles at these bounds).
// The returned slice is a shared view of the precomputed preorder; callers
// must not modify it.
func (t *Tree) SubtreeNodes(i cube.NodeID) []cube.NodeID {
	if !t.member[i] {
		return nil
	}
	k := t.preIdx[i]
	return t.pre[k : k+t.subSize[i]]
}

// InSubtree reports whether d lies in the subtree rooted at anc, in O(1)
// via preorder intervals.
func (t *Tree) InSubtree(anc, d cube.NodeID) bool {
	if !t.member[anc] || !t.member[d] {
		return false
	}
	k := t.preIdx[d]
	return k >= t.preIdx[anc] && k < t.preIdx[anc]+t.subSize[anc]
}

// RootSubtreeSizes returns, for each child of the root in port order of the
// root's child list, the size of that child's subtree. In the paper's
// terminology these are the sizes of "the subtrees" (subtrees of the root).
func (t *Tree) RootSubtreeSizes() []int {
	ch := t.Children(t.root)
	out := make([]int, len(ch))
	for k, c := range ch {
		out[k] = int(t.subSize[c])
	}
	return out
}

// NodesAtDistanceInSubtree returns phi(i, j): the number of nodes at tree
// distance j below node i within i's subtree (paper BST property 3).
func (t *Tree) NodesAtDistanceInSubtree(i cube.NodeID, j int) int {
	if !t.member[i] {
		return 0
	}
	// The subtree occupies a contiguous preorder interval; count members
	// at the right absolute level inside it.
	want := t.level[i] + int32(j)
	count := 0
	for _, v := range t.SubtreeNodes(i) {
		if t.level[v] == want {
			count++
		}
	}
	return count
}

// Edges returns the tree's directed edges, oriented away from the root
// (parent -> child), in preorder.
func (t *Tree) Edges() []cube.Edge {
	out := make([]cube.Edge, 0, t.size-1)
	for _, v := range t.pre {
		for _, ch := range t.Children(v) {
			out = append(out, cube.Edge{From: v, To: ch})
		}
	}
	return out
}

// BreadthFirst returns all members level by level, within a level in the
// order their parents appear. The returned slice is shared; callers must
// not modify it.
func (t *Tree) BreadthFirst() []cube.NodeID { return t.bfs }

// VerifyChildrenFunc checks that a children function is consistent with
// this tree's parent structure: children(i) must equal the stored child
// list as a set, for every member.
func (t *Tree) VerifyChildrenFunc(children func(i cube.NodeID) []cube.NodeID) error {
	for i := 0; i < t.c.Nodes(); i++ {
		id := cube.NodeID(i)
		if !t.member[id] {
			continue
		}
		got := children(id)
		want := t.Children(id)
		if len(got) != len(want) {
			return fmt.Errorf("tree: node %d: children func gives %d children, tree has %d", id, len(got), len(want))
		}
		set := map[cube.NodeID]bool{}
		for _, ch := range got {
			set[ch] = true
		}
		for _, ch := range want {
			if !set[ch] {
				return fmt.Errorf("tree: node %d: child %d missing from children func", id, ch)
			}
		}
	}
	return nil
}

// errNotEdgeDisjoint is reported by EdgeDisjoint when two trees share a
// directed edge.
var errNotEdgeDisjoint = errors.New("tree: trees share a directed edge")

// EdgeDisjoint checks that the directed edge sets of the given trees are
// pairwise disjoint. The MSBT construction requires its n ERSBTs to be
// edge-disjoint; that property is what lets all n trees stream packets
// concurrently without link contention.
func EdgeDisjoint(trees ...*Tree) error {
	seen := map[cube.Edge]int{}
	for k, t := range trees {
		for _, e := range t.Edges() {
			if prev, dup := seen[e]; dup {
				return fmt.Errorf("%w: edge %v in trees %d and %d", errNotEdgeDisjoint, e, prev, k)
			}
			seen[e] = k
		}
	}
	return nil
}

// Isomorphic reports whether the subtrees rooted at a (in ta) and b (in tb)
// are isomorphic as rooted trees, ignoring node labels. Used to verify
// paper BST property 4 (all subtrees isomorphic when log N is prime,
// excluding the all-ones node).
func Isomorphic(ta *Tree, a cube.NodeID, tb *Tree, b cube.NodeID) bool {
	return canon(ta, a) == canon(tb, b)
}

// canon computes a canonical string for the rooted subtree at v: sorted
// concatenation of children's canonical forms in parentheses (AHU
// encoding).
func canon(t *Tree, v cube.NodeID) string {
	ch := t.Children(v)
	if len(ch) == 0 {
		return "()"
	}
	parts := make([]string, len(ch))
	for i, c := range ch {
		parts[i] = canon(t, c)
	}
	sort.Strings(parts)
	out := "("
	for _, p := range parts {
		out += p
	}
	return out + ")"
}
