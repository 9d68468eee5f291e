// Package sched turns routing structures into executable transmission
// schedules for the simulator: pipelined and port-oriented tree
// broadcasts, the MSBT broadcast driven by the paper's edge-label function
// f, and tree-based personalized communication (scatter) with the paper's
// destination orderings (descending relative address, depth-first,
// reversed breadth-first) and root interleavings (port-oriented or cyclic
// round-robin across subtrees).
//
// A schedule is a []sim.Xmit: transmissions with explicit store-and-
// forward dependencies plus global priorities that encode the intended
// algorithmic order. The simulator's greedy executor then realizes the
// schedule under any port model.
package sched

import (
	"fmt"
	"sort"

	"repro/internal/cube"
	"repro/internal/msbt"
	"repro/internal/sim"
	"repro/internal/tree"
)

// lastIndex tracks, per (node, packet), the index of the transmission
// delivering that packet to that node — the store-and-forward dependency
// of every onward copy. Flat [node*packets + p] indexing, -1 for "node
// holds the packet initially" (the source). Schedule sizes stay well
// under 2^31 transmissions, so int32 halves the table.
type lastIndex []int32

func newLastIndex(nodes, packets int) lastIndex {
	l := make(lastIndex, nodes*packets)
	for i := range l {
		l[i] = -1
	}
	return l
}

func (l lastIndex) reset() {
	for i := range l {
		l[i] = -1
	}
}

// depsArena hands out 1-element dependency slices from one preallocated
// buffer so broadcast emission does a single allocation for all Deps.
// The capacity must cover every Put: sub-slices alias the buffer, so a
// growth reallocation would orphan previously returned slices.
type depsArena []int

func newDepsArena(capacity int) depsArena { return make(depsArena, 0, capacity) }

func (a *depsArena) put1(dep int) []int {
	*a = append(*a, dep)
	return (*a)[len(*a)-1:]
}

// BroadcastPipelined builds the packet-oriented broadcast of `packets`
// packets of `elems` elements each down tree t: every node forwards each
// packet to all its children (largest subtree first) as soon as the packet
// arrives. With all-port communication this attains ceil(M/B) + height - 1
// routing steps on the SBT and TCBT.
//
// Emission is a linear sweep over the tree's precomputed breadth-first
// order with exact preallocation: one slice for the transmissions, one
// arena for all dependency lists, one flat last-delivery table.
func BroadcastPipelined(t *tree.Tree, packets int, elems float64) []sim.Xmit {
	count := (t.Size() - 1) * packets
	xs := make([]sim.Xmit, 0, count)
	arena := newDepsArena(count)
	last := newLastIndex(t.Cube().Nodes(), packets)
	maxFan, _ := t.MaxFanout()
	for _, u := range t.BreadthFirst() {
		ch := t.ChildrenBySubtreeSize(u)
		base := int(u) * packets
		for p := 0; p < packets; p++ {
			for rank, c := range ch {
				var deps []int
				if in := last[base+p]; in >= 0 {
					deps = arena.put1(int(in))
				}
				xs = append(xs, sim.Xmit{
					From: u, To: c, Elems: elems,
					Prio: int64(p*(maxFan+1) + rank),
					Deps: deps,
				})
				last[int(c)*packets+p] = int32(len(xs) - 1)
			}
		}
	}
	return xs
}

// BroadcastPortOriented builds the port-oriented broadcast: every node
// sends ALL packets to its first child (largest subtree) before sending
// anything to the next child. On the SBT with one-port communication this
// is the paper's recursive-halving broadcast with complexity
// ceil(M/B) * log N routing steps.
func BroadcastPortOriented(t *tree.Tree, packets int, elems float64) []sim.Xmit {
	count := (t.Size() - 1) * packets
	xs := make([]sim.Xmit, 0, count)
	arena := newDepsArena(count)
	last := newLastIndex(t.Cube().Nodes(), packets)
	for _, u := range t.BreadthFirst() {
		ch := t.ChildrenBySubtreeSize(u)
		base := int(u) * packets
		for rank, c := range ch {
			for p := 0; p < packets; p++ {
				var deps []int
				if in := last[base+p]; in >= 0 {
					deps = arena.put1(int(in))
				}
				xs = append(xs, sim.Xmit{
					From: u, To: c, Elems: elems,
					Prio: int64(rank*packets + p),
					Deps: deps,
				})
				last[int(c)*packets+p] = int32(len(xs) - 1)
			}
		}
	}
	return xs
}

// BroadcastMSBT builds the MSBT broadcast of Ho & Johnsson §3.3.2 with
// source s on the n-cube: the data is split into n streams, stream j
// flowing down the j-th ERSBT, with every edge's cycle assignment given by
// the label function f: the edge into node i of tree j carries packet p of
// its stream during cycle f(i,j) + p*n. The n ERSBTs being edge-disjoint,
// all streams progress concurrently; under one-port full-duplex
// communication the whole broadcast of ceil(M/B) packets finishes in
// ceil(M/B) + log N routing steps.
func BroadcastMSBT(n int, s cube.NodeID, packetsPerTree int, elems float64) ([]sim.Xmit, error) {
	trees := msbt.CachedTrees(n, s)
	N := 1 << uint(n)
	count := n * (N - 1) * packetsPerTree
	xs := make([]sim.Xmit, 0, count)
	arena := newDepsArena(count)
	last := newLastIndex(N, packetsPerTree)
	for j, t := range trees {
		if j > 0 {
			last.reset()
		}
		for _, u := range t.BreadthFirst() {
			base := int(u) * packetsPerTree
			for _, c := range t.Children(u) {
				label, ok := msbt.Label(n, j, c, s)
				if !ok {
					return nil, fmt.Errorf("sched: missing label for node %d tree %d", c, j)
				}
				for p := 0; p < packetsPerTree; p++ {
					var deps []int
					if in := last[base+p]; in >= 0 {
						deps = arena.put1(int(in))
					}
					xs = append(xs, sim.Xmit{
						From: u, To: c, Elems: elems,
						Prio: int64(label + p*n),
						Deps: deps,
					})
					last[int(c)*packetsPerTree+p] = int32(len(xs) - 1)
				}
			}
		}
	}
	return xs, nil
}

// Order selects the destination ordering within each root subtree for
// personalized communication.
type Order int

const (
	// OrderDescending processes destinations by descending relative
	// address — the iPSC SBT implementation of §5.2, whose port usage at
	// the root follows the binary-reflected Gray code transition sequence.
	OrderDescending Order = iota
	// OrderDF is depth-first (preorder) within the subtree, the
	// table-efficient order of §5.2.
	OrderDF
	// OrderRBF is reversed breadth-first: deepest level first, so the most
	// remote data leaves the root earliest (required for the level-by-level
	// lower-bound argument of Lemma 4.2).
	OrderRBF
)

func (o Order) String() string {
	switch o {
	case OrderDescending:
		return "descending"
	case OrderDF:
		return "depth-first"
	case OrderRBF:
		return "reversed-bfs"
	}
	return fmt.Sprintf("Order(%d)", int(o))
}

// Interleave selects how the root alternates between its subtrees.
type Interleave int

const (
	// PortOriented finishes one subtree's packets before the next subtree
	// (best for the SBT with large packets).
	PortOriented Interleave = iota
	// RoundRobin cycles through the subtrees packet by packet (the BST
	// routing: each subtree receives a packet once every log N cycles).
	RoundRobin
)

func (il Interleave) String() string {
	if il == PortOriented {
		return "port-oriented"
	}
	return "round-robin"
}

// scatterTree builds one-to-all personalized communication on tree t: the
// root owns M elements for every other node and sends each node's data
// along its tree path, merging data for up to floor(B/M) destinations into
// one packet (B >= M) or splitting each destination's data into
// ceil(M/B) packets (B < M). Returns the schedule and the number of
// packets the root emits.
func scatterTree(t *tree.Tree, m, b float64, order Order, il Interleave) ([]sim.Xmit, error) {
	if m <= 0 || b <= 0 {
		return nil, fmt.Errorf("sched: nonpositive M or B")
	}
	root := t.Root()
	subRoots := t.ChildrenBySubtreeSize(root)

	// Destination groups per subtree, in transmission order.
	groups := make([][][]cube.NodeID, len(subRoots))
	for k, sr := range subRoots {
		dests := orderedDests(t, sr, order)
		groups[k] = groupDests(dests, m, b)
	}

	var xs []sim.Xmit
	prio := int64(0)
	// emit recursively forwards a group down the tree.
	var emit func(u cube.NodeID, group []cube.NodeID, dep int)
	emit = func(u cube.NodeID, group []cube.NodeID, dep int) {
		// Partition the group among u's children subtrees.
		for _, c := range t.ChildrenBySubtreeSize(u) {
			var sub []cube.NodeID
			for _, d := range group {
				if t.InSubtree(c, d) {
					sub = append(sub, d)
				}
			}
			if len(sub) == 0 {
				continue
			}
			var deps []int
			if dep >= 0 {
				deps = []int{dep}
			}
			// Forward the group's data; when B < M this takes several
			// packets, each bounded by B.
			total := m * float64(len(sub))
			for total > 0 {
				e := total
				if e > b {
					e = b
				}
				xs = append(xs, sim.Xmit{From: u, To: c, Elems: e, Prio: prio, Deps: deps})
				prio++
				total -= e
			}
			emit(c, sub, len(xs)-1)
		}
	}

	switch il {
	case PortOriented:
		for k, sr := range subRoots {
			for _, g := range groups[k] {
				sendRoot(t, &xs, &prio, root, sr, g, m, b, emit)
			}
		}
	case RoundRobin:
		for round := 0; ; round++ {
			any := false
			for k, sr := range subRoots {
				if round < len(groups[k]) {
					any = true
					sendRoot(t, &xs, &prio, root, sr, groups[k][round], m, b, emit)
				}
			}
			if !any {
				break
			}
		}
	default:
		return nil, fmt.Errorf("sched: unknown interleave %v", il)
	}
	return xs, nil
}

// sendRoot emits the root->subtree packet(s) for one destination group and
// recurses into the subtree. When B < M a single destination needs
// ceil(M/B) packets; the forwarding chain depends on the last of them.
func sendRoot(t *tree.Tree, xs *[]sim.Xmit, prio *int64, root, sr cube.NodeID,
	group []cube.NodeID, m, b float64,
	emit func(u cube.NodeID, group []cube.NodeID, dep int)) {

	total := m * float64(len(group))
	for total > 0 {
		e := total
		if e > b {
			e = b
		}
		*xs = append(*xs, sim.Xmit{From: root, To: sr, Elems: e, Prio: *prio})
		*prio++
		total -= e
	}
	dep := len(*xs) - 1
	var onward []cube.NodeID
	for _, d := range group {
		if d != sr {
			onward = append(onward, d)
		}
	}
	if len(onward) > 0 {
		emit(sr, onward, dep)
	}
}

// orderedDests returns the nodes of the subtree rooted at sr in the given
// transmission order.
func orderedDests(t *tree.Tree, sr cube.NodeID, order Order) []cube.NodeID {
	nodes := t.SubtreeNodes(sr) // preorder
	switch order {
	case OrderDF:
		return nodes
	case OrderRBF:
		byLevel := map[int][]cube.NodeID{}
		maxL := 0
		for _, v := range nodes {
			l := t.Level(v)
			byLevel[l] = append(byLevel[l], v)
			if l > maxL {
				maxL = l
			}
		}
		out := make([]cube.NodeID, 0, len(nodes))
		for l := maxL; l >= t.Level(sr); l-- {
			out = append(out, byLevel[l]...)
		}
		return out
	default: // OrderDescending: by descending relative address
		out := append([]cube.NodeID(nil), nodes...)
		rootID := t.Root()
		sort.Slice(out, func(a, b int) bool {
			return out[a]^rootID > out[b]^rootID
		})
		return out
	}
}

// groupDests chunks an ordered destination list into groups whose data
// fits one packet: floor(B/M) destinations per group (at least 1).
func groupDests(dests []cube.NodeID, m, b float64) [][]cube.NodeID {
	per := int(b / m)
	if per < 1 {
		per = 1
	}
	var out [][]cube.NodeID
	for len(dests) > 0 {
		k := per
		if k > len(dests) {
			k = len(dests)
		}
		out = append(out, dests[:k])
		dests = dests[k:]
	}
	return out
}

// gatherTree builds the reverse of scatterTree: every node owns M elements
// destined for the root; data flows up the tree, merged per packet
// capacity. It is the paper's "collection of data to a single node"
// (reduction without combining).
func gatherTree(t *tree.Tree, m, b float64) ([]sim.Xmit, error) {
	if m <= 0 || b <= 0 {
		return nil, fmt.Errorf("sched: nonpositive M or B")
	}
	// Post-order: children's uploads complete before the parent uploads
	// their data onward. upIdx[v] = indices of transmissions arriving at v
	// from its subtree.
	count := 0
	for _, v := range t.ReversedBreadthFirst() {
		if v != t.Root() {
			total := m * float64(t.SubtreeSize(v))
			count += int((total + b - 1) / b)
		}
	}
	xs := make([]sim.Xmit, 0, count)
	upIdx := make([][]int, t.Cube().Nodes())
	prio := int64(0)
	post := t.ReversedBreadthFirst() // deepest first: children before parents
	for _, v := range post {
		if v == t.Root() {
			continue
		}
		p, _ := t.Parent(v)
		total := m * float64(t.SubtreeSize(v))
		deps := upIdx[v]
		for total > 0 {
			e := total
			if e > b {
				e = b
			}
			xs = append(xs, sim.Xmit{From: v, To: p, Elems: e, Prio: prio, Deps: deps})
			upIdx[p] = append(upIdx[p], len(xs)-1)
			prio++
			total -= e
		}
	}
	return xs, nil
}

// reduceTree builds a reduction (reverse broadcast): each node sends one
// B-element partial result to its parent after receiving all children's
// partials — the reverse operation of §1 (inner products, parallel
// prefix). `elems` is the size of a partial result (it does not grow
// upward: partials combine).
func reduceTree(t *tree.Tree, elems float64) []sim.Xmit {
	xs := make([]sim.Xmit, 0, t.Size()-1)
	upIdx := make([][]int, t.Cube().Nodes())
	prio := int64(0)
	for _, v := range t.ReversedBreadthFirst() {
		if v == t.Root() {
			continue
		}
		p, _ := t.Parent(v)
		xs = append(xs, sim.Xmit{From: v, To: p, Elems: elems, Prio: prio, Deps: upIdx[v]})
		prio++
		upIdx[p] = append(upIdx[p], len(xs)-1)
	}
	return xs
}
