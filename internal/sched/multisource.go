package sched

// Contention-aware scheduling for N concurrent XOR-translated trees —
// the all-node collectives (all-gather, all-to-all personalized), where
// every rank sources a balanced spanning tree at once and a naive
// launch lets the 2^d trees fight for links.
//
// The whole construction rides on the XOR-translation symmetry of the
// paper's spanning structures (tree.CanonCache): source s's tree is the
// canonical source-0 tree relabeled by XOR with s, so a canonical edge
// u→v appears in source s's tree as the physical link (u^s)→(v^s).
// Two facts follow immediately:
//
//   - The N translated copies of ONE canonical edge occupy N distinct
//     physical links (s ↦ u^s is a bijection), so a canonical edge can
//     run for all N sources simultaneously without any conflict.
//
//   - Two DIFFERENT canonical edges u1→v1, u2→v2 collide on a physical
//     link for some pair of sources exactly when they flip the same
//     cube dimension (u1^v1 == u2^v2): sources s and s^u1^u2 then map
//     them onto the same link. Edges of different dimensions can never
//     collide (each directed link flips exactly one dimension).
//
// A slot assignment is therefore link-conflict-free for all N sources
// at once if and only if each slot carries at most one canonical edge
// per dimension. MultiSourcePlan packs the canonical tree's edges into
// such slots greedily in breadth-first order (each edge takes the first
// dimension-free slot after its parent edge's slot, so store-and-
// forward dependencies are satisfied by construction). The slot count
// is lower-bounded by max(height, max edges per dimension) — for the
// BST that is ≈(N−1)/n, the Jung & Sakho all-to-all broadcast target —
// and the greedy packing lands within a few slots of it (asserted in
// the tests). Every source uses the SAME table with its own XOR
// relabeling, so the plan is computed once per dimension and cached
// process-wide.
import (
	"math/bits"
	"sort"
	"sync"

	"repro/internal/bst"
	"repro/internal/cube"
)

// MultiEdge is one canonical-tree edge with its assigned slot. Source
// s executes it as the physical transfer (From^s)→(To^s); rank r is
// its sender for exactly one source, s = From^r.
type MultiEdge struct {
	From, To cube.NodeID
	// Slot is the conflict-free step: within a slot no two edges flip
	// the same cube dimension, so all N translated copies of the
	// slot's edges run on disjoint links.
	Slot int32
	// Child is the index of To within the canonical tree's port-ordered
	// Children(From). Ports are XOR-invariant under translation, so the
	// same index addresses the translated child list of every source —
	// and with it that child's run of the source's all-to-all bundle
	// (comm.rootRoute), with no per-rank tables.
	Child int32
	// Sub is the canonical subtree size under To (translation-
	// invariant): the number of destinations a personalized bundle on
	// this edge carries.
	Sub int32
	// Parent is the index (in MultiPlan.Edges) of the edge delivering
	// From, -1 for root-out edges — the store-and-forward dependency.
	Parent int32
}

// MultiPlan is the conflict-free schedule table for N concurrent
// XOR-translated BSTs, shared by every source via relabeling.
type MultiPlan struct {
	Dim   int
	Steps int         // number of slots; max Slot + 1
	Edges []MultiEdge // slot-major (comm walks this order directly)
}

var multiPlans sync.Map // dim -> *MultiPlan

// MultiSourcePlan returns the (cached) conflict-free slot table for
// the n-cube's canonical balanced spanning tree.
func MultiSourcePlan(n int) *MultiPlan {
	if p, ok := multiPlans.Load(n); ok {
		return p.(*MultiPlan)
	}
	p := buildMultiSourcePlan(n)
	actual, _ := multiPlans.LoadOrStore(n, p)
	return actual.(*MultiPlan)
}

func buildMultiSourcePlan(n int) *MultiPlan {
	t := bst.Cached(n, 0)
	N := t.Size()
	p := &MultiPlan{Dim: n, Edges: make([]MultiEdge, 0, N-1)}
	// dimUsed[d] marks the slots already carrying a dim-d edge;
	// edgeInto[v] is the index of the edge delivering v.
	dimUsed := make([][]bool, n)
	edgeInto := make([]int32, N)
	slotInto := make([]int32, N)
	for i := range edgeInto {
		edgeInto[i] = -1
		slotInto[i] = -1
	}
	maxSlot := int32(-1)
	for _, u := range t.BreadthFirst() {
		for ci, v := range t.Children(u) {
			d := bits.TrailingZeros(uint(u ^ v))
			s := slotInto[u] + 1
			for int(s) < len(dimUsed[d]) && dimUsed[d][s] {
				s++
			}
			for int(s) >= len(dimUsed[d]) {
				dimUsed[d] = append(dimUsed[d], false)
			}
			dimUsed[d][s] = true
			p.Edges = append(p.Edges, MultiEdge{
				From: u, To: v,
				Slot: s, Child: int32(ci), Sub: int32(t.SubtreeSize(v)),
				Parent: edgeInto[u],
			})
			edgeInto[v] = int32(len(p.Edges) - 1)
			slotInto[v] = s
			if s > maxSlot {
				maxSlot = s
			}
		}
	}
	p.Steps = int(maxSlot) + 1
	// Reorder slot-major so comm can walk Edges directly as its send
	// program; the BFS emission order is the stable tiebreak within a
	// slot. Parent indices are remapped through the permutation.
	perm := make([]int32, len(p.Edges))
	for i := range perm {
		perm[i] = int32(i)
	}
	sort.SliceStable(perm, func(a, b int) bool {
		return p.Edges[perm[a]].Slot < p.Edges[perm[b]].Slot
	})
	inv := make([]int32, len(perm))
	for newIdx, oldIdx := range perm {
		inv[oldIdx] = int32(newIdx)
	}
	sorted := make([]MultiEdge, len(p.Edges))
	for newIdx, oldIdx := range perm {
		e := p.Edges[oldIdx]
		if e.Parent >= 0 {
			e.Parent = inv[e.Parent]
		}
		sorted[newIdx] = e
	}
	p.Edges = sorted
	return p
}
