package sched

import (
	"fmt"
	"math/bits"
	"testing"

	"repro/internal/cube"
	"repro/internal/model"
	"repro/internal/sim"
)

func TestMultiSourcePlanStructure(t *testing.T) {
	for n := 1; n <= 10; n++ {
		p := MultiSourcePlan(n)
		if err := p.Verify(); err != nil {
			t.Fatalf("dim %d: %v", n, err)
		}
		lb := p.LowerBound()
		if p.Steps < lb {
			t.Fatalf("dim %d: %d steps beats the conflict-free lower bound %d", n, p.Steps, lb)
		}
		// The greedy packing must stay near the Jung & Sakho optimum:
		// within height extra slots of the floor (observed: exactly the
		// floor for every n <= 10, but only the bound is contractual).
		if p.Steps > lb+n {
			t.Fatalf("dim %d: greedy used %d slots, lower bound %d", n, p.Steps, lb)
		}
	}
}

func TestMultiSourcePlanCached(t *testing.T) {
	if MultiSourcePlan(6) != MultiSourcePlan(6) {
		t.Fatal("plan not cached per dimension")
	}
}

// unitCfg makes every transfer cost exactly 1 regardless of size, so
// slot structure maps 1:1 onto sim time steps even for personalized
// bundles of different sizes.
func multiUnitCfg(n int) sim.Config {
	return sim.Config{Dim: n, Model: model.AllPorts, Tau: 1, Tc: 0}
}

// TestMultiSourceScheduledConflictFree replays the scheduled all-to-all
// (and all-gather) for ALL 2^d concurrent sources through the sim
// engine's per-link busy model and asserts the exact conflict-free
// signature: every transmission starts at its assigned slot. The greedy
// executor delays a transfer iff its directed link is occupied, so
// start == slot for all N·(N−1) transfers is precisely "no step has two
// transfers on one directed link".
func TestMultiSourceScheduledConflictFree(t *testing.T) {
	for n := 2; n <= 8; n++ {
		p := MultiSourcePlan(n)
		for _, tc := range []struct {
			name string
			xs   []sim.Xmit
		}{
			{"alltoall", p.PersonalizedXmits(1)},
			{"allgather", p.BroadcastXmits(1)},
		} {
			res, err := sim.Run(multiUnitCfg(n), tc.xs)
			if err != nil {
				t.Fatalf("dim %d %s: %v", n, tc.name, err)
			}
			E := len(p.Edges)
			for i, start := range res.Start {
				if want := float64(p.Edges[i%E].Slot); start != want {
					t.Fatalf("dim %d %s: transmission %d (source %d, edge %d) started at %v, slot is %v — link conflict",
						n, tc.name, i, i/E, i%E, start, want)
				}
			}
			if res.Steps != p.Steps {
				t.Fatalf("dim %d %s: makespan %d steps, plan has %d", n, tc.name, res.Steps, p.Steps)
			}
		}
	}
}

// TestMultiSourceNaiveConflicts pins the mechanism the schedule removes:
// the naive level-order launch of the same N trees (what the unscheduled
// collectives do) puts same-dimension edges of different sources onto
// one link in the same step, so the executor must delay some transfers
// past their dependency-ready time. (The greedy executor still recovers
// the link-load-bound makespan by serializing each link's queue — the
// schedule's win is that nothing ever queues: every transfer starts the
// moment its slot opens, which is what matters to real transports where
// colliding sends contend for buffers and wire turns.)
func TestMultiSourceNaiveConflicts(t *testing.T) {
	for n := 4; n <= 8; n++ {
		p := MultiSourcePlan(n)
		lv := p.levels()
		E := len(p.Edges)
		xs := p.NaivePersonalizedXmits(1)
		res, err := sim.Run(multiUnitCfg(n), xs)
		if err != nil {
			t.Fatalf("dim %d: %v", n, err)
		}
		delayed := 0
		for i, start := range res.Start {
			// Dependency-ready time of an edge into a level-l node is
			// l-1 (its parent edge can deliver no earlier than level
			// l-1 even uncontended); starting later means the link was
			// occupied by another source's transfer.
			if start > float64(lv[p.Edges[i%E].To]-1) {
				delayed++
			}
		}
		if delayed == 0 {
			t.Fatalf("dim %d: naive launch had no link conflicts — nothing for the schedule to fix", n)
		}
		t.Logf("dim %d: naive delays %d/%d transfers (%d steps, scheduled %d, lower bound %d)",
			n, delayed, len(xs), res.Steps, p.Steps, p.LowerBound())
	}
}

// TestMultiSourceTranslatedLinksDistinct double-checks the symmetry the
// whole construction rests on, directly on the expanded transmission
// set: within any slot, no directed link carries two transfers.
func TestMultiSourceTranslatedLinksDistinct(t *testing.T) {
	for n := 2; n <= 6; n++ {
		p := MultiSourcePlan(n)
		N := 1 << uint(n)
		type key struct {
			slot int32
			from cube.NodeID
			dim  int
		}
		used := map[key]int{}
		for s := 0; s < N; s++ {
			for _, e := range p.Edges {
				k := key{e.Slot, e.From ^ cube.NodeID(s), bits.TrailingZeros(uint(e.From ^ e.To))}
				used[k]++
				if used[k] > 1 {
					t.Fatalf("dim %d: slot %d link %d->dim%d carries %d transfers",
						n, k.slot, k.from, k.dim, used[k])
				}
			}
		}
	}
}

// Verify checks the structural conflict-freedom invariants: at most one
// canonical edge per dimension per slot (the exact condition for all N
// translated sources to run link-disjoint), every edge strictly after
// its parent, and slot-major order.
func (p *MultiPlan) Verify() error {
	if want := (1 << uint(p.Dim)) - 1; len(p.Edges) != want {
		return fmt.Errorf("sched: plan for dim %d has %d edges, want %d", p.Dim, len(p.Edges), want)
	}
	seen := make(map[int64]int, len(p.Edges))
	prev := int32(0)
	for i, e := range p.Edges {
		if e.Slot < prev {
			return fmt.Errorf("sched: edge %d out of slot order (%d after %d)", i, e.Slot, prev)
		}
		prev = e.Slot
		d := bits.TrailingZeros(uint(e.From ^ e.To))
		key := int64(e.Slot)<<8 | int64(d)
		if j, dup := seen[key]; dup {
			return fmt.Errorf("sched: edges %d and %d both flip dim %d in slot %d (sources %d apart collide)",
				j, i, d, e.Slot, p.Edges[j].From^e.From)
		}
		seen[key] = i
		if e.Parent < 0 {
			if e.From != 0 {
				return fmt.Errorf("sched: edge %d from %d has no parent dependency", i, e.From)
			}
			continue
		}
		pe := p.Edges[e.Parent]
		if pe.To != e.From {
			return fmt.Errorf("sched: edge %d parent delivers %d, not %d", i, pe.To, e.From)
		}
		if pe.Slot >= e.Slot {
			return fmt.Errorf("sched: edge %d in slot %d not after its parent's slot %d", i, e.Slot, pe.Slot)
		}
	}
	return nil
}

// LowerBound is the conflict-free step-count floor: no schedule can
// beat the tree height (store-and-forward) or the heaviest dimension's
// edge count (each slot fits one edge per dimension).
func (p *MultiPlan) LowerBound() int {
	perDim := make([]int, p.Dim)
	height := int32(0)
	depth := make([]int32, 1<<uint(p.Dim))
	for _, e := range p.Edges {
		perDim[bits.TrailingZeros(uint(e.From^e.To))]++
		depth[e.To] = depth[e.From] + 1
		if depth[e.To] > height {
			height = depth[e.To]
		}
	}
	lb := int(height)
	for _, c := range perDim {
		if c > lb {
			lb = c
		}
	}
	return lb
}

// expand emits the full N-source transmission set for the simulator:
// every source s runs the plan's edges XOR-relabeled by s, with prio
// taken per edge (the scheduled slot, or the tree level for the naive
// free-for-all baseline) and the store-and-forward dependency pointing
// at the same source's parent edge.
func (p *MultiPlan) expand(elems func(e MultiEdge) float64, prio func(e MultiEdge) int64) []sim.Xmit {
	N := 1 << uint(p.Dim)
	E := len(p.Edges)
	xs := make([]sim.Xmit, 0, N*E)
	arena := newDepsArena(N * E)
	for s := 0; s < N; s++ {
		base := s * E
		for _, e := range p.Edges {
			var deps []int
			if e.Parent >= 0 {
				deps = arena.put1(base + int(e.Parent))
			}
			xs = append(xs, sim.Xmit{
				From: e.From ^ cube.NodeID(s), To: e.To ^ cube.NodeID(s),
				Elems: elems(e), Prio: prio(e), Deps: deps,
			})
		}
	}
	return xs
}

func slotPrio(e MultiEdge) int64 { return int64(e.Slot) }

// BroadcastXmits is the scheduled N-source all-gather (every source
// broadcasts `elems` down its translated tree) as a simulator schedule:
// priorities are the conflict-free slots. Under unit transfer cost
// (Tau=1, Tc=0) every transmission starts exactly at its slot — the sim
// replay in the tests asserts this, which is the per-link busy model's
// formulation of "no step puts two transfers on one directed link".
func (p *MultiPlan) BroadcastXmits(elems float64) []sim.Xmit {
	return p.expand(func(MultiEdge) float64 { return elems }, slotPrio)
}

// PersonalizedXmits is the scheduled N-source all-to-all: each edge
// carries the personalized bundles for its subtree, m elements per
// destination.
func (p *MultiPlan) PersonalizedXmits(m float64) []sim.Xmit {
	return p.expand(func(e MultiEdge) float64 { return m * float64(e.Sub) }, slotPrio)
}

// NaiveBroadcastXmits and NaivePersonalizedXmits are the unscheduled
// baselines: same trees, same dependencies, but priorities follow tree
// level (send as soon as data arrives), so the N sources' same-dimension
// edges pile onto the same links and the greedy executor must serialize
// them — the contention the plan removes.
func (p *MultiPlan) NaiveBroadcastXmits(elems float64) []sim.Xmit {
	lv := p.levels()
	return p.expand(func(MultiEdge) float64 { return elems },
		func(e MultiEdge) int64 { return int64(lv[e.To]) })
}

func (p *MultiPlan) NaivePersonalizedXmits(m float64) []sim.Xmit {
	lv := p.levels()
	return p.expand(func(e MultiEdge) float64 { return m * float64(e.Sub) },
		func(e MultiEdge) int64 { return int64(lv[e.To]) })
}

// levels returns each canonical node's tree depth (root = 0).
func (p *MultiPlan) levels() []int32 {
	lv := make([]int32, 1<<uint(p.Dim))
	for _, e := range p.Edges {
		lv[e.To] = lv[e.From] + 1
	}
	return lv
}
