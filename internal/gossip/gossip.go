// Package gossip builds timed schedules for all-to-all personalized
// communication, the matrix-transposition pattern the paper sketches in
// §1: personalized data from every node to every other node, executed as
// N concurrent spanning-tree scatters, one tree rooted at each node.
//
// The paper notes that lower-bound algorithms for these operations are
// attained "by using N BST's rooted at each node concurrently" (citing
// its companion report [8]). The schedules here let the simulator measure
// exactly why balance matters at this scale. By vertex transitivity the
// AGGREGATE volume per link is family-independent; what the BSTs buy is
// temporal balance: each SBT serializes half of its root's data through
// one link (makespan ~ N), while each BST pushes only ~N/log N through
// any link, so the N concurrent BSTs finish in about 2N/log N — a
// log N / 2 speedup visible directly in the makespan.
package gossip

import (
	"fmt"

	"repro/internal/bst"
	"repro/internal/cube"
	"repro/internal/model"
	"repro/internal/sbt"
	"repro/internal/sim"
	"repro/internal/tree"
)

// family selects the spanning-tree family used for the N concurrent trees.
type family int

const (
	sbts family = iota // binomial trees (unbalanced subtrees)
	bsts               // balanced spanning trees
)

func (f family) String() string {
	if f == sbts {
		return "sbt"
	}
	return "bst"
}

// treeAt materializes the family's tree rooted at r.
func treeAt(f family, n int, r cube.NodeID) (*tree.Tree, error) {
	switch f {
	case sbts:
		return sbt.Cached(n, r), nil
	case bsts:
		return bst.Cached(n, r), nil
	}
	return nil, fmt.Errorf("gossip: unknown family %d", f)
}

// allToAll builds the schedule for all-to-all personalized communication
// with m elements per (source, destination) pair over N concurrent trees:
// in tree(r), the edge into node v carries the data for v's whole subtree,
// so volumes shrink toward the leaves exactly as in the single-source
// scatter.
func allToAll(f family, n int, m float64) ([]sim.Xmit, error) {
	N := 1 << uint(n)
	var xs []sim.Xmit
	for r := 0; r < N; r++ {
		t, err := treeAt(f, n, cube.NodeID(r))
		if err != nil {
			return nil, err
		}
		last := map[cube.NodeID]int{}
		for _, u := range t.BreadthFirst() {
			for _, c := range t.Children(u) {
				var deps []int
				if in, ok := last[u]; ok {
					deps = []int{in}
				}
				xs = append(xs, sim.Xmit{
					From: u, To: c, Elems: m * float64(t.SubtreeSize(c)),
					Prio: int64(t.Level(c)),
					Deps: deps,
				})
				last[c] = len(xs) - 1
			}
		}
	}
	return xs, nil
}

// measure runs the schedule under the given machine configuration and
// returns the makespan together with the busiest-link load — the quantity
// the BSTs' balance improves.
func measure(cfg sim.Config, xs []sim.Xmit) (makespan, busiest float64, err error) {
	res, err := sim.Run(cfg, xs)
	if err != nil {
		return 0, 0, err
	}
	_, busy := res.MaxLinkBusy()
	return res.Makespan, busy, nil
}

// CompareFamilies measures the all-to-all personalized schedule for both
// families under all-port communication and returns the makespans;
// balanced trees should cut completion time by about log N / 2.
func CompareFamilies(n int, m float64) (sbtTime, bstTime float64, err error) {
	cfg := sim.Config{Dim: n, Model: model.AllPorts, Tau: 0.001, Tc: 1}
	for _, f := range []family{sbts, bsts} {
		xs, err := allToAll(f, n, m)
		if err != nil {
			return 0, 0, err
		}
		mk, _, err := measure(cfg, xs)
		if err != nil {
			return 0, 0, err
		}
		if f == sbts {
			sbtTime = mk
		} else {
			bstTime = mk
		}
	}
	return sbtTime, bstTime, nil
}
