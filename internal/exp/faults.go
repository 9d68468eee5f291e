package exp

import (
	"fmt"
	"math"

	"repro/internal/bst"
	"repro/internal/cube"
	"repro/internal/fault"
	"repro/internal/model"
	"repro/internal/msbt"
	"repro/internal/sbt"
	"repro/internal/sched"
	"repro/internal/sim"
)

// DegradationRow is one point of the fault-degradation experiment: a
// broadcast algorithm under a given number of random dead links.
type DegradationRow struct {
	Faults int    // dead links in the plan
	Alg    string // sbt, bst, msbt (chunked), msbt-redundant
	// Makespan is the simulated completion time of the transmissions that
	// still deliver (0 when nothing survives).
	Makespan float64
	// Delivered is the fraction of the N nodes that still receive the
	// complete, uncorrupted payload, derived from tree-path liveness: the
	// single-tree broadcasts need their one root path alive, the chunked
	// MSBT needs all n ERSBT paths (every chunk), and the redundant MSBT
	// needs any one of the n edge-disjoint paths.
	Delivered float64
}

// Degradation measures broadcast degradation on the n-cube: for each
// fault count k it draws k random structural faults (deterministically
// from seed) and reports makespan and delivered-node fraction for the
// SBT and BST broadcasts, the chunked MSBT, and the redundant MSBT that
// sends the full payload down every tree — the paper's edge-disjointness
// turned into n-1 link-fault tolerance at an n-fold bandwidth cost.
// Kind selects the fault population: "links" kills random undirected
// links, "nodes" kills random nodes (never the source).
func Degradation(n int, faultCounts []int, seed int64, m, b float64, kind string) ([]DegradationRow, error) {
	src := cube.NodeID(0)
	if kind != "links" && kind != "nodes" {
		return nil, fmt.Errorf("degradation: fault kind %q not structural (want links or nodes)", kind)
	}
	sbtTree, bstTree := sbt.Cached(n, src), bst.Cached(n, src)
	q := int(math.Ceil(m / b))
	elems := m / float64(q)
	perTree := m / float64(n)
	ppt := int(math.Ceil(perTree / b))

	var rows []DegradationRow
	for _, k := range faultCounts {
		plan := fault.RandomDeadLinks(n, k, seed+int64(k))
		if kind == "nodes" {
			plan = fault.RandomDeadNodes(n, k, seed+int64(k), src)
		}
		cfg := sim.Config{
			Dim: n, Model: model.OneSendAndRecv, Tau: IPSC.Tau, Tc: IPSC.Tc,
			InternalPacket: IPSC.InternalPacket, Faults: plan,
		}

		sbtPath := func(i cube.NodeID) (cube.NodeID, bool) { return sbt.Parent(n, i, src) }
		bstPath := func(i cube.NodeID) (cube.NodeID, bool) { return bst.Parent(n, i, src) }
		treePath := func(j int) func(i cube.NodeID) (cube.NodeID, bool) {
			return func(i cube.NodeID) (cube.NodeID, bool) { return msbt.Parent(n, j, i, src) }
		}

		type variant struct {
			alg       string
			xs        func() ([]sim.Xmit, error)
			delivered func(i cube.NodeID) bool
		}
		variants := []variant{
			{"sbt", func() ([]sim.Xmit, error) {
				return sched.BroadcastPortOriented(sbtTree, q, elems), nil
			}, func(i cube.NodeID) bool { return pathLive(plan, sbtPath, i) }},
			{"bst", func() ([]sim.Xmit, error) {
				return sched.BroadcastPipelined(bstTree, q, elems), nil
			}, func(i cube.NodeID) bool { return pathLive(plan, bstPath, i) }},
			{"msbt", func() ([]sim.Xmit, error) {
				return sched.BroadcastMSBT(n, src, ppt, perTree/float64(ppt))
			}, func(i cube.NodeID) bool {
				for j := 0; j < n; j++ {
					if !pathLive(plan, treePath(j), i) {
						return false
					}
				}
				return true
			}},
			{"msbt-redundant", func() ([]sim.Xmit, error) {
				return sched.BroadcastMSBT(n, src, q, elems)
			}, func(i cube.NodeID) bool {
				for j := 0; j < n; j++ {
					if pathLive(plan, treePath(j), i) {
						return true
					}
				}
				return false
			}},
		}

		for _, v := range variants {
			xs, err := v.xs()
			if err != nil {
				return nil, fmt.Errorf("degradation %s k=%d: %w", v.alg, k, err)
			}
			res, err := sim.Run(cfg, xs)
			if err != nil {
				return nil, fmt.Errorf("degradation %s k=%d: %w", v.alg, k, err)
			}
			served := 0
			N := 1 << uint(n)
			for i := 0; i < N; i++ {
				if plan.NodeDead(cube.NodeID(i)) {
					continue
				}
				if i == int(src) || v.delivered(cube.NodeID(i)) {
					served++
				}
			}
			rows = append(rows, DegradationRow{
				Faults:    k,
				Alg:       v.alg,
				Makespan:  res.Makespan,
				Delivered: float64(served) / float64(N),
			})
		}
	}
	return rows, nil
}

// pathLive walks node i's tree path to the root and reports whether
// every hop on it survives the plan: the link in the parent-to-child
// direction the broadcast actually uses, and the parent node itself
// (a dead relay loses its whole subtree).
func pathLive(plan *fault.Plan, parent func(cube.NodeID) (cube.NodeID, bool), i cube.NodeID) bool {
	for {
		p, ok := parent(i)
		if !ok {
			return true
		}
		if plan.NodeDead(p) || plan.LinkDead(p, i) {
			return false
		}
		i = p
	}
}
