package sched

import (
	"fmt"
	"math"

	"repro/internal/bst"
	"repro/internal/cube"
	"repro/internal/gray"
	"repro/internal/model"
	"repro/internal/sbt"
	"repro/internal/sim"
	"repro/internal/tcbt"
	"repro/internal/tree"
)

// TreeFor returns the spanning tree of algorithm a on the n-cube rooted
// at s: the SBT or BST (served from their translation caches), the TCBT
// with primary root s, or the Gray-code Hamiltonian path from s (HP) as
// a degenerate tree. The MSBT is n trees, not one, so it is an error
// here, as are a dimension outside [1, cube.MaxDim] and a root outside
// the cube.
func TreeFor(a model.Algorithm, n int, s cube.NodeID) (*tree.Tree, error) {
	if err := checkRoot(n, s); err != nil {
		return nil, err
	}
	switch a {
	case model.SBT:
		return sbt.Cached(n, s), nil
	case model.BST:
		return bst.Cached(n, s), nil
	case model.HP:
		return gray.New(n, s)
	case model.TCBT:
		e, err := tcbt.New(n, s)
		if err != nil {
			return nil, err
		}
		return e.Tree()
	}
	return nil, fmt.Errorf("sched: no spanning tree for %v", a)
}

func checkRoot(n int, s cube.NodeID) error {
	if n < 1 || n > cube.MaxDim {
		return fmt.Errorf("sched: dimension %d out of range [1,%d]", n, cube.MaxDim)
	}
	if uint64(s) >= 1<<uint(n) {
		return fmt.Errorf("sched: root %d outside the %d-cube (nodes 0..%d)", s, n, 1<<uint(n)-1)
	}
	return nil
}

// SimBroadcast runs a timed single-source broadcast of M elements with
// maximum (external) packet size B from s on the simulated machine cfg,
// under the schedule BroadcastSchedule builds. Result.Makespan is the
// broadcast completion time.
func SimBroadcast(a model.Algorithm, s cube.NodeID, M, B float64, cfg sim.Config) (*sim.Result, error) {
	xs, err := BroadcastSchedule(a, s, M, B, cfg)
	if err != nil {
		return nil, err
	}
	return sim.Run(cfg, xs)
}

// BroadcastSchedule builds, without running it, the broadcast schedule
// the paper prescribes for algorithm a and cfg.Model: port-oriented
// recursive halving for the one-port SBT, packet pipelining for the
// all-port SBT and for TCBT and HP, and the f-labelled multi-tree stream
// for the MSBT.
func BroadcastSchedule(a model.Algorithm, s cube.NodeID, M, B float64, cfg sim.Config) ([]sim.Xmit, error) {
	if M <= 0 || B <= 0 {
		return nil, fmt.Errorf("sched: nonpositive M or B")
	}
	n := cfg.Dim
	switch a {
	case model.MSBT:
		if err := checkRoot(n, s); err != nil {
			return nil, err
		}
		// Split the data into n streams; stream j needs ceil(M/(n*B))
		// packets of at most B elements.
		perTree := M / float64(n)
		ppt := int(math.Ceil(perTree / B))
		return BroadcastMSBT(n, s, ppt, perTree/float64(ppt))
	case model.SBT, model.TCBT, model.HP:
		t, err := TreeFor(a, n, s)
		if err != nil {
			return nil, err
		}
		q := int(math.Ceil(M / B))
		elems := M / float64(q)
		if a == model.SBT && cfg.Model != model.AllPorts {
			return BroadcastPortOriented(t, q, elems), nil
		}
		return BroadcastPipelined(t, q, elems), nil
	}
	return nil, fmt.Errorf("sched: no broadcast schedule for %v", a)
}

// SimScatter runs a timed single-source personalized communication of M
// elements per destination with maximum packet size B from s, using
// destination order `order` and root interleaving `il` on the spanning
// tree of algorithm a (SBT, BST or TCBT).
func SimScatter(a model.Algorithm, s cube.NodeID, M, B float64,
	order Order, il Interleave, cfg sim.Config) (*sim.Result, error) {

	t, err := TreeFor(a, cfg.Dim, s)
	if err != nil {
		return nil, err
	}
	xs, err := scatterTree(t, M, B, order, il)
	if err != nil {
		return nil, err
	}
	return sim.Run(cfg, xs)
}
