package exp

import (
	"math"

	"repro/internal/bst"
	"repro/internal/cube"
	"repro/internal/model"
	"repro/internal/msbt"
	"repro/internal/sbt"
	"repro/internal/sched"
	"repro/internal/sim"
)

// The ablations quantify the design choices DESIGN.md calls out: what the
// paper's scheduling refinements actually buy over naive alternatives, on
// the same simulator and cost model.

// AblationResult compares the paper's design choice against an
// alternative on one metric (smaller is better for times).
type AblationResult struct {
	Name        string
	Paper       float64 // the paper's choice
	Alternative float64 // the naive/other choice
	Unit        string
}

// Gain returns Alternative / Paper: how much worse the alternative is.
func (a AblationResult) Gain() float64 { return a.Alternative / a.Paper }

// AblateMSBTLabels compares the paper's f-labelled MSBT schedule against a
// naive schedule that streams the n trees with tree-major priorities
// (tree 0's packets first, then tree 1's, ...), under one-port full-duplex
// communication. The labelling interleaves the trees so the source emits
// one packet per cycle round-robin; the naive order serializes at the
// source and loses the pipelining.
func AblateMSBTLabels(n int, packetsPerTree int) (AblationResult, error) {
	cfg := sim.Config{Dim: n, Model: model.OneSendAndRecv, Tau: 1, Tc: 0}
	labelled, err := sched.BroadcastMSBT(n, 0, packetsPerTree, 1)
	if err != nil {
		return AblationResult{}, err
	}
	resL, err := sim.Run(cfg, labelled)
	if err != nil {
		return AblationResult{}, err
	}

	// Naive variant: identical transmissions, but priorities make each
	// tree's whole stream precede the next tree's (tree-major instead of
	// cycle-major).
	trees := msbt.CachedTrees(n, 0)
	var xs []sim.Xmit
	for j, t := range trees {
		last := map[cube.NodeID][]int{}
		for _, u := range t.BreadthFirst() {
			for _, c := range t.Children(u) {
				for p := 0; p < packetsPerTree; p++ {
					var deps []int
					if in, ok := last[u]; ok {
						deps = []int{in[p]}
					}
					xs = append(xs, sim.Xmit{
						From: u, To: c, Elems: 1,
						Prio: int64(j*1000000 + p*100 + t.Level(c)),
						Deps: deps,
					})
					if last[c] == nil {
						last[c] = make([]int, packetsPerTree)
					}
					last[c][p] = len(xs) - 1
				}
			}
		}
	}
	resN, err := sim.Run(cfg, xs)
	if err != nil {
		return AblationResult{}, err
	}
	return AblationResult{
		Name:        "MSBT f-labels vs tree-major order",
		Paper:       float64(resL.Steps),
		Alternative: float64(resN.Steps),
		Unit:        "routing steps",
	}, nil
}

// AblateScatterOrder compares the paper's implemented destination order —
// depth-first, chosen in §5.2 for its smaller routing tables — against
// reversed breadth-first for BST personalized communication under
// all-port communication with bounded packets. The RBF/level-by-level
// order is what the Lemma 4.2 lower-bound argument uses (with packets
// sized to whole levels); with general bounded packets neither order
// dominates across dimensions, and the two stay within tens of percent of
// each other — which is why the paper could use DF in its measurements
// without a meaningful time penalty while saving table space (see
// internal/routetab).
func AblateScatterOrder(n int, m, b float64) (AblationResult, error) {
	cfg := sim.Config{Dim: n, Model: model.AllPorts, Tau: 1, Tc: 1}
	df, err := sched.SimScatter(model.BST, 0, m, b, sched.OrderDF, sched.RoundRobin, cfg)
	if err != nil {
		return AblationResult{}, err
	}
	rbf, err := sched.SimScatter(model.BST, 0, m, b, sched.OrderRBF, sched.RoundRobin, cfg)
	if err != nil {
		return AblationResult{}, err
	}
	return AblationResult{
		Name:        "BST scatter DF vs RBF order",
		Paper:       df.Makespan,
		Alternative: rbf.Makespan,
		Unit:        "time",
	}, nil
}

// AblateSBTScatterInterleave compares the descending-address (Gray-code
// port) round-robin SBT scatter of §5.2 against the port-oriented variant
// under one-port communication with partial overlap: the interleaved
// order lets downstream forwarding overlap the root's next send.
func AblateSBTScatterInterleave(n int, m float64, overlap float64) (AblationResult, error) {
	cfg := sim.Config{
		Dim: n, Model: model.OneSendOrRecv, Tau: 1, Tc: 0.01, Overlap: overlap,
	}
	inter, err := sched.SimScatter(model.SBT, 0, m, m, sched.OrderDescending, sched.RoundRobin, cfg)
	if err != nil {
		return AblationResult{}, err
	}
	port, err := sched.SimScatter(model.SBT, 0, m, m, sched.OrderDF, sched.PortOriented, cfg)
	if err != nil {
		return AblationResult{}, err
	}
	return AblationResult{
		Name:        "SBT scatter interleaved vs port-oriented",
		Paper:       inter.Makespan,
		Alternative: port.Makespan,
		Unit:        "time",
	}, nil
}

// AblatePacketSize sweeps the external packet size for an MSBT broadcast
// and returns the measured optimum alongside the closed-form B_opt of
// Table 3, validating the paper's packet-size analysis on the simulator.
func AblatePacketSize(n int, mSize, tau, tc float64) (measuredBopt, formulaBopt float64, err error) {
	p := model.Params{N: n, M: mSize, Tau: tau, Tc: tc}
	formulaBopt = model.BroadcastBopt(model.MSBT, model.OneSendAndRecv, p)
	cfg := sim.Config{Dim: n, Model: model.OneSendAndRecv, Tau: tau, Tc: tc}
	best := math.Inf(1)
	for b := 1.0; b <= mSize; b *= 2 {
		res, err := sched.SimBroadcast(model.MSBT, 0, mSize, b, cfg)
		if err != nil {
			return 0, 0, err
		}
		if res.Makespan < best {
			best, measuredBopt = res.Makespan, b
		}
	}
	return measuredBopt, formulaBopt, nil
}

// AblateBalance quantifies what BST balance buys: the maximum root-link
// data volume (the scatter bottleneck) for the SBT's binomial subtrees is
// N/2 * M versus about N/log N * M for the BST.
func AblateBalance(n int) AblationResult {
	N := 1 << uint(n)
	sbtMax := sbt.SubtreeSize(n, 0) // largest binomial subtree: N/2
	bstMax := bst.MaxSubtreeSize(n)
	_ = N
	return AblationResult{
		Name:        "root-link load: BST vs SBT subtrees",
		Paper:       float64(bstMax),
		Alternative: float64(sbtMax),
		Unit:        "destinations on busiest root link",
	}
}
