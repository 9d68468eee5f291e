// Package exp reproduces each table and figure of Ho & Johnsson (ICPP
// 1986) by combining the analytic model (internal/model), the schedule
// generators (internal/sched) and the discrete-event simulator
// (internal/sim). The cmd/tables and cmd/figures binaries and
// the repository's benchmark harness all print the structures produced
// here, and EXPERIMENTS.md records their output against the paper.
package exp

import (
	"fmt"
	"math"

	"repro/internal/bst"
	"repro/internal/model"
	"repro/internal/sched"
	"repro/internal/sim"
	"repro/internal/trace"
)

// IPSC approximates the Intel iPSC/d7's communication constants in
// milliseconds: ~1 ms start-up per (1 KB) internal packet and ~1 microsec
// per byte of transfer (about 1 MB/s links). Absolute values do not matter
// for the reproduction — only the tau/tc ratio shapes the curves.
var IPSC = struct {
	Tau, Tc, InternalPacket float64
}{Tau: 1.0, Tc: 0.001, InternalPacket: 1024}

// Table1Row is one measured/predicted propagation-delay row.
type Table1Row struct {
	Alg       model.Algorithm
	Port      model.PortModel
	N         int // cube dimension
	Predicted int
	Simulated int
}

// Table1 reproduces the propagation delays of paper Table 1 for one cube
// dimension: the number of routing steps until every node holds the
// (first) packet, for each algorithm under each port model.
func Table1(n int) ([]Table1Row, error) {
	var rows []Table1Row
	for _, a := range []model.Algorithm{model.HP, model.SBT, model.TCBT, model.MSBT} {
		for _, pm := range model.PortModels {
			cfg := sim.Config{Dim: n, Model: pm, Tau: 1, Tc: 0}
			var (
				res *sim.Result
				err error
			)
			if a == model.MSBT {
				// One packet per tree: Table 1's MSBT row measures the
				// full first round of the multi-tree pipeline.
				xs, e := sched.BroadcastMSBT(n, 0, 1, 1)
				if e != nil {
					return nil, e
				}
				res, err = sim.Run(cfg, xs)
			} else {
				res, err = sched.SimBroadcast(a, 0, 1, 1, cfg)
			}
			if err != nil {
				return nil, fmt.Errorf("table1 %v/%v: %w", a, pm, err)
			}
			rows = append(rows, Table1Row{
				Alg: a, Port: pm, N: n,
				Predicted: model.PropagationDelay(a, pm, n),
				Simulated: res.Steps,
			})
		}
	}
	return rows, nil
}

// Table2Row is one cycles-per-distinct-packet row.
type Table2Row struct {
	Alg       model.Algorithm
	Port      model.PortModel
	N         int
	Predicted float64
	Simulated float64
}

// Table2 reproduces paper Table 2: the steady-state number of routing
// cycles per distinct packet, measured as the marginal cost of extra
// packets between two pipeline lengths.
func Table2(n int) ([]Table2Row, error) {
	const q1, q2 = 4, 12
	var rows []Table2Row
	for _, a := range []model.Algorithm{model.HP, model.SBT, model.TCBT, model.MSBT} {
		for _, pm := range model.PortModels {
			cfg := sim.Config{Dim: n, Model: pm, Tau: 1, Tc: 0}
			steps := func(q int) (int, error) {
				if a == model.MSBT {
					xs, err := sched.BroadcastMSBT(n, 0, q, 1)
					if err != nil {
						return 0, err
					}
					res, err := sim.Run(cfg, xs)
					if err != nil {
						return 0, err
					}
					return res.Steps, nil
				}
				res, err := sched.SimBroadcast(a, 0, float64(q), 1, cfg)
				if err != nil {
					return 0, err
				}
				return res.Steps, nil
			}
			s1, err := steps(q1)
			if err != nil {
				return nil, err
			}
			s2, err := steps(q2)
			if err != nil {
				return nil, err
			}
			den := float64(q2 - q1)
			if a == model.MSBT {
				den *= float64(n) // q counts packets per tree there
			}
			rows = append(rows, Table2Row{
				Alg: a, Port: pm, N: n,
				Predicted: model.CyclesPerPacket(a, pm, n),
				Simulated: float64(s2-s1) / den,
			})
		}
	}
	return rows, nil
}

// Table3Row carries the closed forms of one paper Table 3 row evaluated at
// concrete parameters, with a simulated check where the paper's schedule
// is implemented.
type Table3Row struct {
	Alg       model.Algorithm
	Port      model.PortModel
	T         float64 // at Params.B
	Bopt      float64
	Tmin      float64
	Simulated float64 // simulated T at Params.B; NaN when not simulated
}

// Table3 evaluates every broadcast-complexity row of paper Table 3 at the
// given parameters and simulates the rows with implemented schedules.
func Table3(p model.Params) ([]Table3Row, error) {
	type ap struct {
		a  model.Algorithm
		pm model.PortModel
	}
	rows := []ap{
		{model.HP, model.OneSendOrRecv},
		{model.HP, model.OneSendAndRecv},
		{model.SBT, model.OneSendOrRecv},
		{model.SBT, model.AllPorts},
		{model.TCBT, model.OneSendOrRecv},
		{model.TCBT, model.OneSendAndRecv},
		{model.TCBT, model.AllPorts},
		{model.MSBT, model.OneSendOrRecv},
		{model.MSBT, model.OneSendAndRecv},
		{model.MSBT, model.AllPorts},
	}
	var out []Table3Row
	for _, r := range rows {
		row := Table3Row{
			Alg:       r.a,
			Port:      r.pm,
			T:         model.BroadcastTime(r.a, r.pm, p),
			Bopt:      model.BroadcastBopt(r.a, r.pm, p),
			Tmin:      model.BroadcastTmin(r.a, r.pm, p),
			Simulated: math.NaN(),
		}
		cfg := sim.Config{Dim: p.N, Model: r.pm, Tau: p.Tau, Tc: p.Tc}
		res, err := sched.SimBroadcast(r.a, 0, p.M, p.B, cfg)
		if err == nil {
			row.Simulated = res.Makespan
		}
		out = append(out, row)
	}
	return out, nil
}

// Table4Row is one complexity-ratio row relative to MSBT routing.
type Table4Row struct {
	Alg       model.Algorithm
	Port      model.PortModel
	Regime    model.Regime
	Predicted float64
	Simulated float64 // NaN where no simulation applies
}

// Table4 reproduces paper Table 4: broadcast complexity of the SBT and
// TCBT relative to the MSBT, per port model and regime. The streaming
// regime (M/B >> log N) is additionally measured on the simulator.
func Table4(n int) ([]Table4Row, error) {
	var out []Table4Row
	measure := func(a model.Algorithm, pm model.PortModel) (float64, error) {
		q := 16 * n
		cfg := sim.Config{Dim: n, Model: pm, Tau: 1, Tc: 0}
		res, err := sched.SimBroadcast(a, 0, float64(q), 1, cfg)
		if err != nil {
			return 0, err
		}
		xs, err := sched.BroadcastMSBT(n, 0, q/n, 1)
		if err != nil {
			return 0, err
		}
		ref, err := sim.Run(cfg, xs)
		if err != nil {
			return 0, err
		}
		return res.Makespan / ref.Makespan, nil
	}
	for _, pm := range model.PortModels {
		for _, a := range []model.Algorithm{model.SBT, model.TCBT} {
			for _, r := range model.Regimes {
				row := Table4Row{
					Alg: a, Port: pm, Regime: r,
					Predicted: model.BroadcastRatio(a, pm, r, n),
					Simulated: math.NaN(),
				}
				if r == model.RegimeManyPackets {
					m, err := measure(a, pm)
					if err != nil {
						return nil, err
					}
					row.Simulated = m
				}
				out = append(out, row)
			}
		}
	}
	return out, nil
}

// Table5Row aliases the BST table row so harnesses need not import
// internal/bst directly.
type Table5Row = bst.Table5Row

// Table5 re-exports the BST subtree-size table (computed, golden-tested
// against the paper digit for digit).
func Table5(from, to int) []Table5Row { return bst.Table5(from, to) }

// Table6Row is one personalized-communication complexity row.
type Table6Row struct {
	Alg       model.Algorithm
	Port      model.PortModel
	Tmin      float64
	Simulated float64 // NaN when not simulated
}

// Table6 evaluates paper Table 6 (scatter T_min at ample packet size) at
// the given parameters and simulates the SBT and BST rows.
func Table6(p model.Params) ([]Table6Row, error) {
	N := p.Nodes()
	var out []Table6Row
	for _, a := range []model.Algorithm{model.SBT, model.TCBT, model.BST} {
		for _, pm := range []model.PortModel{model.OneSendAndRecv, model.AllPorts} {
			row := Table6Row{
				Alg: a, Port: pm,
				Tmin:      model.ScatterTmin(a, pm, p),
				Simulated: math.NaN(),
			}
			if a != model.TCBT {
				cfg := sim.Config{Dim: p.N, Model: pm, Tau: p.Tau, Tc: p.Tc}
				b := N * p.M // ample packets: SBT optimum
				order, il := sched.OrderDescending, sched.PortOriented
				if a == model.BST {
					b = N / float64(p.N) * p.M
					order, il = sched.OrderRBF, sched.RoundRobin
				}
				res, err := sched.SimScatter(a, 0, p.M, b, order, il, cfg)
				if err != nil {
					return nil, err
				}
				row.Simulated = res.Makespan
			}
			out = append(out, row)
		}
	}
	return out, nil
}

// Figure5 reproduces paper Figure 5: SBT broadcast time (ms) as a function
// of the external packet size, one series per cube dimension, with the
// iPSC's 1 KB internal packets. M is the total message size in bytes.
// The (dimension, packet size) grid is simulated on a parallel worker
// pool — the d = 7, B = 16 point alone is a half-million-transmission run.
func Figure5(dims []int, m float64, packetSizes []float64) ([]trace.Series, error) {
	type point struct {
		n int
		b float64
	}
	var points []point
	for _, n := range dims {
		for _, b := range packetSizes {
			points = append(points, point{n, b})
		}
	}
	times, err := Parallel(points, 0, func(pt point) (float64, error) {
		cfg := sim.Config{
			Dim: pt.n, Model: model.OneSendAndRecv,
			Tau: IPSC.Tau, Tc: IPSC.Tc, InternalPacket: IPSC.InternalPacket,
		}
		res, err := sched.SimBroadcast(model.SBT, 0, m, pt.b, cfg)
		if err != nil {
			return 0, err
		}
		return res.Makespan, nil
	})
	if err != nil {
		return nil, err
	}
	var out []trace.Series
	for di, n := range dims {
		s := trace.Series{Label: fmt.Sprintf("d=%d", n)}
		for bi, b := range packetSizes {
			s.X = append(s.X, b)
			s.Y = append(s.Y, times[di*len(packetSizes)+bi])
		}
		out = append(out, s)
	}
	return out, nil
}

// Figure6 reproduces paper Figure 6: broadcast time (ms) of a 60 KB
// message in 1 KB packets using the SBT and the MSBT, versus cube
// dimension. The (dimension, algorithm) points run on the shared worker
// pool.
func Figure6(dims []int) (sbtSeries, msbtSeries trace.Series, err error) {
	const m, b = 60 * 1024, 1024
	sbtSeries.Label, msbtSeries.Label = "SBT", "MSBT"
	type point struct {
		n int
		a model.Algorithm
	}
	var points []point
	for _, n := range dims {
		points = append(points, point{n, model.SBT}, point{n, model.MSBT})
	}
	times, err := Parallel(points, 0, func(pt point) (float64, error) {
		cfg := sim.Config{
			Dim: pt.n, Model: model.OneSendAndRecv,
			Tau: IPSC.Tau, Tc: IPSC.Tc, InternalPacket: IPSC.InternalPacket,
		}
		res, err := sched.SimBroadcast(pt.a, 0, m, b, cfg)
		if err != nil {
			return 0, err
		}
		return res.Makespan, nil
	})
	if err != nil {
		return sbtSeries, msbtSeries, err
	}
	for i, n := range dims {
		sbtSeries.X = append(sbtSeries.X, float64(n))
		sbtSeries.Y = append(sbtSeries.Y, times[2*i])
		msbtSeries.X = append(msbtSeries.X, float64(n))
		msbtSeries.Y = append(msbtSeries.Y, times[2*i+1])
	}
	return sbtSeries, msbtSeries, nil
}

// Figure7 reproduces paper Figure 7: the measured speedup of MSBT- over
// SBT-based broadcasting (expected to track log N).
func Figure7(dims []int) (trace.Series, error) {
	sbtS, msbtS, err := Figure6(dims)
	if err != nil {
		return trace.Series{}, err
	}
	out := trace.Series{Label: "MSBT/SBT speedup", X: sbtS.X}
	for i := range sbtS.Y {
		out.Y = append(out.Y, sbtS.Y[i]/msbtS.Y[i])
	}
	return out, nil
}

// Figure8 reproduces paper Figure 8: personalized communication time using
// the SBT (descending-address order) and the BST (depth-first order,
// cyclic subtree service) on one-port hardware with the iPSC's partial
// send/receive overlap, versus cube dimension. m is the per-node message
// size in bytes.
func Figure8(dims []int, m float64) (sbtSeries, bstSeries trace.Series, err error) {
	sbtSeries.Label, bstSeries.Label = "SBT", "BST"
	type point struct {
		n     int
		a     model.Algorithm
		order sched.Order
	}
	var points []point
	for _, n := range dims {
		points = append(points,
			point{n, model.SBT, sched.OrderDescending},
			point{n, model.BST, sched.OrderDF})
	}
	times, err := Parallel(points, 0, func(pt point) (float64, error) {
		cfg := sim.Config{
			Dim: pt.n, Model: model.OneSendOrRecv, Overlap: 0.2,
			Tau: IPSC.Tau, Tc: IPSC.Tc, InternalPacket: IPSC.InternalPacket,
		}
		res, err := sched.SimScatter(pt.a, 0, m, IPSC.InternalPacket,
			pt.order, sched.RoundRobin, cfg)
		if err != nil {
			return 0, err
		}
		return res.Makespan, nil
	})
	if err != nil {
		return sbtSeries, bstSeries, err
	}
	for i, n := range dims {
		sbtSeries.X = append(sbtSeries.X, float64(n))
		sbtSeries.Y = append(sbtSeries.Y, times[2*i])
		bstSeries.X = append(bstSeries.X, float64(n))
		bstSeries.Y = append(bstSeries.Y, times[2*i+1])
	}
	return sbtSeries, bstSeries, nil
}
