package sched

import (
	"math"
	"testing"

	"repro/internal/bst"
	"repro/internal/cube"
	"repro/internal/gray"
	"repro/internal/model"
	"repro/internal/sbt"
	"repro/internal/sim"
	"repro/internal/tcbt"
	"repro/internal/tree"
)

func run(t *testing.T, cfg sim.Config, xs []sim.Xmit) *sim.Result {
	t.Helper()
	res, err := sim.Run(cfg, xs)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func unitCfg(n int, pm model.PortModel) sim.Config {
	return sim.Config{Dim: n, Model: pm, Tau: 1, Tc: 0}
}

// --- Broadcast: routing-step counts against the paper's closed forms ---

func TestSBTPortOrientedOnePort(t *testing.T) {
	// T = ceil(M/B) * log N routing steps (paper §3.3.1), exact.
	for n := 2; n <= 6; n++ {
		for _, q := range []int{1, 3, 8} {
			xs := BroadcastPortOriented(sbt.Cached(n, 0), q, 1)
			res := run(t, unitCfg(n, model.OneSendOrRecv), xs)
			if res.Steps != q*n {
				t.Errorf("n=%d q=%d: %d steps, want %d", n, q, res.Steps, q*n)
			}
		}
	}
}

func TestSBTPipelinedAllPorts(t *testing.T) {
	// T = ceil(M/B) + log N - 1 routing steps, exact.
	for n := 2; n <= 6; n++ {
		for _, q := range []int{1, 4, 10} {
			xs := BroadcastPipelined(sbt.Cached(n, 0), q, 1)
			res := run(t, unitCfg(n, model.AllPorts), xs)
			if res.Steps != q+n-1 {
				t.Errorf("n=%d q=%d: %d steps, want %d", n, q, res.Steps, q+n-1)
			}
		}
	}
}

func TestMSBTFullDuplex(t *testing.T) {
	// Table 1 / §3.3.2: broadcasting Q = ppt * n packets takes Q + n steps
	// under one send + one receive, using the labelling f. Exact.
	for n := 2; n <= 6; n++ {
		for _, ppt := range []int{1, 2, 5} {
			xs, err := BroadcastMSBT(n, 0, ppt, 1)
			if err != nil {
				t.Fatal(err)
			}
			res := run(t, unitCfg(n, model.OneSendAndRecv), xs)
			want := ppt*n + n
			if res.Steps != want {
				t.Errorf("n=%d ppt=%d: %d steps, want %d", n, ppt, res.Steps, want)
			}
		}
	}
}

func TestMSBTPropagationDelayTable1(t *testing.T) {
	// Single round (one packet per tree): 2 log N steps full-duplex,
	// log N + 1 steps all ports (Table 1).
	for n := 2; n <= 7; n++ {
		xs, err := BroadcastMSBT(n, 0, 1, 1)
		if err != nil {
			t.Fatal(err)
		}
		res := run(t, unitCfg(n, model.OneSendAndRecv), xs)
		if res.Steps != 2*n {
			t.Errorf("n=%d full-duplex: %d steps, want %d", n, res.Steps, 2*n)
		}
		res = run(t, unitCfg(n, model.AllPorts), xs)
		if res.Steps != n+1 {
			t.Errorf("n=%d all-ports: %d steps, want %d", n, res.Steps, n+1)
		}
	}
}

func TestTable1OnePacketOrdering(t *testing.T) {
	// Table 1's single-packet propagation delays under one send + one
	// receive: SBT (n) < TCBT (2n-2) < MSBT's first round (2n) < HP (N-1).
	const n = 5
	cfg := unitCfg(n, model.OneSendAndRecv)
	got := map[model.Algorithm]int{}
	for _, a := range []model.Algorithm{model.SBT, model.TCBT, model.HP} {
		res, err := SimBroadcast(a, 0, 1, 1, cfg)
		if err != nil {
			t.Fatal(err)
		}
		got[a] = res.Steps
	}
	xs, err := BroadcastMSBT(n, 0, 1, 1)
	if err != nil {
		t.Fatal(err)
	}
	got[model.MSBT] = run(t, cfg, xs).Steps
	if !(got[model.SBT] < got[model.TCBT] && got[model.TCBT] < got[model.MSBT] && got[model.MSBT] < got[model.HP]) {
		t.Errorf("ordering violated: %v", got)
	}
	if got[model.SBT] != n || got[model.TCBT] != 2*n-2 || got[model.MSBT] != 2*n || got[model.HP] != 1<<n-1 {
		t.Errorf("exact delays wrong: %v", got)
	}
}

func TestMSBTHalfDuplex(t *testing.T) {
	// 2*ceil(M/B) + log N - 1 steps under one send OR receive; greedy may
	// differ by a small constant, so allow +/- 2 steps.
	for n := 3; n <= 6; n++ {
		for _, ppt := range []int{1, 3} {
			xs, err := BroadcastMSBT(n, 0, ppt, 1)
			if err != nil {
				t.Fatal(err)
			}
			res := run(t, unitCfg(n, model.OneSendOrRecv), xs)
			want := 2*ppt*n + n - 1
			if math.Abs(float64(res.Steps-want)) > 2 {
				t.Errorf("n=%d ppt=%d half-duplex: %d steps, want ~%d", n, ppt, res.Steps, want)
			}
		}
	}
}

func TestTCBTBroadcastShape(t *testing.T) {
	// Table 1: propagation delay 2 log N - 2 (one-port) and log N
	// (all ports) for a single packet. Exact.
	for n := 2; n <= 8; n++ {
		tr := tcbtTree(t, n)
		xs := BroadcastPipelined(tr, 1, 1)
		res := run(t, unitCfg(n, model.OneSendOrRecv), xs)
		if res.Steps != 2*n-2 {
			t.Errorf("n=%d one-port TCBT: %d steps, want %d", n, res.Steps, 2*n-2)
		}
		res = run(t, unitCfg(n, model.AllPorts), xs)
		if res.Steps != n {
			t.Errorf("n=%d all-ports TCBT: %d steps, want %d", n, res.Steps, n)
		}
	}
}

func TestTCBTStreaming(t *testing.T) {
	// Steady state: ~2 cycles per packet full-duplex, ~3 half-duplex
	// (Table 2). Check the slope between q=4 and q=12.
	n := 5
	tr := tcbtTree(t, n)
	slope := func(pm model.PortModel) float64 {
		a := run(t, unitCfg(n, pm), BroadcastPipelined(tr, 4, 1)).Steps
		b := run(t, unitCfg(n, pm), BroadcastPipelined(tr, 12, 1)).Steps
		return float64(b-a) / 8
	}
	if s := slope(model.OneSendAndRecv); math.Abs(s-2) > 0.25 {
		t.Errorf("full-duplex TCBT slope %f, want ~2", s)
	}
	if s := slope(model.OneSendOrRecv); math.Abs(s-3) > 0.5 {
		t.Errorf("half-duplex TCBT slope %f, want ~3", s)
	}
	if s := slope(model.AllPorts); math.Abs(s-1) > 0.25 {
		t.Errorf("all-ports TCBT slope %f, want ~1", s)
	}
}

func TestHPBroadcast(t *testing.T) {
	// Pipelined path: Q + N - 2 steps full-duplex (paper: Q + N - 3 up to
	// its step-counting convention), 2Q + N - 3 half-duplex-ish. Check the
	// full-duplex count exactly and the half-duplex slope ~2.
	n := 4
	N := 16
	hp, err := gray.New(n, 0)
	if err != nil {
		t.Fatal(err)
	}
	for _, q := range []int{1, 5} {
		xs := BroadcastPipelined(hp, q, 1)
		res := run(t, unitCfg(n, model.OneSendAndRecv), xs)
		if res.Steps != q+N-2 {
			t.Errorf("q=%d: %d steps, want %d", q, res.Steps, q+N-2)
		}
	}
	a := run(t, unitCfg(n, model.OneSendOrRecv), BroadcastPipelined(hp, 2, 1)).Steps
	b := run(t, unitCfg(n, model.OneSendOrRecv), BroadcastPipelined(hp, 10, 1)).Steps
	if s := float64(b-a) / 8; math.Abs(s-2) > 0.2 {
		t.Errorf("half-duplex HP slope %f, want ~2", s)
	}
}

func TestBroadcastSpeedupMSBToverSBT(t *testing.T) {
	// The headline result (Figure 7 shape): streaming broadcast under
	// full-duplex one-port, MSBT is ~log N times faster than SBT.
	for n := 3; n <= 6; n++ {
		q := 8 * n // packets, divisible by n
		sbtSteps := run(t, unitCfg(n, model.OneSendAndRecv),
			BroadcastPortOriented(sbt.Cached(n, 0), q, 1)).Steps
		xs, err := BroadcastMSBT(n, 0, q/n, 1)
		if err != nil {
			t.Fatal(err)
		}
		msbtSteps := run(t, unitCfg(n, model.OneSendAndRecv), xs).Steps
		speedup := float64(sbtSteps) / float64(msbtSteps)
		if want := float64(n) * float64(q) / float64(q+n); math.Abs(speedup-want)/want > 0.10 {
			t.Errorf("n=%d: speedup %f, want ~%f", n, speedup, want)
		}
	}
}

// --- Scatter ---

func TestScatterSBTLargePackets(t *testing.T) {
	// SBT port-oriented scatter with unbounded packets, full-duplex:
	// T = (N-1) M tc + log N tau (Table 6), exact in the simulator.
	for n := 2; n <= 6; n++ {
		N := float64(int(1) << uint(n))
		m := 4.0
		xs, err := scatterTree(sbt.Cached(n, 0), m, N*m, OrderDescending, PortOriented)
		if err != nil {
			t.Fatal(err)
		}
		cfg := sim.Config{Dim: n, Model: model.OneSendAndRecv, Tau: 10, Tc: 1}
		res := run(t, cfg, xs)
		want := (N-1)*m*1 + float64(n)*10
		if math.Abs(res.Makespan-want)/want > 0.15 {
			t.Errorf("n=%d: makespan %f, want ~%f", n, res.Makespan, want)
		}
	}
}

func TestScatterConservation(t *testing.T) {
	// Every link from the root carries exactly the data of its subtree;
	// total root egress is (N-1)*M.
	n := 5
	m := 2.0
	tr := bst.MustNew(n, 0)
	xs, err := scatterTree(tr, m, 8*m, OrderDF, RoundRobin)
	if err != nil {
		t.Fatal(err)
	}
	egress := map[cube.NodeID]float64{}
	for _, x := range xs {
		if x.From == 0 {
			egress[x.To] += x.Elems
		}
	}
	for _, c := range tr.Children(0) {
		want := m * float64(tr.SubtreeSize(c))
		if math.Abs(egress[c]-want) > 1e-9 {
			t.Errorf("subtree %d: egress %f, want %f", c, egress[c], want)
		}
	}
	var total float64
	for _, e := range egress {
		total += e
	}
	if want := m * float64(int(1)<<uint(n)-1); math.Abs(total-want) > 1e-9 {
		t.Errorf("root egress %f, want %f", total, want)
	}
}

func TestScatterEveryNodeServed(t *testing.T) {
	// Each non-root node must receive at least M elements in total
	// (its own data), for every tree and order.
	n := 5
	m := 3.0
	trees := map[string]*tree.Tree{
		"sbt": sbt.Cached(n, 0),
		"bst": bst.MustNew(n, 0),
	}
	for name, tr := range trees {
		for _, order := range []Order{OrderDescending, OrderDF, OrderRBF} {
			for _, il := range []Interleave{PortOriented, RoundRobin} {
				xs, err := scatterTree(tr, m, 5*m, order, il)
				if err != nil {
					t.Fatal(err)
				}
				ingress := map[cube.NodeID]float64{}
				for _, x := range xs {
					ingress[x.To] += x.Elems
				}
				for i := 1; i < 1<<uint(n); i++ {
					if ingress[cube.NodeID(i)] < m-1e-9 {
						t.Errorf("%s/%v/%v: node %d ingress %f < M", name, order, il, i, ingress[cube.NodeID(i)])
					}
				}
			}
		}
	}
}

func TestScatterBSTAllPortsSpeedup(t *testing.T) {
	// Table 6 headline: with all-port communication and ample packet size,
	// BST scatter beats SBT scatter by roughly (1/2) log N.
	for _, n := range []int{5, 6, 7} {
		N := float64(int(1) << uint(n))
		m := 2.0
		tau, tc := 1.0, 1.0
		cfg := sim.Config{Dim: n, Model: model.AllPorts, Tau: tau, Tc: tc}
		big := N * m
		xsS, err := scatterTree(sbt.Cached(n, 0), m, big, OrderRBF, PortOriented)
		if err != nil {
			t.Fatal(err)
		}
		xsB, err := scatterTree(bst.MustNew(n, 0), m, m*N/float64(n), OrderRBF, RoundRobin)
		if err != nil {
			t.Fatal(err)
		}
		tS := run(t, cfg, xsS).Makespan
		tB := run(t, cfg, xsB).Makespan
		speedup := tS / tB
		want := float64(n) / 2
		if speedup < want*0.6 || speedup > want*1.8 {
			t.Errorf("n=%d: BST all-port scatter speedup %f, want ~%f", n, speedup, want)
		}
	}
}

func TestScatterSmallPacketsEquivalence(t *testing.T) {
	// Paper §4.3: with one-port communication and B <= M, SBT- and BST-
	// based scatter have the same complexity (N-1)(tau + B tc) up to
	// lower-order terms.
	n := 5
	N := float64(int(1) << uint(n))
	m := 4.0
	cfg := sim.Config{Dim: n, Model: model.OneSendAndRecv, Tau: 2, Tc: 1}
	xsS, err := scatterTree(sbt.Cached(n, 0), m, m, OrderDescending, RoundRobin)
	if err != nil {
		t.Fatal(err)
	}
	xsB, err := scatterTree(bst.MustNew(n, 0), m, m, OrderDF, RoundRobin)
	if err != nil {
		t.Fatal(err)
	}
	tS := run(t, cfg, xsS).Makespan
	tB := run(t, cfg, xsB).Makespan
	want := (N - 1) * (2 + m*1)
	for name, got := range map[string]float64{"sbt": tS, "bst": tB} {
		if math.Abs(got-want)/want > 0.15 {
			t.Errorf("%s: makespan %f, want ~%f", name, got, want)
		}
	}
}

func TestGatherMirrorsScatter(t *testing.T) {
	// Gather on the SBT moves the same data volume as scatter and, with
	// ample packets and full duplex, completes in ~ (N-1) M tc + n tau.
	n := 5
	N := float64(int(1) << uint(n))
	m := 2.0
	xs, err := gatherTree(sbt.Cached(n, 0), m, N*m)
	if err != nil {
		t.Fatal(err)
	}
	cfg := sim.Config{Dim: n, Model: model.OneSendAndRecv, Tau: 5, Tc: 1}
	res := run(t, cfg, xs)
	want := (N-1)*m + float64(n)*5
	if math.Abs(res.Makespan-want)/want > 0.25 {
		t.Errorf("gather makespan %f, want ~%f", res.Makespan, want)
	}
	// Root ingress is all data.
	var ingress float64
	for _, x := range xs {
		if x.To == 0 {
			ingress += x.Elems
		}
	}
	if math.Abs(ingress-(N-1)*m) > 1e-9 {
		t.Errorf("root ingress %f", ingress)
	}
}

func TestReduceTree(t *testing.T) {
	// Reduction on the SBT: every node sends one partial; with all ports
	// it completes in log N steps (reverse of broadcast).
	for n := 2; n <= 6; n++ {
		xs := reduceTree(sbt.Cached(n, 0), 1)
		if len(xs) != 1<<uint(n)-1 {
			t.Fatalf("n=%d: %d transmissions", n, len(xs))
		}
		res := run(t, unitCfg(n, model.AllPorts), xs)
		if res.Steps != n {
			t.Errorf("n=%d: reduce steps %d, want %d", n, res.Steps, n)
		}
	}
}

func TestScatterRejectsBadParams(t *testing.T) {
	tr := sbt.Cached(3, 0)
	if _, err := scatterTree(tr, 0, 1, OrderDF, RoundRobin); err == nil {
		t.Error("M=0 accepted")
	}
	if _, err := scatterTree(tr, 1, 0, OrderDF, RoundRobin); err == nil {
		t.Error("B=0 accepted")
	}
	if _, err := gatherTree(tr, -1, 1); err == nil {
		t.Error("gather M<0 accepted")
	}
	if _, err := scatterTree(tr, 1, 1, OrderDF, Interleave(9)); err == nil {
		t.Error("bad interleave accepted")
	}
}

func TestOrderStrings(t *testing.T) {
	if OrderDF.String() != "depth-first" || OrderRBF.String() != "reversed-bfs" ||
		OrderDescending.String() != "descending" || Order(9).String() == "" {
		t.Error("order strings")
	}
	if PortOriented.String() != "port-oriented" || RoundRobin.String() != "round-robin" {
		t.Error("interleave strings")
	}
}

func tcbtTree(t *testing.T, n int) *tree.Tree {
	t.Helper()
	e, err := tcbt.New(n, 0)
	if err != nil {
		t.Fatal(err)
	}
	return e.MustTree()
}
