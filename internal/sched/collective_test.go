package sched

import (
	"testing"

	"repro/internal/bits"
	"repro/internal/bst"
	"repro/internal/cube"
	"repro/internal/model"
	"repro/internal/sbt"
	"repro/internal/sim"
	"repro/internal/tcbt"
)

func TestTopologyForErrors(t *testing.T) {
	if _, err := TreeFor(model.MSBT, 3, 0); err == nil {
		t.Error("MSBT must not yield a tree")
	}
	if _, err := TreeFor(model.SBT, 3, 0); err != nil {
		t.Error(err)
	}
	for _, a := range []model.Algorithm{model.HP, model.SBT, model.BST, model.TCBT} {
		if _, err := TreeFor(a, 3, 8); err == nil {
			t.Errorf("%v: root 8 of a 3-cube accepted", a)
		}
		if _, err := TreeFor(a, 0, 0); err == nil {
			t.Errorf("%v: dimension 0 accepted", a)
		}
	}
}

// TestTopologiesMaterialize checks that every tree TreeFor builds spans
// the cube and agrees, node for node, with its family's locally
// evaluable parent function — the distributed-routing view, where a node
// needs only its own address and the root's to find its place.
func TestTopologiesMaterialize(t *testing.T) {
	for n := 1; n <= 6; n++ {
		s := cube.NodeID(n % 2)
		e, err := tcbt.New(n, s)
		if err != nil {
			t.Fatal(err)
		}
		local := map[model.Algorithm]func(i cube.NodeID) (cube.NodeID, bool){
			model.SBT: func(i cube.NodeID) (cube.NodeID, bool) { return sbt.Parent(n, i, s) },
			model.BST: func(i cube.NodeID) (cube.NodeID, bool) { return bst.Parent(n, i, s) },
			model.HP: func(i cube.NodeID) (cube.NodeID, bool) {
				r := bits.GrayRank(uint64(i ^ s)) // i's position on the path
				if r == 0 {
					return 0, false
				}
				return s ^ cube.NodeID(bits.GrayCode(r-1)), true
			},
			model.TCBT: e.Parent,
		}
		for a, parent := range local {
			tr, err := TreeFor(a, n, s)
			if err != nil {
				t.Fatalf("n=%d %v: %v", n, a, err)
			}
			if tr.Size() != 1<<uint(n) || tr.Root() != s {
				t.Fatalf("n=%d %v: not a spanning tree rooted at %d", n, a, s)
			}
			if _, ok := parent(s); ok {
				t.Fatalf("n=%d %v: the local function gives the root %d a parent", n, a, s)
			}
			for i := cube.NodeID(0); i < cube.NodeID(1)<<uint(n); i++ {
				for _, ch := range tr.Children(i) {
					if wp, wok := parent(ch); wp != i || !wok {
						t.Fatalf("n=%d %v: parent of %d is %d, the local function says (%d,%v)",
							n, a, ch, i, wp, wok)
					}
				}
			}
		}
	}
}

func TestSimBroadcastMatchesModel(t *testing.T) {
	// The simulator must reproduce the Table 3 T formulas for the
	// schedules the paper prescribes (up to packet-rounding).
	for _, n := range []int{4, 6} {
		p := model.Params{N: n, M: 4096, B: 256, Tau: 100, Tc: 1}
		cases := []struct {
			a  model.Algorithm
			pm model.PortModel
		}{
			{model.SBT, model.OneSendOrRecv},
			{model.SBT, model.AllPorts},
			{model.MSBT, model.OneSendAndRecv},
			{model.TCBT, model.AllPorts},
		}
		for _, c := range cases {
			cfg := sim.Config{Dim: n, Model: c.pm, Tau: p.Tau, Tc: p.Tc}
			res, err := SimBroadcast(c.a, 0, p.M, p.B, cfg)
			if err != nil {
				t.Fatalf("%v/%v: %v", c.a, c.pm, err)
			}
			want := model.BroadcastTime(c.a, c.pm, p)
			if ratio := res.Makespan / want; ratio < 0.9 || ratio > 1.1 {
				t.Errorf("n=%d %v/%v: simulated %f, model %f (ratio %f)",
					n, c.a, c.pm, res.Makespan, want, ratio)
			}
		}
	}
}

func TestSimScatterShape(t *testing.T) {
	// All-port scatter: BST beats SBT by about n/2 (Table 6 shape).
	n := 6
	N := float64(int(1) << uint(n))
	m := 4.0
	cfg := sim.Config{Dim: n, Model: model.AllPorts, Tau: 2, Tc: 1}
	resS, err := SimScatter(model.SBT, 0, m, N*m, OrderRBF, PortOriented, cfg)
	if err != nil {
		t.Fatal(err)
	}
	resB, err := SimScatter(model.BST, 0, m, m*N/float64(n), OrderRBF, RoundRobin, cfg)
	if err != nil {
		t.Fatal(err)
	}
	speedup := resS.Makespan / resB.Makespan
	if speedup < float64(n)/2*0.6 || speedup > float64(n)/2*1.8 {
		t.Errorf("BST scatter speedup %f, want ~%f", speedup, float64(n)/2)
	}
}

func TestSimBroadcastRejectsBadInput(t *testing.T) {
	cfg := sim.Config{Dim: 3, Model: model.AllPorts, Tau: 1, Tc: 1}
	if _, err := SimBroadcast(model.SBT, 0, 0, 8, cfg); err == nil {
		t.Error("M=0 accepted")
	}
	if _, err := SimBroadcast(model.BST, 0, 8, 8, cfg); err == nil {
		t.Error("BST broadcast schedule should not exist")
	}
	for _, a := range []model.Algorithm{model.HP, model.SBT, model.TCBT, model.MSBT} {
		if _, err := SimBroadcast(a, 9, 8, 8, cfg); err == nil {
			t.Errorf("%v broadcast from 9 on a 3-cube accepted", a)
		}
	}
	if _, err := SimScatter(model.BST, 9, 8, 8, OrderDF, RoundRobin, cfg); err == nil {
		t.Error("scatter from 9 on a 3-cube accepted")
	}
}

// TestLargeCubeSchedules drives full d=12 broadcast and scatter schedules
// through the simulator and checks the routing-step counts against the
// closed forms of the paper's analytic model.
func TestLargeCubeSchedules(t *testing.T) {
	if testing.Short() {
		t.Skip("large-cube simulation skipped in -short mode")
	}
	const n = 12
	N := 1 << uint(n)

	// SBT one-port broadcast, port-oriented: q packets each cross every
	// dimension in turn, so Steps = q*n (Table 2: n cycles per packet).
	q := 64
	cfg1 := sim.Config{Dim: n, Model: model.OneSendAndRecv, Tau: 1, Tc: 0}
	res, err := SimBroadcast(model.SBT, 0, float64(q), 1, cfg1)
	if err != nil {
		t.Fatalf("d=12 one-port broadcast: %v", err)
	}
	if res.Delivered != (N-1)*q {
		t.Errorf("one-port broadcast delivered %d, want %d", res.Delivered, (N-1)*q)
	}
	if want := q * n; res.Steps != want {
		t.Errorf("one-port broadcast steps %d, want q*n = %d", res.Steps, want)
	}

	// SBT all-port pipelined broadcast: Steps = q + n - 1 (fill the
	// pipeline once, then one fresh packet per step).
	cfgA := sim.Config{Dim: n, Model: model.AllPorts, Tau: 1, Tc: 0}
	res, err = SimBroadcast(model.SBT, 0, float64(q), 1, cfgA)
	if err != nil {
		t.Fatalf("d=12 all-port broadcast: %v", err)
	}
	if want := q + n - 1; res.Steps != want {
		t.Errorf("all-port broadcast steps %d, want q+n-1 = %d", res.Steps, want)
	}

	// MSBT all-port broadcast with ppt packets per tree: Steps = ppt + n
	// (Table 1's n+1 propagation plus ppt-1 of pipelining).
	ppt := 4
	xs, err := BroadcastMSBT(n, 0, ppt, 1)
	if err != nil {
		t.Fatalf("d=12 MSBT schedule: %v", err)
	}
	res, err = sim.Run(cfgA, xs)
	if err != nil {
		t.Fatalf("d=12 MSBT broadcast: %v", err)
	}
	if want := ppt + n; res.Steps != want {
		t.Errorf("MSBT broadcast steps %d, want ppt+n = %d", res.Steps, want)
	}

	// SBT one-port scatter, B >= M, reverse-breadth-first order: the root
	// is the bottleneck and emits N-1 packets back to back; farthest-first
	// ordering hides all propagation, so Steps = N - 1 (the paper's
	// optimal one-port personalized-communication time).
	res, err = SimScatter(model.SBT, 0, 1, 1, OrderRBF, PortOriented, cfg1)
	if err != nil {
		t.Fatalf("d=12 scatter: %v", err)
	}
	if want := N - 1; res.Steps != want {
		t.Errorf("one-port scatter steps %d, want N-1 = %d", res.Steps, want)
	}
}
