package sched

import (
	"math"
	"testing"

	"repro/internal/model"
	"repro/internal/sbt"
	"repro/internal/sim"
)

func TestGatherSmallPackets(t *testing.T) {
	// B < M: every upward hop fragments; total volume is conserved and
	// the simulator still completes.
	tr := sbt.Cached(4, 0)
	xs, err := gatherTree(tr, 10, 3)
	if err != nil {
		t.Fatal(err)
	}
	var toRoot float64
	for _, x := range xs {
		if x.Elems > 3 {
			t.Fatalf("fragment of %f elements exceeds B=3", x.Elems)
		}
		if x.To == 0 {
			toRoot += x.Elems
		}
	}
	if want := 10.0 * 15; toRoot != want {
		t.Errorf("root ingress %f, want %f", toRoot, want)
	}
	res, err := sim.Run(sim.Config{Dim: 4, Model: model.OneSendAndRecv, Tau: 1, Tc: 1}, xs)
	if err != nil {
		t.Fatal(err)
	}
	if res.Makespan <= 0 {
		t.Error("empty gather run")
	}
}

func TestScatterSingleNodeSubcube(t *testing.T) {
	// Dimension 1: one destination, one hop, everything degenerate but
	// well-formed.
	tr := sbt.Cached(1, 0)
	xs, err := scatterTree(tr, 5, 2, OrderDF, RoundRobin)
	if err != nil {
		t.Fatal(err)
	}
	if len(xs) != 3 { // ceil(5/2) fragments to the single destination
		t.Fatalf("%d transmissions", len(xs))
	}
	res, err := sim.Run(sim.Config{Dim: 1, Model: model.OneSendOrRecv, Tau: 1, Tc: 1}, xs)
	if err != nil {
		t.Fatal(err)
	}
	if want := 3*1 + 5.0; math.Abs(res.Makespan-want) > 1e-9 {
		t.Errorf("makespan %f, want %f", res.Makespan, want)
	}
}

func TestBroadcastSingleNodeTree(t *testing.T) {
	tr := sbt.Cached(1, 1)
	xs := BroadcastPipelined(tr, 3, 2)
	if len(xs) != 3 {
		t.Fatalf("%d transmissions", len(xs))
	}
	for _, x := range xs {
		if x.From != 1 || x.To != 0 {
			t.Fatalf("wrong edge %d->%d", x.From, x.To)
		}
	}
}

func TestBroadcastMSBTDimensionOne(t *testing.T) {
	xs, err := BroadcastMSBT(1, 0, 2, 1)
	if err != nil {
		t.Fatal(err)
	}
	res, err := sim.Run(sim.Config{Dim: 1, Model: model.OneSendAndRecv, Tau: 1, Tc: 0}, xs)
	if err != nil {
		t.Fatal(err)
	}
	if res.Steps != 2 {
		t.Errorf("steps %d", res.Steps)
	}
}
