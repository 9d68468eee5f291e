package sim

import (
	"math"
	"testing"

	"repro/internal/fault"
	"repro/internal/model"
)

func faultCfg(n int, plan *fault.Plan) Config {
	return Config{Dim: n, Model: model.AllPorts, Tau: 1, Tc: 0.1, Faults: plan}
}

func TestDeadLinkLosesTransmission(t *testing.T) {
	plan := fault.NewPlan(2).KillLink(0, 1)
	res, err := Run(faultCfg(2, plan), []Xmit{
		{From: 0, To: 1, Elems: 4}, // severed
		{From: 0, To: 2, Elems: 4}, // unaffected
	})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Lost[0] || res.Lost[1] {
		t.Fatalf("Lost = %v, want [true false]", res.Lost)
	}
	if !math.IsNaN(res.Finish[0]) {
		t.Errorf("lost transmission has finish time %v", res.Finish[0])
	}
	if res.Delivered != 1 {
		t.Errorf("Delivered = %d, want 1 of 2", res.Delivered)
	}
	if want := 1 + 4*0.1; res.Makespan != want {
		t.Errorf("Makespan = %v, want %v (the surviving transmission only)", res.Makespan, want)
	}
}

func TestLossPropagatesThroughDependencies(t *testing.T) {
	// 0 -> 1 -> 3: killing node 1 loses the first hop and, transitively,
	// the forward that depends on it.
	plan := fault.NewPlan(2).KillNode(1)
	res, err := Run(faultCfg(2, plan), []Xmit{
		{From: 0, To: 1, Elems: 4},
		{From: 1, To: 3, Elems: 4, Deps: []int{0}},
		{From: 0, To: 2, Elems: 4},
		{From: 2, To: 3, Elems: 4, Deps: []int{2}},
	})
	if err != nil {
		t.Fatal(err)
	}
	want := []bool{true, true, false, false}
	for i := range want {
		if res.Lost[i] != want[i] {
			t.Fatalf("Lost = %v, want %v", res.Lost, want)
		}
	}
	if res.Delivered != 2 {
		t.Errorf("Delivered = %d, want 2", res.Delivered)
	}
	if want := 2 * (1 + 4*0.1); res.Makespan != want {
		t.Errorf("Makespan = %v, want %v (the two-hop live path)", res.Makespan, want)
	}
}

func TestNilAndEmptyPlansMatch(t *testing.T) {
	xs := []Xmit{
		{From: 0, To: 1, Elems: 8},
		{From: 1, To: 3, Elems: 8, Deps: []int{0}},
	}
	plain, err := Run(Config{Dim: 2, Model: model.OneSendOrRecv, Tau: 1, Tc: 0.5}, xs)
	if err != nil {
		t.Fatal(err)
	}
	faulty, err := Run(faultCfg(2, fault.NewPlan(2)), append([]Xmit(nil), xs...))
	if err != nil {
		t.Fatal(err)
	}
	if faulty.Delivered != 2 {
		t.Errorf("empty plan lost transmissions: %+v", faulty)
	}
	if plain.Delivered != 2 {
		t.Errorf("fault-free run reports Delivered = %d", plain.Delivered)
	}
	for i := range xs {
		if faulty.Lost[i] {
			t.Errorf("empty plan marked transmission %d lost", i)
		}
	}
}
