package model

import (
	"math"
	"testing"
)

func TestHPCrossoverExistsAndIsMonotone(t *testing.T) {
	// For every small dimension the HP eventually beats the one-port SBT
	// (slope tc vs log N * tc), and the crossover message size grows with
	// the cube size (more pipeline fill to amortize).
	prev := 0.0
	for _, n := range []int{2, 3, 4, 5, 6, 7} {
		m := HPSBTCrossoverM(n, 100, 1)
		if math.IsInf(m, 1) {
			t.Fatalf("n=%d: no crossover found", n)
		}
		p := Params{N: n, M: m * 2, Tau: 100, Tc: 1}
		if !hpBeatsSBT(p) {
			t.Errorf("n=%d: HP does not win at 2x the crossover", n)
		}
		if m > 1 { // m == 1 means HP wins everywhere (n = 2: N-3 = 1)
			p.M = m / 4
			if hpBeatsSBT(p) {
				t.Errorf("n=%d: HP already wins at a quarter of the crossover", n)
			}
		}
		if m <= prev {
			t.Errorf("n=%d: crossover %.0f not larger than previous %.0f", n, m, prev)
		}
		prev = m
	}
}

func TestHPCrossoverScalesWithTau(t *testing.T) {
	// A larger start-up time penalizes the HP's N-3 pipeline-fill steps,
	// pushing the crossover upward.
	small := HPSBTCrossoverM(5, 10, 1)
	large := HPSBTCrossoverM(5, 1000, 1)
	if large <= small {
		t.Errorf("crossover did not grow with tau: %.0f vs %.0f", small, large)
	}
}

func TestHPBeatsTCBTSometimes(t *testing.T) {
	// The paper's remark covers TCBT too: with streaming-sized messages
	// the HP's 1 cycle/packet beats TCBT's 2.
	p := Params{N: 4, M: 1 << 22, Tau: 1, Tc: 1}
	if !hpBeatsTCBT(p) {
		t.Error("HP should beat TCBT for huge messages on a small cube")
	}
	p = Params{N: 10, M: 16, Tau: 1000, Tc: 1}
	if hpBeatsTCBT(p) {
		t.Error("HP should lose to TCBT for tiny messages on a big cube")
	}
}

func TestCrossoverAgreesWithSimulatedShape(t *testing.T) {
	// Spot-check against the T formulas directly at the boundary: the two
	// optima should be within 1% of each other at M = crossover.
	n := 5
	m := HPSBTCrossoverM(n, 100, 1)
	p := Params{N: n, M: m, Tau: 100, Tc: 1}
	hp := BroadcastTmin(HP, OneSendAndRecv, p)
	sbt := BroadcastTmin(SBT, OneSendAndRecv, p)
	if rel := math.Abs(hp-sbt) / sbt; rel > 0.01 {
		t.Errorf("at crossover M=%.0f: HP %.1f vs SBT %.1f (rel %.3f)", m, hp, sbt, rel)
	}
}
