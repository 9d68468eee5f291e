package model

import "math"

// The paper (§3.4) remarks: "Interestingly, broadcasting through a
// Hamiltonian Path on a hypercube may be faster than broadcasting based on
// the SBT or even the TCBT, depending on the values of M, t_c, tau and N."
// The functions below quantify that remark: the HP pays N-3 extra
// pipeline-fill steps but only 1 cycle per packet, while the one-port SBT
// pays log N cycles per packet — so for large enough M/tau the path wins.

// hpBeatsSBT reports whether the Hamiltonian-path broadcast is faster than
// the one-port SBT broadcast at optimal packet sizes under the given
// parameters (full-duplex one-port for both).
func hpBeatsSBT(p Params) bool {
	return BroadcastTmin(HP, OneSendAndRecv, p) < BroadcastTmin(SBT, OneSendAndRecv, p)
}

// HPSBTCrossoverM returns the message size M* above which the
// Hamiltonian-path broadcast beats the one-port SBT broadcast at optimal
// packet sizes (both full duplex), for the given n, tau and t_c. Returns
// +Inf if the HP never wins below the search cap (2^40 elements).
//
// Derivation sketch: T_HP = (sqrt(M tc) + sqrt((N-3) tau))^2 grows like
// M tc, while T_SBT = log N (M tc + tau) grows like log N * M tc; for
// M tc >> tau both are linear in M with slopes tc and log N tc, so the
// HP always wins eventually (log N >= 2) — the crossover is where the
// HP's huge pipeline-fill term (N-3) tau is amortized.
func HPSBTCrossoverM(n int, tau, tc float64) float64 {
	lo, hi := 1.0, math.Pow(2, 40)
	p := Params{N: n, Tau: tau, Tc: tc}
	at := func(m float64) bool {
		p.M = m
		return hpBeatsSBT(p)
	}
	if at(lo) {
		return lo
	}
	if !at(hi) {
		return math.Inf(1)
	}
	for i := 0; i < 200 && hi/lo > 1.0001; i++ {
		mid := math.Sqrt(lo * hi)
		if at(mid) {
			hi = mid
		} else {
			lo = mid
		}
	}
	return hi
}
