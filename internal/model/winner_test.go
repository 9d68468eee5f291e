package model

import "testing"

func TestMSBTNearOptimalEverywhere(t *testing.T) {
	// Table 4's first column: in the one-packet regime the SBT beats the
	// MSBT by the small factor log N / (log N + 1); everywhere else the
	// MSBT wins. So the MSBT is always within (n+1)/n of the best.
	for _, pm := range PortModels {
		for _, n := range []int{4, 6, 8, 10} {
			for _, m := range []float64{1, 64, 4096, 1 << 20} {
				p := Params{N: n, M: m, Tau: 100, Tc: 1}
				_, tBest := bestBroadcast(pm, p)
				msbt := BroadcastTmin(MSBT, pm, p)
				if bound := tBest * float64(n+1) / float64(n) * 1.01; msbt > bound {
					t.Errorf("%v n=%d M=%.0f: MSBT %.1f above bound %.1f",
						pm, n, m, msbt, bound)
				}
			}
		}
	}
}

func TestMSBTWinsStreaming(t *testing.T) {
	// For messages much larger than tau the MSBT strictly wins under
	// every port model.
	for _, pm := range PortModels {
		for _, n := range []int{4, 6, 8, 10} {
			p := Params{N: n, M: 1 << 20, Tau: 100, Tc: 1}
			if w, _ := bestBroadcast(pm, p); w != MSBT {
				t.Errorf("%v n=%d: streaming winner %v, want MSBT", pm, n, w)
			}
		}
	}
}

func TestBSTWinsAllPortScatter(t *testing.T) {
	for _, n := range []int{5, 7, 10} {
		p := Params{N: n, M: 64, Tau: 10, Tc: 1}
		w, _ := bestScatter(AllPorts, p)
		if w != BST {
			t.Errorf("n=%d: all-port scatter winner %v, want BST", n, w)
		}
	}
}

func TestSBTWinsOnePortScatter(t *testing.T) {
	// One port at a time: the SBT's log N start-ups beat the BST's
	// 2 log N - 2 and the TCBT's bound (§4.3).
	p := Params{N: 8, M: 64, Tau: 1000, Tc: 1}
	w, _ := bestScatter(OneSendAndRecv, p)
	if w != SBT {
		t.Errorf("one-port scatter winner %v, want SBT", w)
	}
}

func TestWinnerMapBandsAreContiguous(t *testing.T) {
	bands := broadcastWinnerMap(OneSendAndRecv, 6, 100, 1, 1, 1<<20, 2)
	if len(bands) == 0 {
		t.Fatal("no bands")
	}
	for i := 1; i < len(bands); i++ {
		if bands[i].Winner == bands[i-1].Winner {
			t.Errorf("adjacent bands share winner %v", bands[i].Winner)
		}
		if bands[i].FromM <= bands[i-1].ToM {
			t.Errorf("bands overlap: %v then %v", bands[i-1], bands[i])
		}
	}
	// Under duplex the map has exactly two bands: the SBT's slight
	// one-packet edge (log N vs log N + 1 start-ups), then MSBT forever.
	if len(bands) != 2 || bands[0].Winner != SBT || bands[1].Winner != MSBT {
		t.Errorf("expected [SBT, MSBT] bands, got %v", bands)
	}
}

func TestWinnerMapWithoutMSBTShowsHPCrossover(t *testing.T) {
	// Restricting to the pre-MSBT world (HP vs SBT vs TCBT) recovers the
	// §3.4 remark: the SBT wins small messages, the HP wins huge ones.
	old := broadcastAlgorithms
	broadcastAlgorithms = []Algorithm{HP, SBT, TCBT}
	defer func() { broadcastAlgorithms = old }()
	bands := broadcastWinnerMap(OneSendAndRecv, 5, 100, 1, 1, 1<<26, 2)
	if len(bands) < 2 {
		t.Fatalf("expected a crossover, got %v", bands)
	}
	if bands[0].Winner != SBT {
		t.Errorf("small-message winner %v, want SBT", bands[0].Winner)
	}
	if bands[len(bands)-1].Winner != HP {
		t.Errorf("large-message winner %v, want HP", bands[len(bands)-1].Winner)
	}
}

// broadcastAlgorithms lists the broadcast candidates in Table 3 order.
var broadcastAlgorithms = []Algorithm{HP, SBT, TCBT, MSBT}

// scatterAlgorithms lists the personalized-communication candidates.
var scatterAlgorithms = []Algorithm{SBT, TCBT, BST}

// bestBroadcast returns the algorithm with the smallest T_min for the
// given parameters and port model, and that time. The HP has no all-port
// row (extra ports cannot help a path), so it competes with its
// full-duplex time there.
func bestBroadcast(pm PortModel, p Params) (Algorithm, float64) {
	best := Algorithm(-1)
	bestT := 0.0
	for _, a := range broadcastAlgorithms {
		eff := pm
		if a == HP && pm == AllPorts {
			eff = OneSendAndRecv
		}
		t := BroadcastTmin(a, eff, p)
		if best < 0 || t < bestT {
			best, bestT = a, t
		}
	}
	return best, bestT
}

// bestScatter returns the scatter algorithm with the smallest Table 6
// T_min for the given parameters and port model, and that time.
func bestScatter(pm PortModel, p Params) (Algorithm, float64) {
	best := Algorithm(-1)
	bestT := 0.0
	for _, a := range scatterAlgorithms {
		t := ScatterTmin(a, pm, p)
		if best < 0 || t < bestT {
			best, bestT = a, t
		}
	}
	return best, bestT
}

// winnerBand is a maximal message-size interval with a single best
// algorithm.
type winnerBand struct {
	FromM, ToM float64 // inclusive sample bounds; ToM == FromM for single samples
	Winner     Algorithm
}

// broadcastWinnerMap sweeps M geometrically from mLo to mHi (inclusive,
// factor step) and returns the bands of best broadcast algorithms.
func broadcastWinnerMap(pm PortModel, n int, tau, tc, mLo, mHi, step float64) []winnerBand {
	var bands []winnerBand
	for m := mLo; m <= mHi; m *= step {
		p := Params{N: n, M: m, Tau: tau, Tc: tc}
		w, _ := bestBroadcast(pm, p)
		if len(bands) > 0 && bands[len(bands)-1].Winner == w {
			bands[len(bands)-1].ToM = m
			continue
		}
		bands = append(bands, winnerBand{FromM: m, ToM: m, Winner: w})
	}
	return bands
}
