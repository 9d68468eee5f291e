package model

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
