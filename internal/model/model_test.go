package model

import (
	"math"
	"testing"
)

func almostEq(a, b float64) bool {
	if a == b {
		return true
	}
	d := math.Abs(a - b)
	return d <= 1e-9*math.Max(math.Abs(a), math.Abs(b))
}

func TestTable1Golden(t *testing.T) {
	// Paper Table 1 for symbolic n, checked at several dimensions.
	for _, n := range []int{3, 5, 7, 10} {
		N := 1 << uint(n)
		cases := []struct {
			a    Algorithm
			pm   PortModel
			want int
		}{
			{HP, OneSendOrRecv, N - 1}, {HP, OneSendAndRecv, N - 1}, {HP, AllPorts, N - 1},
			{SBT, OneSendOrRecv, n}, {SBT, OneSendAndRecv, n}, {SBT, AllPorts, n},
			{TCBT, OneSendOrRecv, 2*n - 2}, {TCBT, OneSendAndRecv, 2*n - 2}, {TCBT, AllPorts, n},
			{MSBT, OneSendOrRecv, 3*n - 1}, {MSBT, OneSendAndRecv, 2 * n}, {MSBT, AllPorts, n + 1},
		}
		for _, c := range cases {
			if got := PropagationDelay(c.a, c.pm, n); got != c.want {
				t.Errorf("n=%d %v/%v: delay %d, want %d", n, c.a, c.pm, got, c.want)
			}
		}
	}
}

func TestTable2Golden(t *testing.T) {
	for _, n := range []int{3, 5, 7, 10} {
		cases := []struct {
			a    Algorithm
			pm   PortModel
			want float64
		}{
			{HP, OneSendOrRecv, 2}, {HP, OneSendAndRecv, 1}, {HP, AllPorts, 1},
			{SBT, OneSendOrRecv, float64(n)}, {SBT, OneSendAndRecv, float64(n)}, {SBT, AllPorts, 1},
			{TCBT, OneSendOrRecv, 3}, {TCBT, OneSendAndRecv, 2}, {TCBT, AllPorts, 1},
			{MSBT, OneSendOrRecv, 2}, {MSBT, OneSendAndRecv, 1}, {MSBT, AllPorts, 1 / float64(n)},
		}
		for _, c := range cases {
			if got := CyclesPerPacket(c.a, c.pm, n); !almostEq(got, c.want) {
				t.Errorf("n=%d %v/%v: cycles %f, want %f", n, c.a, c.pm, got, c.want)
			}
		}
	}
}

func TestBroadcastTimeMatchesFormulas(t *testing.T) {
	p := Params{N: 6, M: 1024, B: 64, Tau: 100, Tc: 1}
	n, N := 6.0, 64.0
	q := math.Ceil(p.M / p.B)
	cost := p.Tau + p.B*p.Tc
	cases := []struct {
		a    Algorithm
		pm   PortModel
		want float64
	}{
		{HP, OneSendOrRecv, (2*q + N - 3) * cost},
		{HP, OneSendAndRecv, (q + N - 3) * cost},
		{SBT, OneSendOrRecv, q * n * cost},
		{SBT, AllPorts, (q + n - 1) * cost},
		{TCBT, OneSendOrRecv, (3*q + 2*n - 5) * cost},
		{TCBT, OneSendAndRecv, 2 * (q + n - 2) * cost},
		{TCBT, AllPorts, (q + n - 1) * cost},
		{MSBT, OneSendOrRecv, (2*q + n - 1) * cost},
		{MSBT, OneSendAndRecv, (q + n) * cost},
		{MSBT, AllPorts, (math.Ceil(p.M/(p.B*n)) + n) * cost},
	}
	for _, c := range cases {
		if got := BroadcastTime(c.a, c.pm, p); !almostEq(got, c.want) {
			t.Errorf("%v/%v: T = %f, want %f", c.a, c.pm, got, c.want)
		}
	}
}

func TestBoptMinimizesBroadcastTime(t *testing.T) {
	// T(B_opt) must be no worse than T at nearby packet sizes, for every
	// algorithm and port model with a nontrivial optimum. (The closed
	// forms ignore the ceiling; allow 5% slack.)
	base := Params{N: 8, M: 4096, Tau: 500, Tc: 1}
	type ap struct {
		a  Algorithm
		pm PortModel
	}
	for _, c := range []ap{
		{HP, OneSendOrRecv}, {HP, OneSendAndRecv},
		{SBT, AllPorts},
		{TCBT, OneSendOrRecv}, {TCBT, OneSendAndRecv}, {TCBT, AllPorts},
		{MSBT, OneSendOrRecv}, {MSBT, OneSendAndRecv}, {MSBT, AllPorts},
	} {
		p := base
		p.B = BroadcastBopt(c.a, c.pm, p)
		if p.B <= 0 || math.IsNaN(p.B) {
			t.Errorf("%v/%v: bad B_opt %f", c.a, c.pm, p.B)
			continue
		}
		opt := BroadcastTime(c.a, c.pm, p)
		for _, factor := range []float64{0.25, 0.5, 2, 4} {
			q := base
			q.B = p.B * factor
			if got := BroadcastTime(c.a, c.pm, q); got < opt*0.95 {
				t.Errorf("%v/%v: T(%f*Bopt) = %f < T(Bopt) = %f", c.a, c.pm, factor, got, opt)
			}
		}
	}
}

func TestTminAtBopt(t *testing.T) {
	// T_min should approximate T(B_opt) up to ceiling effects: within 10%.
	base := Params{N: 8, M: 4096, Tau: 500, Tc: 1}
	for _, a := range []Algorithm{HP, SBT, TCBT, MSBT} {
		for _, pm := range PortModels {
			if a == HP && pm == AllPorts {
				continue // extra ports do not help a path; no Table 3 row
			}
			p := base
			p.B = BroadcastBopt(a, pm, p)
			tm := BroadcastTmin(a, pm, p)
			tb := BroadcastTime(a, pm, p)
			if tm <= 0 || tb <= 0 {
				t.Errorf("%v/%v: nonpositive time", a, pm)
				continue
			}
			if r := tb / tm; r < 0.90 || r > 1.15 {
				t.Errorf("%v/%v: T(Bopt)/Tmin = %f", a, pm, r)
			}
		}
	}
}

func TestTable4Golden(t *testing.T) {
	n := 10
	ln := float64(n)
	cases := []struct {
		a    Algorithm
		pm   PortModel
		r    Regime
		want float64
	}{
		{SBT, OneSendOrRecv, RegimeOnePacket, ln / (ln + 1)},
		{SBT, OneSendOrRecv, RegimeManyPackets, ln / 2},
		{SBT, OneSendOrRecv, RegimeStartupBound, 1},
		{SBT, OneSendOrRecv, RegimeTransferBound, ln / 2},
		{TCBT, OneSendOrRecv, RegimeOnePacket, (2*ln - 2) / (ln + 1)},
		{TCBT, OneSendOrRecv, RegimeManyPackets, 1.5},
		{TCBT, OneSendOrRecv, RegimeStartupBound, 2},
		{TCBT, OneSendOrRecv, RegimeTransferBound, 1.5},
		{SBT, OneSendAndRecv, RegimeManyPackets, ln},
		{TCBT, OneSendAndRecv, RegimeManyPackets, 2},
		{SBT, AllPorts, RegimeManyPackets, ln},
		{TCBT, AllPorts, RegimeManyPackets, ln},
		{SBT, AllPorts, RegimeStartupBound, 1},
	}
	for _, c := range cases {
		if got := BroadcastRatio(c.a, c.pm, c.r, n); !almostEq(got, c.want) {
			t.Errorf("%v/%v/%v: ratio %f, want %f", c.a, c.pm, c.r, got, c.want)
		}
	}
}

func TestRatiosConsistentWithTimes(t *testing.T) {
	// In the bandwidth-bound streaming regime (M/B >> log N), the closed-
	// form ratio must match the ratio of the T formulas.
	p := Params{N: 10, M: 1 << 20, B: 1, Tau: 0.0, Tc: 1}
	for _, pm := range PortModels {
		for _, a := range []Algorithm{SBT, TCBT} {
			want := BroadcastRatio(a, pm, RegimeManyPackets, p.N)
			got := BroadcastTime(a, pm, p) / BroadcastTime(MSBT, pm, p)
			if math.Abs(got-want)/want > 0.02 {
				t.Errorf("%v/%v: time ratio %f, table %f", a, pm, got, want)
			}
		}
	}
}

func TestTable6Golden(t *testing.T) {
	p := Params{N: 7, M: 16, Tau: 100, Tc: 1}
	n := 7.0
	N := 128.0
	cases := []struct {
		a    Algorithm
		pm   PortModel
		want float64
	}{
		{SBT, OneSendAndRecv, (N-1)*p.M*p.Tc + n*p.Tau},
		{SBT, AllPorts, N/2*p.M*p.Tc + n*p.Tau},
		{TCBT, OneSendAndRecv, (2*N-2*n-1)*p.M*p.Tc + (2*n-2)*p.Tau},
		{TCBT, AllPorts, (0.75*N-1)*p.M*p.Tc + n*p.Tau},
		{BST, OneSendAndRecv, N*(1+2*math.Log2(n)/n)*p.M*p.Tc + (2*n-2)*p.Tau},
		{BST, AllPorts, (N-1)/n*p.M*p.Tc + n*p.Tau},
	}
	for _, c := range cases {
		if got := ScatterTmin(c.a, c.pm, p); !almostEq(got, c.want) {
			t.Errorf("%v/%v: scatter Tmin %f, want %f", c.a, c.pm, got, c.want)
		}
	}
}

func TestScatterHeadline(t *testing.T) {
	// The paper's headline: with all-port communication the BST beats the
	// SBT by ~ (1/2) log N in scatter.
	for _, n := range []int{8, 10, 12, 14} {
		p := Params{N: n, M: 64, Tau: 1, Tc: 1}
		speedup := ScatterTmin(SBT, AllPorts, p) / ScatterTmin(BST, AllPorts, p)
		want := float64(n) / 2
		if speedup < want*0.8 || speedup > want*1.2 {
			t.Errorf("n=%d: BST scatter speedup %f, want ~%f", n, speedup, want)
		}
	}
}

func TestScatterTimeRegimes(t *testing.T) {
	p := Params{N: 8, M: 32, Tau: 50, Tc: 1}
	// One-port SBT and BST coincide for B <= M (paper §4.3).
	p.B = 16
	sbt := ScatterTime(SBT, OneSendAndRecv, p)
	bst := ScatterTime(BST, OneSendAndRecv, p)
	if math.Abs(sbt-bst)/sbt > 0.05 {
		t.Errorf("one-port small-B scatter should coincide: SBT %f BST %f", sbt, bst)
	}
	// All-port BST at B = M: T ~ (N-1)/n (tau + M tc).
	p.B = p.M
	got := ScatterTime(BST, AllPorts, p)
	want := (256.0 - 1) / 8 * (p.Tau + p.M*p.Tc)
	if !almostEq(got, want) {
		t.Errorf("BST all-port B=M: %f want %f", got, want)
	}
	// Larger packets reduce one-port BST time toward the Table 6 bound.
	small := ScatterTime(BST, OneSendAndRecv, Params{N: 8, M: 32, B: 32, Tau: 50, Tc: 1})
	large := ScatterTime(BST, OneSendAndRecv, Params{N: 8, M: 32, B: 32 * 32, Tau: 50, Tc: 1})
	if large >= small {
		t.Errorf("larger packets should reduce one-port BST scatter: %f -> %f", small, large)
	}
}

func TestSpeedupMSBToverSBTShape(t *testing.T) {
	// Figure 7's shape: with the iPSC-like setup (one-port, B fixed at the
	// internal packet size, M/B >> log N), the speedup grows like ~ log N / 2
	// under half-duplex and ~ log N under full-duplex.
	for _, n := range []int{4, 5, 6} {
		p := Params{N: n, M: 60 * 1024, B: 1024, Tau: 1000, Tc: 1}
		fd := speedupMSBToverSBT(OneSendAndRecv, p)
		if want := float64(n); math.Abs(fd-want)/want > 0.15 {
			t.Errorf("n=%d: full-duplex speedup %f, want ~%f", n, fd, want)
		}
		hd := speedupMSBToverSBT(OneSendOrRecv, p)
		if want := float64(n) / 2; math.Abs(hd-want)/want > 0.2 {
			t.Errorf("n=%d: half-duplex speedup %f, want ~%f", n, hd, want)
		}
	}
}

func TestStringers(t *testing.T) {
	if HP.String() != "HP" || BST.String() != "BST" {
		t.Error("Algorithm strings")
	}
	if OneSendOrRecv.String() != "1 s or r" || AllPorts.String() != "all ports" {
		t.Error("PortModel strings")
	}
	if RegimeOnePacket.String() == "" || RegimeTransferBound.String() == "" {
		t.Error("Regime strings")
	}
	if Algorithm(99).String() == "" || PortModel(99).String() == "" || Regime(99).String() == "" {
		t.Error("unknown enums must still print")
	}
}

// speedupMSBToverSBT returns the predicted broadcast speedup of MSBT over
// SBT for the given parameters and port model — the quantity Figure 7
// plots (measured ~ log N on the iPSC).
func speedupMSBToverSBT(pm PortModel, p Params) float64 {
	return BroadcastTime(SBT, pm, p) / BroadcastTime(MSBT, pm, p)
}
