// Package model implements the closed-form communication-complexity
// estimates of Ho & Johnsson (ICPP 1986): propagation delays (Table 1),
// steady-state cycles per distinct packet (Table 2), broadcast complexity
// T / B_opt / T_min for every algorithm and port model (Table 3), the
// complexity ratios relative to MSBT routing (Table 4), and the
// personalized-communication (scatter) complexities (Table 6).
//
// Conventions follow the paper: a packet of B elements costs tau + B*t_c
// on one link; M is the number of elements each destination receives;
// n = log2 N is the cube dimension. Times are in whatever unit tau and
// t_c are expressed in.
package model

import (
	"fmt"
	"math"
)

// PortModel is the per-node communication capability assumed by the
// analysis.
type PortModel int

const (
	// OneSendOrRecv: a node performs at most one send OR one receive per
	// cycle (half-duplex single port).
	OneSendOrRecv PortModel = iota
	// OneSendAndRecv: one send concurrently with one receive (full-duplex
	// single port). This is the paper's "1 s and r" column and the closest
	// match to the Intel iPSC behaviour with overlap.
	OneSendAndRecv
	// AllPorts: concurrent communication on all log N ports.
	AllPorts
)

func (p PortModel) String() string {
	switch p {
	case OneSendOrRecv:
		return "1 s or r"
	case OneSendAndRecv:
		return "1 s and r"
	case AllPorts:
		return "all ports"
	}
	return fmt.Sprintf("PortModel(%d)", int(p))
}

// PortModels lists the three models in the paper's column order.
var PortModels = []PortModel{OneSendOrRecv, OneSendAndRecv, AllPorts}

// Algorithm identifies a routing structure.
type Algorithm int

const (
	HP   Algorithm = iota // Hamiltonian path (Gray code)
	SBT                   // spanning binomial tree
	TCBT                  // two-rooted complete binary tree
	MSBT                  // multiple spanning binomial trees
	BST                   // balanced spanning tree
)

func (a Algorithm) String() string {
	switch a {
	case HP:
		return "HP"
	case SBT:
		return "SBT"
	case TCBT:
		return "TCBT"
	case MSBT:
		return "MSBT"
	case BST:
		return "BST"
	}
	return fmt.Sprintf("Algorithm(%d)", int(a))
}

// Params carries the cost-model parameters.
type Params struct {
	N   int     // cube dimension n (so the machine has 2^n nodes)
	M   float64 // elements per destination
	B   float64 // maximum packet size, in elements
	Tau float64 // start-up time per packet
	Tc  float64 // transfer time per element
}

// Nodes returns 2^n.
func (p Params) Nodes() float64 { return math.Pow(2, float64(p.N)) }

// PropagationDelay returns the Table 1 entry: the number of routing steps
// for the first packet to reach every node.
func PropagationDelay(a Algorithm, pm PortModel, n int) int {
	N := 1 << uint(n)
	switch a {
	case HP:
		return N - 1
	case SBT:
		return n
	case TCBT:
		if pm == AllPorts {
			return n
		}
		return 2*n - 2
	case MSBT:
		switch pm {
		case OneSendOrRecv:
			return 3*n - 1
		case OneSendAndRecv:
			return 2 * n
		default:
			return n + 1
		}
	}
	panic("model: no propagation delay for " + a.String())
}

// CyclesPerPacket returns the Table 2 entry: the steady-state number of
// routing cycles consumed per distinct broadcast packet.
func CyclesPerPacket(a Algorithm, pm PortModel, n int) float64 {
	switch a {
	case HP:
		if pm == OneSendOrRecv {
			return 2
		}
		return 1
	case SBT:
		if pm == AllPorts {
			return 1
		}
		return float64(n)
	case TCBT:
		switch pm {
		case OneSendOrRecv:
			return 3
		case OneSendAndRecv:
			return 2
		default:
			return 1
		}
	case MSBT:
		switch pm {
		case OneSendOrRecv:
			return 2
		case OneSendAndRecv:
			return 1
		default:
			return 1 / float64(n)
		}
	}
	panic("model: no cycles-per-packet for " + a.String())
}

// packets returns ceil(M/B).
func packets(M, B float64) float64 { return math.Ceil(M / B) }

// BroadcastTime returns the Table 3 T column: the time to broadcast M
// elements with maximum packet size B.
func BroadcastTime(a Algorithm, pm PortModel, p Params) float64 {
	n := float64(p.N)
	N := p.Nodes()
	cost := p.Tau + p.B*p.Tc
	q := packets(p.M, p.B)
	switch a {
	case HP:
		switch pm {
		case OneSendOrRecv:
			return (2*q + N - 3) * cost
		case OneSendAndRecv:
			return (q + N - 3) * cost
		}
	case SBT:
		switch pm {
		case OneSendOrRecv, OneSendAndRecv:
			// The SBT algorithm halves the problem log N times; duplex
			// capability does not help because each node talks on one port
			// at a time anyway.
			return q * n * cost
		case AllPorts:
			return (q + n - 1) * cost
		}
	case TCBT:
		switch pm {
		case OneSendOrRecv:
			return (3*q + 2*n - 5) * cost
		case OneSendAndRecv:
			return 2 * (q + n - 2) * cost
		case AllPorts:
			return (q + n - 1) * cost
		}
	case MSBT:
		switch pm {
		case OneSendOrRecv:
			return (2*q + n - 1) * cost
		case OneSendAndRecv:
			return (q + n) * cost
		case AllPorts:
			return (math.Ceil(p.M/(p.B*n)) + n) * cost
		}
	}
	panic("model: no broadcast time for " + a.String() + "/" + pm.String())
}

// BroadcastBopt returns the Table 3 B_opt column: the packet size
// minimizing BroadcastTime.
func BroadcastBopt(a Algorithm, pm PortModel, p Params) float64 {
	n := float64(p.N)
	N := p.Nodes()
	switch a {
	case HP:
		switch pm {
		case OneSendOrRecv:
			return math.Sqrt(2 * p.M * p.Tau / ((N - 3) * p.Tc))
		case OneSendAndRecv:
			return math.Sqrt(p.M * p.Tau / ((N - 3) * p.Tc))
		}
	case SBT:
		switch pm {
		case OneSendOrRecv, OneSendAndRecv:
			return p.M
		case AllPorts:
			return math.Sqrt(p.M * p.Tau / ((n - 1) * p.Tc))
		}
	case TCBT:
		switch pm {
		case OneSendOrRecv:
			return math.Sqrt(3 * p.M * p.Tau / ((2*n - 5) * p.Tc))
		case OneSendAndRecv:
			return math.Sqrt(p.M * p.Tau / ((n - 2) * p.Tc))
		case AllPorts:
			return math.Sqrt(p.M * p.Tau / (p.Tc * (n - 1)))
		}
	case MSBT:
		switch pm {
		case OneSendOrRecv:
			return math.Sqrt(2 * p.M * p.Tau / (p.Tc * (n - 1)))
		case OneSendAndRecv:
			return math.Sqrt(p.M * p.Tau / (p.Tc * n))
		case AllPorts:
			return math.Sqrt(p.M*p.Tau/p.Tc) / n
		}
	}
	panic("model: no B_opt for " + a.String() + "/" + pm.String())
}

// BroadcastTmin returns the Table 3 T_min column: the broadcast time at
// the optimal packet size.
func BroadcastTmin(a Algorithm, pm PortModel, p Params) float64 {
	n := float64(p.N)
	N := p.Nodes()
	sq := func(x float64) float64 { return x * x }
	switch a {
	case HP:
		switch pm {
		case OneSendOrRecv:
			return sq(math.Sqrt(2*p.M*p.Tc) + math.Sqrt((N-3)*p.Tau))
		case OneSendAndRecv:
			return sq(math.Sqrt(p.M*p.Tc) + math.Sqrt((N-3)*p.Tau))
		}
	case SBT:
		switch pm {
		case OneSendOrRecv, OneSendAndRecv:
			return n * (p.M*p.Tc + p.Tau)
		case AllPorts:
			return sq(math.Sqrt(p.M*p.Tc) + math.Sqrt(p.Tau*(n-1)))
		}
	case TCBT:
		switch pm {
		case OneSendOrRecv:
			return sq(math.Sqrt(3*p.M*p.Tc) + math.Sqrt(p.Tau*(2*n-5)))
		case OneSendAndRecv:
			return 2 * sq(math.Sqrt(p.M*p.Tc)+math.Sqrt(p.Tau*(n-2)))
		case AllPorts:
			return sq(math.Sqrt(p.M*p.Tc) + math.Sqrt(p.Tau*(n-1)))
		}
	case MSBT:
		switch pm {
		case OneSendOrRecv:
			return sq(math.Sqrt(2*p.M*p.Tc) + math.Sqrt(p.Tau*(n-1)))
		case OneSendAndRecv:
			return sq(math.Sqrt(p.M*p.Tc) + math.Sqrt(p.Tau*n))
		case AllPorts:
			return sq(math.Sqrt(p.M*p.Tc/n) + math.Sqrt(p.Tau*n))
		}
	}
	panic("model: no T_min for " + a.String() + "/" + pm.String())
}

// Regime selects a column of Table 4.
type Regime int

const (
	// RegimeOnePacket: M <= B, a single packet broadcast.
	RegimeOnePacket Regime = iota
	// RegimeManyPackets: M/B >> log N, bandwidth-bound streaming.
	RegimeManyPackets
	// RegimeStartupBound: B = B_opt and tau*log N >> M*t_c.
	RegimeStartupBound
	// RegimeTransferBound: B = B_opt and tau*log N << M*t_c.
	RegimeTransferBound
)

func (r Regime) String() string {
	switch r {
	case RegimeOnePacket:
		return "one packet"
	case RegimeManyPackets:
		return "M/B >> log N"
	case RegimeStartupBound:
		return "B=Bopt, tau*logN >> M*tc"
	case RegimeTransferBound:
		return "B=Bopt, tau*logN << M*tc"
	}
	return fmt.Sprintf("Regime(%d)", int(r))
}

// Regimes lists the four Table 4 columns in order.
var Regimes = []Regime{RegimeOnePacket, RegimeManyPackets, RegimeStartupBound, RegimeTransferBound}

// BroadcastRatio returns the Table 4 entry: the asymptotic ratio of the
// broadcast time of algorithm a to that of the MSBT under the same port
// model in the given regime. Defined for a in {SBT, TCBT}. For AllPorts
// the SBT and TCBT rows coincide (the paper's final row). The paper's
// footnote applies to (AllPorts, RegimeTransferBound): the entry assumes
// tau*log^2 N << M*t_c.
func BroadcastRatio(a Algorithm, pm PortModel, r Regime, n int) float64 {
	ln := float64(n)
	switch pm {
	case OneSendOrRecv:
		if a == SBT {
			switch r {
			case RegimeOnePacket:
				return ln / (ln + 1)
			case RegimeManyPackets, RegimeTransferBound:
				return ln / 2
			case RegimeStartupBound:
				return 1
			}
		}
		if a == TCBT {
			switch r {
			case RegimeOnePacket:
				return (2*ln - 2) / (ln + 1)
			case RegimeManyPackets, RegimeTransferBound:
				return 1.5
			case RegimeStartupBound:
				return 2
			}
		}
	case OneSendAndRecv:
		if a == SBT {
			switch r {
			case RegimeOnePacket:
				return ln / (ln + 1)
			case RegimeManyPackets, RegimeTransferBound:
				return ln
			case RegimeStartupBound:
				return 1
			}
		}
		if a == TCBT {
			switch r {
			case RegimeOnePacket:
				return (2*ln - 2) / (ln + 1)
			case RegimeManyPackets, RegimeTransferBound, RegimeStartupBound:
				return 2
			}
		}
	case AllPorts:
		// SBT and TCBT behave identically relative to the MSBT.
		switch r {
		case RegimeOnePacket:
			return ln / (ln + 1)
		case RegimeManyPackets, RegimeTransferBound:
			return ln
		case RegimeStartupBound:
			return 1
		}
	}
	panic("model: no ratio for " + a.String() + "/" + pm.String())
}

// ScatterTmin returns the Table 6 entry: the time for one-to-all
// personalized communication at the optimal (sufficiently large) packet
// size. The TCBT one-port and BST one-port rows are the paper's upper
// bounds. Only single-port ("1 port", which matches OneSendAndRecv in the
// paper's scatter analysis) and AllPorts are tabulated; OneSendOrRecv maps
// to the one-port rows.
func ScatterTmin(a Algorithm, pm PortModel, p Params) float64 {
	n := float64(p.N)
	N := p.Nodes()
	onePort := pm != AllPorts
	switch a {
	case SBT:
		if onePort {
			return (N-1)*p.M*p.Tc + n*p.Tau
		}
		return N/2*p.M*p.Tc + n*p.Tau
	case TCBT:
		if onePort {
			return (2*N-2*n-1)*p.M*p.Tc + (2*n-2)*p.Tau
		}
		return (0.75*N-1)*p.M*p.Tc + n*p.Tau
	case BST:
		if onePort {
			return N*(1+2*math.Log2(n)/n)*p.M*p.Tc + (2*n-2)*p.Tau
		}
		return (N-1)/n*p.M*p.Tc + n*p.Tau
	}
	panic("model: no scatter T_min for " + a.String())
}

// ScatterTime returns the time for one-to-all personalized communication
// with an explicit maximum packet size B (paper §4.2). These are the
// expressions the level-by-level and cyclic routing analyses produce;
// they interpolate between the B <= M streaming regime and the large-B
// start-up-bound regime of Table 6.
func ScatterTime(a Algorithm, pm PortModel, p Params) float64 {
	n := float64(p.N)
	N := p.Nodes()
	onePort := pm != AllPorts
	switch a {
	case SBT:
		if onePort {
			if p.B <= p.M {
				// T = (NM/B - 1)(B t_c + tau)
				return (N*p.M/p.B - 1) * (p.B*p.Tc + p.Tau)
			}
			// T = (N-1) M t_c + tau (NM/B + log ceil(B/M) - 1)
			return (N-1)*p.M*p.Tc + p.Tau*(N*p.M/p.B+math.Log2(math.Ceil(p.B/p.M))-1)
		}
		// All ports, level-by-level (Lemma 4.2): bounded below by the
		// root's transfer of half the data.
		if p.B >= binom(p.N-1, (p.N-1)/2)*p.M {
			return N/2*p.M*p.Tc + n*p.Tau
		}
		return (N*p.M/(2*p.B))*(p.Tau+p.B*p.Tc) + n*p.Tau
	case BST:
		if onePort {
			if p.B >= N/n*p.M {
				// Root does one send per subtree; the last message then
				// traverses up to log N - 2 further links.
				return (2*n-2)*p.Tau + N*(1+2*math.Log2(n)/n)*p.M*p.Tc
			}
			// Cyclic service of the subtrees: T ~ ((N-1)M/B)(tau + B t_c).
			return (N - 1) * p.M / p.B * (p.Tau + p.B*p.Tc)
		}
		if p.B <= p.M {
			return (N - 1) * p.M / (p.B * n) * (p.Tau + p.B*p.Tc)
		}
		// Level-by-level over all ports.
		return n*p.Tau + (N-1)/n*p.M*p.Tc
	}
	panic("model: no scatter time for " + a.String())
}

func binom(n, k int) float64 {
	if k < 0 || k > n {
		return 0
	}
	out := 1.0
	for i := 0; i < k; i++ {
		out = out * float64(n-i) / float64(i+1)
	}
	return out
}
