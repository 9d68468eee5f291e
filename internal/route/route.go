// Package route implements point-to-point routing of arbitrary
// permutations on the Boolean cube: deterministic dimension-ordered
// ("e-cube") routing and Valiant's two-phase randomized routing (Valiant &
// Brebner, cited as [20] in the paper's related-work discussion of
// "efficient routing using randomization for arbitrary permutations").
//
// The point the package reproduces: oblivious deterministic routing has
// permutations (e.g. the bit-reversal permutation) that funnel many paths
// through a few links, while routing first to a random intermediate and
// then to the destination spreads any permutation's load to within a
// constant factor of optimal, at the price of doubling the path length.
package route

import (
	"fmt"
	"math/rand"

	"repro/internal/cube"
	"repro/internal/sim"
)

// Permutation maps source node -> destination node. It must be a
// bijection over the cube's nodes.
type Permutation []cube.NodeID

// Validate checks that p is a bijection on the n-cube.
func (p Permutation) Validate(n int) error {
	N := 1 << uint(n)
	if len(p) != N {
		return fmt.Errorf("route: permutation has %d entries, want %d", len(p), N)
	}
	seen := make([]bool, N)
	for i, d := range p {
		if int(d) >= N {
			return fmt.Errorf("route: destination %d out of range at %d", d, i)
		}
		if seen[d] {
			return fmt.Errorf("route: destination %d repeated", d)
		}
		seen[d] = true
	}
	return nil
}

// Identity returns the identity permutation.
func Identity(n int) Permutation {
	N := 1 << uint(n)
	p := make(Permutation, N)
	for i := range p {
		p[i] = cube.NodeID(i)
	}
	return p
}

// BitReversal returns the bit-reversal permutation — the classic
// adversary for dimension-ordered routing: all 2^(n/2) sources sharing
// low bits funnel through the same middle links.
func BitReversal(n int) Permutation {
	N := 1 << uint(n)
	p := make(Permutation, N)
	for i := 0; i < N; i++ {
		var r cube.NodeID
		for b := 0; b < n; b++ {
			if i&(1<<uint(b)) != 0 {
				r |= 1 << uint(n-1-b)
			}
		}
		p[i] = r
	}
	return p
}

// Random returns a uniformly random permutation.
func Random(n int, rng *rand.Rand) Permutation {
	N := 1 << uint(n)
	p := make(Permutation, N)
	for i, v := range rng.Perm(N) {
		p[i] = cube.NodeID(v)
	}
	return p
}

// ECube builds the schedule that routes one m-element message per source
// along the dimension-ordered path (correct differing bits from bit 0
// upward). Oblivious and deterministic: the paths depend only on
// (source, destination).
func ECube(n int, p Permutation, m float64) ([]sim.Xmit, error) {
	if err := p.Validate(n); err != nil {
		return nil, err
	}
	c := cube.New(n)
	var xs []sim.Xmit
	for s := 0; s < c.Nodes(); s++ {
		appendPath(&xs, c.ShortestPath(cube.NodeID(s), p[s]), m, int64(s))
	}
	return xs, nil
}

// Valiant builds the two-phase randomized schedule: every message first
// travels (dimension-ordered) to an independent uniformly random
// intermediate node, then on to its true destination. rng drives the
// intermediate choices.
func Valiant(n int, p Permutation, m float64, rng *rand.Rand) ([]sim.Xmit, error) {
	if err := p.Validate(n); err != nil {
		return nil, err
	}
	c := cube.New(n)
	var xs []sim.Xmit
	for s := 0; s < c.Nodes(); s++ {
		mid := cube.NodeID(rng.Intn(c.Nodes()))
		path := c.ShortestPath(cube.NodeID(s), mid)
		rest := c.ShortestPath(mid, p[s])
		full := append(path, rest[1:]...)
		appendPath(&xs, full, m, int64(s))
	}
	return xs, nil
}

// appendPath emits the store-and-forward chain for one message along the
// given node path (possibly empty when source == destination).
func appendPath(xs *[]sim.Xmit, path []cube.NodeID, m float64, prio int64) {
	prev := -1
	for h := 1; h < len(path); h++ {
		x := sim.Xmit{From: path[h-1], To: path[h], Elems: m, Prio: prio}
		if prev >= 0 {
			x.Deps = []int{prev}
		}
		*xs = append(*xs, x)
		prev = len(*xs) - 1
	}
}

// Congestion returns the maximum number of messages crossing any single
// directed link in the schedule — the static load bound that dominates
// completion time for bandwidth-bound routing.
func Congestion(xs []sim.Xmit) int {
	load := map[cube.Edge]int{}
	max := 0
	for _, x := range xs {
		e := cube.Edge{From: x.From, To: x.To}
		load[e]++
		if load[e] > max {
			max = load[e]
		}
	}
	return max
}

// Measure runs the schedule under cfg and returns the makespan and static
// congestion.
func Measure(cfg sim.Config, xs []sim.Xmit) (makespan float64, congestion int, err error) {
	if len(xs) == 0 {
		return 0, 0, nil
	}
	res, err := sim.Run(cfg, xs)
	if err != nil {
		return 0, 0, err
	}
	return res.Makespan, Congestion(xs), nil
}

// Stats summarizes repeated randomized measurements.
type Stats struct {
	Trials         int
	MeanMakespan   float64
	MinMakespan    float64
	MaxMakespan    float64
	MeanCongestion float64
	MinCongestion  int
	MaxCongestion  int
}

// MeasureValiantMany runs Valiant routing of permutation p with `trials`
// independent intermediate choices and aggregates the results — the
// honest way to report a randomized algorithm. The base seed derives the
// per-trial RNGs deterministically.
func MeasureValiantMany(cfg sim.Config, n int, p Permutation, m float64, trials int, seed int64) (Stats, error) {
	if trials < 1 {
		return Stats{}, fmt.Errorf("route: %d trials", trials)
	}
	s := Stats{Trials: trials, MinCongestion: 1 << 30}
	s.MinMakespan = -1
	for k := 0; k < trials; k++ {
		rng := rand.New(rand.NewSource(seed + int64(k)))
		xs, err := Valiant(n, p, m, rng)
		if err != nil {
			return Stats{}, err
		}
		mk, cg, err := Measure(cfg, xs)
		if err != nil {
			return Stats{}, err
		}
		s.MeanMakespan += mk
		s.MeanCongestion += float64(cg)
		if s.MinMakespan < 0 || mk < s.MinMakespan {
			s.MinMakespan = mk
		}
		if mk > s.MaxMakespan {
			s.MaxMakespan = mk
		}
		if cg < s.MinCongestion {
			s.MinCongestion = cg
		}
		if cg > s.MaxCongestion {
			s.MaxCongestion = cg
		}
	}
	s.MeanMakespan /= float64(trials)
	s.MeanCongestion /= float64(trials)
	return s, nil
}

// WorstCaseCongestionECube returns the e-cube congestion of the
// bit-reversal adversary: Theta(sqrt(N)) for even n, the standard lower
// bound witness for oblivious deterministic routing.
func WorstCaseCongestionECube(n int) (int, error) {
	xs, err := ECube(n, BitReversal(n), 1)
	if err != nil {
		return 0, err
	}
	return Congestion(xs), nil
}
