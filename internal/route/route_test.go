package route

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/cube"
	"repro/internal/model"
	"repro/internal/sim"
)

func TestPermutationValidate(t *testing.T) {
	if err := Identity(4).Validate(4); err != nil {
		t.Error(err)
	}
	if err := BitReversal(6).Validate(6); err != nil {
		t.Error(err)
	}
	bad := Permutation{0, 0, 1, 2}
	if err := bad.Validate(2); err == nil {
		t.Error("non-bijection accepted")
	}
	short := Permutation{0}
	if err := short.Validate(3); err == nil {
		t.Error("short permutation accepted")
	}
	outOfRange := Permutation{0, 9, 1, 2}
	if err := outOfRange.Validate(2); err == nil {
		t.Error("out-of-range accepted")
	}
}

func TestBitReversalInvolution(t *testing.T) {
	p := BitReversal(8)
	for i, d := range p {
		if p[d] != cube.NodeID(i) {
			t.Fatalf("bit reversal not an involution at %d", i)
		}
	}
}

func TestECubeDeliversEveryMessage(t *testing.T) {
	// Each source's chain ends at its destination and every hop is a cube
	// edge with store-and-forward deps (sim validates both).
	n := 5
	rng := rand.New(rand.NewSource(2))
	p := Random(n, rng)
	xs, err := ECube(n, p, 4)
	if err != nil {
		t.Fatal(err)
	}
	cfg := sim.Config{Dim: n, Model: model.AllPorts, Tau: 1, Tc: 1}
	if _, err := sim.Run(cfg, xs); err != nil {
		t.Fatal(err)
	}
	// Hop-count conservation: total transmissions equal the sum of
	// Hamming distances.
	c := cube.New(n)
	want := 0
	for s, d := range p {
		want += c.Distance(cube.NodeID(s), d)
	}
	if len(xs) != want {
		t.Errorf("%d hops, want %d", len(xs), want)
	}
}

func TestBitReversalCongestion(t *testing.T) {
	// E-cube on bit reversal: congestion grows like sqrt(N) (2^(n/2-...)),
	// while any permutation's optimal is O(1) messages per link here.
	for _, n := range []int{4, 6, 8} {
		got, err := WorstCaseCongestionECube(n)
		if err != nil {
			t.Fatal(err)
		}
		// The classic bound: at least 2^(n/2)/n paths share a link; for
		// these sizes the exact funnel is sqrt(N)/... assert growth.
		if got < 1<<uint(n/2)/2 {
			t.Errorf("n=%d: congestion %d suspiciously low", n, got)
		}
	}
	c4, _ := WorstCaseCongestionECube(4)
	c8, _ := WorstCaseCongestionECube(8)
	if c8 <= c4 {
		t.Errorf("congestion did not grow: %d -> %d", c4, c8)
	}
}

func TestValiantSpreadsAdversary(t *testing.T) {
	// Randomization beats the adversary: at n = 12 the bit-reversal
	// permutation funnels 2^(n/2) = 64-ish messages per link under e-cube
	// (measured 32), while Valiant's congestion stays near the random-
	// permutation level (~log N).
	n := 12
	rng := rand.New(rand.NewSource(7))
	ecube, err := ECube(n, BitReversal(n), 1)
	if err != nil {
		t.Fatal(err)
	}
	valiant, err := Valiant(n, BitReversal(n), 1, rng)
	if err != nil {
		t.Fatal(err)
	}
	ce, cv := Congestion(ecube), Congestion(valiant)
	if cv*3 > ce {
		t.Errorf("valiant congestion %d not clearly below e-cube %d", cv, ce)
	}
	if ce != 1<<uint(n/2-1) {
		t.Errorf("e-cube adversary congestion %d, want %d", ce, 1<<uint(n/2-1))
	}
}

func TestValiantCompletionBeatsECubeOnAdversary(t *testing.T) {
	// Under bandwidth-bound conditions the simulated completion time also
	// improves for large enough cubes (the doubled path length costs a
	// constant; the congestion win grows like sqrt(N)). The crossover sits
	// around n = 10 with these parameters.
	rng := rand.New(rand.NewSource(3))
	for _, n := range []int{10, 12} {
		cfg := sim.Config{Dim: n, Model: model.AllPorts, Tau: 0.01, Tc: 1}
		xe, err := ECube(n, BitReversal(n), 8)
		if err != nil {
			t.Fatal(err)
		}
		te, _, err := Measure(cfg, xe)
		if err != nil {
			t.Fatal(err)
		}
		xv, err := Valiant(n, BitReversal(n), 8, rng)
		if err != nil {
			t.Fatal(err)
		}
		tv, _, err := Measure(cfg, xv)
		if err != nil {
			t.Fatal(err)
		}
		if tv >= te {
			t.Errorf("n=%d: valiant %f not faster than e-cube %f on the adversary", n, tv, te)
		}
	}
}

func TestValiantNoWorseOnRandom(t *testing.T) {
	// On a random permutation both are fine; Valiant pays at most ~2x for
	// its doubled paths.
	n := 7
	rng := rand.New(rand.NewSource(9))
	p := Random(n, rng)
	cfg := sim.Config{Dim: n, Model: model.AllPorts, Tau: 0.01, Tc: 1}
	xe, err := ECube(n, p, 4)
	if err != nil {
		t.Fatal(err)
	}
	te, _, err := Measure(cfg, xe)
	if err != nil {
		t.Fatal(err)
	}
	xv, err := Valiant(n, p, 4, rng)
	if err != nil {
		t.Fatal(err)
	}
	tv, _, err := Measure(cfg, xv)
	if err != nil {
		t.Fatal(err)
	}
	if tv > te*3 {
		t.Errorf("valiant %f pays more than 3x e-cube %f on a random permutation", tv, te)
	}
}

func TestMeasureValiantMany(t *testing.T) {
	cfg := sim.Config{Dim: 8, Model: model.AllPorts, Tau: 0.01, Tc: 1}
	s, err := MeasureValiantMany(cfg, 8, BitReversal(8), 1, 5, 42)
	if err != nil {
		t.Fatal(err)
	}
	if s.Trials != 5 {
		t.Errorf("trials %d", s.Trials)
	}
	const eps = 1e-9
	if s.MinMakespan > s.MeanMakespan+eps || s.MeanMakespan > s.MaxMakespan+eps {
		t.Errorf("makespan stats inconsistent: %+v", s)
	}
	if s.MinCongestion > s.MaxCongestion || float64(s.MinCongestion) > s.MeanCongestion {
		t.Errorf("congestion stats inconsistent: %+v", s)
	}
	// Deterministic for a fixed seed.
	s2, err := MeasureValiantMany(cfg, 8, BitReversal(8), 1, 5, 42)
	if err != nil {
		t.Fatal(err)
	}
	if s != s2 {
		t.Errorf("not deterministic: %+v vs %+v", s, s2)
	}
	if _, err := MeasureValiantMany(cfg, 8, BitReversal(8), 1, 0, 1); err == nil {
		t.Error("zero trials accepted")
	}
}

func TestIdentityIsFree(t *testing.T) {
	xs, err := ECube(4, Identity(4), 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(xs) != 0 {
		t.Errorf("identity produced %d transmissions", len(xs))
	}
	mk, cg, err := Measure(sim.Config{Dim: 4, Model: model.AllPorts, Tau: 1}, xs)
	if err != nil || mk != 0 || cg != 0 {
		t.Errorf("identity measure: %f %d %v", mk, cg, err)
	}
	if math.IsNaN(mk) {
		t.Error("NaN makespan")
	}
}
