package mpx

import (
	"math"
	"sync"
	"testing"
	"time"
)

// TestEstimatorRecoversKnownModel feeds synthetic observations generated
// from a known (tau, tc) and checks the least-squares fit recovers both
// parameters. The flush shapes vary (different frame counts and byte
// totals), which is what makes the two regressors separable.
func TestEstimatorRecoversKnownModel(t *testing.T) {
	const tau, tc = 50e-6, 2e-9 // 50µs per frame, 2ns per byte (~500 MB/s)
	var e LinkEstimator
	shapes := []struct{ frames, bytes int }{
		{1, 100}, {4, 64 << 10}, {1, 32 << 10}, {16, 1 << 20}, {2, 300}, {8, 256 << 10},
	}
	for i := 0; i < 40; i++ {
		s := shapes[i%len(shapes)]
		d := time.Duration((tau*float64(s.frames) + tc*float64(s.bytes)) * 1e9)
		e.Observe(s.frames, s.bytes, d)
	}
	p := e.Profile()
	if !p.Valid() {
		t.Fatalf("profile not settled after 40 observations: %+v", p)
	}
	if math.Abs(p.Tau-tau) > tau*0.05 {
		t.Errorf("Tau = %v, want %v within 5%%", p.Tau, tau)
	}
	if math.Abs(p.Tc-tc) > tc*0.05 {
		t.Errorf("Tc = %v, want %v within 5%%", p.Tc, tc)
	}
}

// TestEstimatorCollinearFallsBackToTau checks the degenerate case:
// every observation the same shape, so the regressors are collinear and
// the solver must attribute the whole cost to Tau with Tc = 0 (which
// sends model B_opt to +Inf — callers clamp that to the legacy split,
// so an under-informed estimator never changes behavior).
func TestEstimatorCollinearFallsBackToTau(t *testing.T) {
	var e LinkEstimator
	for i := 0; i < 32; i++ {
		e.Observe(1, 1000, 100*time.Microsecond)
	}
	p := e.Profile()
	if p.Tc != 0 {
		t.Errorf("collinear observations produced Tc = %v, want 0", p.Tc)
	}
	if math.Abs(p.Tau-100e-6) > 5e-6 {
		t.Errorf("Tau = %v, want ~100µs", p.Tau)
	}
}

// TestEstimatorClamps checks that implausible fits (a stalled flush
// dominating the window) cannot push the profile past the physical
// clamps.
func TestEstimatorClamps(t *testing.T) {
	var e LinkEstimator
	for i := 0; i < 20; i++ {
		e.Observe(1, 10, 10*time.Second) // absurd: 10s for one tiny frame
	}
	p := e.Profile()
	if p.Tau > 100e-3 {
		t.Errorf("Tau = %v escaped the 100ms clamp", p.Tau)
	}
	if p.Tc > 1e-6 {
		t.Errorf("Tc = %v escaped the 1µs/byte clamp", p.Tc)
	}
}

func TestEstimatorUnsettledInvalid(t *testing.T) {
	var e LinkEstimator
	for i := 0; i < profileMinSamples-1; i++ {
		e.Observe(1, 100, time.Millisecond)
	}
	if p := e.Profile(); p.Valid() {
		t.Fatalf("profile valid at %d samples, want >= %d", p.Samples, profileMinSamples)
	}
}

// TestEstimatorConcurrent hammers Observe, Profile and AddTo from many
// goroutines — the estimator's data-race drill (run under -race in CI).
func TestEstimatorConcurrent(t *testing.T) {
	var e LinkEstimator
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(2)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 1000; i++ {
				e.Observe(1+g, 100*(i%7+1), time.Duration(i+1)*time.Microsecond)
			}
		}(g)
		go func() {
			defer wg.Done()
			var agg LinkEstimator
			for i := 0; i < 1000; i++ {
				_ = e.Profile()
				e.AddTo(&agg)
			}
		}()
	}
	wg.Wait()
	if p := e.Profile(); p.Samples != 4000 {
		t.Fatalf("lost observations: %d of 4000 recorded", p.Samples)
	}
}

// TestProfileReadAllocsNothing pins the hot-path read: collectives may
// consult the profile every round, so it must not allocate.
func TestProfileReadAllocsNothing(t *testing.T) {
	var e LinkEstimator
	for i := 0; i < 32; i++ {
		e.Observe(1, 100*(i%5+1), time.Duration(i+1)*time.Microsecond)
	}
	if n := testing.AllocsPerRun(100, func() { _ = e.Profile() }); n != 0 {
		t.Fatalf("Profile() allocates %v times per read, want 0", n)
	}
	var agg LinkEstimator
	if n := testing.AllocsPerRun(100, func() { e.AddTo(&agg) }); n != 0 {
		t.Fatalf("AddTo() allocates %v times per merge, want 0", n)
	}
}

// TestChanTransportProfile checks the in-process backend samples its
// sends into a profile.
func TestChanTransportProfile(t *testing.T) {
	tr := NewChanTransport(2, 64, nil)
	defer tr.Close()
	m := NewWithTransport(tr, nil)
	err := m.Run(func(nd *Node) error {
		for i := 0; i < 2*chanProfileSample*profileMinSamples; i++ {
			nd.Send(0, Message{Tag: i})
			nd.Recv()
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	p, ok := m.Profile()
	if !ok {
		t.Fatal("ChanTransport does not implement profiler")
	}
	if !p.Valid() {
		t.Fatalf("profile not settled after %d sampled sends: %+v", p.Samples, p)
	}
}
