package mpx

import (
	"sync"
	"time"
)

// LinkProfile is a transport's live cost model in the paper's terms: a
// packet of B bytes occupies a link for Tau + B*Tc seconds. Tau is the
// per-frame startup cost (syscall, framing, scheduling), Tc the
// per-byte transfer cost: the constants model.BroadcastBopt and the
// rest of the paper's cost model are evaluated at.
type LinkProfile struct {
	// Tau is the estimated per-frame cost in seconds.
	Tau float64
	// Tc is the estimated per-byte cost in seconds.
	Tc float64
	// Samples counts the observations behind the estimate. Callers
	// should treat profiles below profileMinSamples as unsettled.
	Samples int64
}

// profileMinSamples is the observation count below which a profile is
// considered unsettled (Valid returns false).
const profileMinSamples = 16

// Valid reports whether the profile has settled enough to drive
// decisions: enough samples and a positive per-frame cost.
func (p LinkProfile) Valid() bool {
	return p.Samples >= profileMinSamples && p.Tau > 0
}

// profiler is an optional Transport extension exposing the live link
// cost model. Both shipped backends implement it.
type profiler interface {
	Profile() LinkProfile
}

// Estimator clamps: a per-frame cost above 100ms or a per-byte cost
// below 1 MB/s means the fit is reacting to a stall, not the link;
// decisions should not chase it further than this.
const (
	maxTau = 100e-3 // 100 ms per frame
	maxTc  = 1e-6   // 1 s per MB
)

// estDecay is the exponential forgetting factor applied to the moment
// sums per observation: an effective window of ~1/(1-estDecay) = 50
// flushes, long enough to smooth scheduler noise, short enough to track
// a link whose load changes mid-run.
const estDecay = 0.98

// LinkEstimator fits the two-parameter link cost model
//
//	duration ≈ Tau*frames + Tc*bytes
//
// online, by exponentially weighted least squares over (frames, bytes,
// duration) observations. Transports feed it one observation per flush
// (socket backends) or per sampled send (the in-process backend); the
// mix of tiny control frames and bulk payload frames in collective
// traffic is what makes the two parameters separable.
//
// It is safe for concurrent use; Profile reads allocate nothing.
type LinkEstimator struct {
	mu sync.Mutex
	// Decayed moment sums of the regressors k (frames) and b (bytes)
	// against the response y (seconds).
	skk, skb, sbb float64
	sky, sby      float64
	n             int64
}

// Observe records one timed transfer: frames wire frames totalling
// bytes payload+framing bytes took d of link occupancy.
func (e *LinkEstimator) Observe(frames, bytes int, d time.Duration) {
	if frames <= 0 || d <= 0 {
		return
	}
	k, b, y := float64(frames), float64(bytes), d.Seconds()
	e.mu.Lock()
	e.skk = e.skk*estDecay + k*k
	e.skb = e.skb*estDecay + k*b
	e.sbb = e.sbb*estDecay + b*b
	e.sky = e.sky*estDecay + k*y
	e.sby = e.sby*estDecay + b*y
	e.n++
	e.mu.Unlock()
}

// Profile solves the 2x2 normal equations for (Tau, Tc), clamped to
// physically plausible ranges. When the observations are collinear
// (every flush the same shape — the parameters are not separable) it
// attributes the whole cost to Tau and reports Tc = 0, which puts the
// model's B_opt at +Inf: one packet per tree.
func (e *LinkEstimator) Profile() LinkProfile {
	e.mu.Lock()
	skk, skb, sbb, sky, sby, n := e.skk, e.skb, e.sbb, e.sky, e.sby, e.n
	e.mu.Unlock()
	return solveProfile(skk, skb, sbb, sky, sby, n)
}

// AddTo merges this estimator's decayed moments into dst — the
// transport-wide aggregation over per-link estimators. The links of one
// mesh endpoint share a host and a NIC (or loopback), so pooling their
// observations is both statistically sound and what the collective
// needs: it picks one B per round, not one per link. Allocation-free.
func (e *LinkEstimator) AddTo(dst *LinkEstimator) {
	e.mu.Lock()
	skk, skb, sbb, sky, sby, n := e.skk, e.skb, e.sbb, e.sky, e.sby, e.n
	e.mu.Unlock()
	dst.mu.Lock()
	dst.skk += skk
	dst.skb += skb
	dst.sbb += sbb
	dst.sky += sky
	dst.sby += sby
	dst.n += n
	dst.mu.Unlock()
}

func solveProfile(skk, skb, sbb, sky, sby float64, n int64) LinkProfile {
	if skk <= 0 {
		return LinkProfile{Samples: n}
	}
	det := skk*sbb - skb*skb
	var tau, tc float64
	// Collinearity guard: when 1 - corr^2 vanishes the system is
	// singular (or nearly); fall back to the pure per-frame model.
	if sbb <= 0 || det <= 1e-9*skk*sbb {
		tau = sky / skk
	} else {
		tau = (sbb*sky - skb*sby) / det
		tc = (skk*sby - skb*sky) / det
	}
	if tau < 0 {
		tau = 0
	} else if tau > maxTau {
		tau = maxTau
	}
	if tc < 0 {
		tc = 0
	} else if tc > maxTc {
		tc = maxTc
	}
	return LinkProfile{Tau: tau, Tc: tc, Samples: n}
}
