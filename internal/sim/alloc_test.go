package sim

import (
	"testing"

	"repro/internal/model"
)

// TestEngineSteadyStateZeroAllocs is the performance-pass guard: once an
// engine has run a schedule and its buffers are sized, re-running the
// same shape must not allocate at all. A regression here means the event
// loop (heaps, dependency CSR, candidate set, or Result refill) grew a
// per-run or per-event allocation.
func TestEngineSteadyStateZeroAllocs(t *testing.T) {
	if testing.Short() {
		t.Skip("alloc guard skipped in -short mode")
	}
	const n = 6
	xs := benchSchedule(n, 8)
	cfg := Config{Dim: n, Model: model.AllPorts, Tau: 1, Tc: 0}
	e := newEngine()
	if _, err := e.Run(cfg, xs); err != nil {
		t.Fatal(err)
	}
	perRun := testing.AllocsPerRun(10, func() {
		if _, err := e.Run(cfg, xs); err != nil {
			t.Fatal(err)
		}
	})
	if perRun != 0 {
		t.Errorf("warm engine allocates %.1f per run, want 0", perRun)
	}
}
