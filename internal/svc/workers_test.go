package svc

import (
	"errors"
	"runtime"
	"strings"
	"testing"

	"repro/internal/mpx"
	"repro/internal/testleak"
)

// TestWorkersBoundedReusedAndReclaimed runs 2 000 messaging jobs of three
// tenants through one runtime: afterwards each node holds at most
// tenants × TenantInFlight parked workers (never a goroutine per job
// served), a worker whose job panicked serves the jobs after it, and
// Drain reclaims every one.
func TestWorkersBoundedReusedAndReclaimed(t *testing.T) {
	const (
		n, jobs, tenants, inflight = 2, 2000, 3, 2
		bad                        = jobs / 2
	)
	testleak.Check(t)
	base := runtime.NumGoroutine()
	rt := newTestRuntime(t, n, Options{TenantInFlight: inflight})
	exchange := func(jc *JobContext) error {
		// One message to and from the port-0 neighbor, so jobs overlap and
		// the windows fill.
		jc.Node.Send(0, mpx.Message{Tag: jc.Base | StreamTag(0, 0), Parts: []mpx.Part{{Dest: jc.Node.ID ^ 1, Data: []byte{byte(jc.Job)}}}})
		if env, ok := recvOne(jc); !ok || env.Parts[0].Data[0] != byte(jc.Job) {
			return errors.New("job stream closed early or carried another job's byte")
		}
		return nil
	}
	handles := make([]*Handle, jobs)
	for i := range handles {
		prog := exchange
		if i == bad {
			prog = func(jc *JobContext) error {
				if jc.Node.ID == 0 {
					panic("job bug")
				}
				return nil
			}
		}
		h, err := rt.Submit(1+i%tenants, prog)
		if err != nil {
			t.Fatal(err)
		}
		handles[i] = h
	}
	for i, h := range handles {
		err := h.Wait()
		if i == bad {
			if err == nil || !strings.Contains(err.Error(), "job bug") {
				t.Errorf("panicking job reported %v, want its panic as the job's error", err)
			}
		} else if err != nil {
			t.Errorf("job %d: %v", i, err)
		}
	}
	// Every job is done; what is left is Start's goroutine and the
	// workers, all parked until Drain. A node's first worker is its
	// nodeMain: there is no scheduler goroutine beside them.
	if got, max := runtime.NumGoroutine()-base, 1+(1<<n)*tenants*inflight; got > max {
		t.Errorf("%d goroutines after %d jobs, want at most %d (%d workers per node)", got, jobs, max, tenants*inflight)
	}
	if err := rt.Drain(); err == nil || !strings.Contains(err.Error(), "job bug") {
		t.Errorf("Drain returned %v, want the panicking job's error", err)
	}
}
