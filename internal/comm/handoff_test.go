package comm

import (
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/svc"
)

// TestRunHoldsNoPumpGoroutines pins the one-hand-off receive path: in
// steady state a 64-rank Run adds exactly its rank goroutines — senders
// file messages into the receivers' mailboxes themselves, so there is no
// per-rank pump.
func TestRunHoldsNoPumpGoroutines(t *testing.T) {
	const n = 6
	base := runtime.NumGoroutine()
	var during int
	err := Run(n, func(c *Comm) error {
		if err := c.Barrier(); err != nil {
			return err
		}
		if c.Rank() == 0 {
			during = runtime.NumGoroutine()
		}
		return c.Barrier() // holds every rank in the program while rank 0 counts
	})
	if err != nil {
		t.Fatal(err)
	}
	if extra := during - base; extra > 1<<n {
		t.Fatalf("Run(%d) holds %d goroutines beyond the baseline, want at most the %d ranks", n, extra, 1<<n)
	}
}

// settledGoroutines samples the goroutine count until exiting goroutines
// stop moving it.
func settledGoroutines() int {
	n := runtime.NumGoroutine()
	for i := 0; i < 200; i++ {
		time.Sleep(5 * time.Millisecond)
		m := runtime.NumGoroutine()
		if m == n {
			return n
		}
		n = m
	}
	return n
}

// TestJobStartsNoPumpGoroutine: a running svc job costs one goroutine
// per hosted node — its program — and nothing else: the dispatcher is a
// function on the delivering goroutine and the job's communicator is fed
// by forwarding.
func TestJobStartsNoPumpGoroutine(t *testing.T) {
	const n = 2
	cl := StartLocalCluster(n, svc.Options{})
	warm, err := cl.SubmitSpec(MixedJobSpec(n, 1, 1, 0))
	if err != nil {
		t.Fatal(err)
	}
	if err := warm.Wait(); err != nil {
		t.Fatal(err)
	}
	idle := settledGoroutines()
	var parked sync.WaitGroup
	parked.Add(1 << n)
	release := make(chan struct{})
	h, err := cl.Submit(1, jobProgram(func(c *Comm) error {
		err := c.Barrier()
		parked.Done()
		<-release
		return err
	}))
	if err != nil {
		t.Fatal(err)
	}
	parked.Wait()
	during := runtime.NumGoroutine()
	close(release)
	if err := h.Wait(); err != nil {
		t.Fatal(err)
	}
	if err := cl.Drain(); err != nil {
		t.Fatal(err)
	}
	if extra := during - idle; extra > 1<<n {
		t.Fatalf("a running job holds %d goroutines beyond the idle service, want at most %d", extra, 1<<n)
	}
}

// TestSingleTenantOutlivesJobIDRing runs one tenant past the 4095-entry
// job-ID ring, one job at a time. Tombstones of finished jobs used to
// live forever, so when ID 1 came round again its early traffic was
// dropped as a straggler on every rank that had not reopened the ID yet
// and job 4096 hung.
func TestSingleTenantOutlivesJobIDRing(t *testing.T) {
	const n, jobs = 2, 4200
	cl := StartLocalCluster(n, svc.Options{})
	var at atomic.Int64
	done := make(chan error, 1)
	go func() {
		for i := 0; i < jobs; i++ {
			at.Store(int64(i))
			h, err := cl.SubmitSpec(MixedJobSpec(n, 1, 7, i))
			if err == nil {
				err = h.Wait()
			}
			if err != nil {
				done <- err
				return
			}
		}
		done <- cl.Drain()
	}()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("job %d: %v", at.Load(), err)
		}
	case <-time.After(2 * time.Minute):
		t.Fatalf("service hung at job %d of %d", at.Load(), jobs)
	}
}
