package svc

import (
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"repro/internal/mpx"
)

func newTestRuntime(t *testing.T, n int, opt Options) *Runtime {
	t.Helper()
	rt := New(mpx.New(n, 16), opt)
	rt.Start()
	return rt
}

// recvOne attaches a Mailbox to the job's stream and blocks for its
// first envelope: the raw-program idiom (jc.Attach(mb.Put, mb.Close)).
func recvOne(jc *JobContext) (mpx.Envelope, bool) {
	mb := NewMailbox()
	jc.Attach(mb.Put, mb.Close)
	return mb.Recv()
}

// Close ends a mailbox's stream: queued envelopes remain receivable,
// further Puts are dropped, and Recv returns ok == false once drained.
func (mb *Mailbox) Close() {
	mb.mu.Lock()
	mb.closed = true
	mb.cond.Broadcast()
	mb.mu.Unlock()
}

func TestMailbox(t *testing.T) {
	mb := NewMailbox()
	mb.Put(mpx.Envelope{Message: mpx.Message{Tag: 1}})
	mb.Put(mpx.Envelope{Message: mpx.Message{Tag: 2}})
	mb.Close()
	mb.Put(mpx.Envelope{Message: mpx.Message{Tag: 3}}) // dropped
	for want := 1; want <= 2; want++ {
		env, ok := mb.Recv()
		if !ok || env.Tag != want {
			t.Fatalf("Recv = (%v, %v), want tag %d", env.Tag, ok, want)
		}
	}
	if _, ok := mb.Recv(); ok {
		t.Fatal("Recv on drained closed mailbox reported ok")
	}
}

// TestFIFOWithinTenant pins the FIFO-within-tenant guarantee: with a
// window of 1, one tenant's jobs run strictly in submission order.
func TestFIFOWithinTenant(t *testing.T) {
	rt := newTestRuntime(t, 1, Options{TenantInFlight: 1})
	var mu sync.Mutex
	var got []int
	const jobs = 8
	for i := 0; i < jobs; i++ {
		if _, err := rt.Submit(1, func(jc *JobContext) error {
			if jc.Node.ID == 0 {
				mu.Lock()
				got = append(got, jc.Job)
				mu.Unlock()
			}
			return nil
		}); err != nil {
			t.Fatal(err)
		}
	}
	if err := rt.Drain(); err != nil {
		t.Fatal(err)
	}
	for i, id := range got {
		if id != i+1 {
			t.Fatalf("start order %v violates FIFO within tenant", got)
		}
	}
	if len(got) != jobs {
		t.Fatalf("recorded %d starts, want %d", len(got), jobs)
	}
}

// TestNoCrossTenantHeadOfLineBlocking: a tenant sitting on its window
// must not stall another tenant's jobs.
func TestNoCrossTenantHeadOfLineBlocking(t *testing.T) {
	rt := newTestRuntime(t, 1, Options{TenantInFlight: 1})
	release := make(chan struct{})
	blocker, err := rt.Submit(1, func(jc *JobContext) error {
		<-release
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	var fast []*Handle
	for i := 0; i < 4; i++ {
		h, err := rt.Submit(2, func(jc *JobContext) error { return nil })
		if err != nil {
			t.Fatal(err)
		}
		fast = append(fast, h)
	}
	for i, h := range fast {
		select {
		case <-h.Done():
		case <-time.After(5 * time.Second):
			t.Fatalf("tenant 2 job %d stuck behind tenant 1's blocked job", i)
		}
	}
	select {
	case <-blocker.Done():
		t.Fatal("blocked job finished early")
	default:
	}
	close(release)
	if err := rt.Drain(); err != nil {
		t.Fatal(err)
	}
}

// TestRuntimeKeepsOnlyLiveJobs submits three job-ID rings' worth of jobs
// over four tenants and keeps only each tenant's latest handle: once those
// finished, the runtime holds at most TenantQueue job records per tenant,
// not one per job ever submitted.
func TestRuntimeKeepsOnlyLiveJobs(t *testing.T) {
	const tenants = 4
	opt := Options{TenantInFlight: 2, TenantQueue: 8}
	rt := newTestRuntime(t, 1, opt)
	last := make([]*Handle, tenants)
	for i := 0; i < 3*MaxJob; i++ {
		h, err := rt.Submit(1+i%tenants, func(jc *JobContext) error { return nil })
		if err != nil {
			t.Fatal(err)
		}
		last[i%tenants] = h
	}
	for _, h := range last {
		if err := h.Wait(); err != nil {
			t.Fatal(err)
		}
	}
	rt.mu.Lock()
	for tenant := 1; tenant <= tenants; tenant++ {
		if n := len(rt.tenants[tenant].queue); n > opt.TenantQueue {
			t.Errorf("tenant %d: runtime holds %d job records after %d jobs in all, want at most %d", tenant, n, 3*MaxJob, opt.TenantQueue)
		}
	}
	rt.mu.Unlock()
	if err := rt.Drain(); err != nil {
		t.Fatal(err)
	}
}

// TestSubmitBackpressure: Submit blocks at the tenant's queue bound and
// resumes when a job completes.
func TestSubmitBackpressure(t *testing.T) {
	rt := newTestRuntime(t, 1, Options{TenantInFlight: 1, TenantQueue: 2})
	release := make(chan struct{})
	prog := func(jc *JobContext) error { <-release; return nil }
	for i := 0; i < 2; i++ {
		if _, err := rt.Submit(1, prog); err != nil {
			t.Fatal(err)
		}
	}
	unblocked := make(chan error, 1)
	go func() {
		_, err := rt.Submit(1, func(jc *JobContext) error { return nil })
		unblocked <- err
	}()
	select {
	case <-unblocked:
		t.Fatal("third Submit did not block at TenantQueue=2")
	case <-time.After(50 * time.Millisecond):
	}
	close(release)
	if err := <-unblocked; err != nil {
		t.Fatal(err)
	}
	if err := rt.Drain(); err != nil {
		t.Fatal(err)
	}
}

// TestDispatcherDemux runs concurrent messaging jobs and checks every
// node receives exactly its own job's payload (no cross-job bleed), even
// when traffic arrives before the job is opened locally.
func TestDispatcherDemux(t *testing.T) {
	rt := newTestRuntime(t, 1, Options{TenantInFlight: 4})
	var handles []*Handle
	for i := 0; i < 12; i++ {
		tenant := 1 + i%4
		h, err := rt.Submit(tenant, func(jc *JobContext) error {
			tag := jc.Base | StreamTag(0, 0)
			jc.Node.Send(0, mpx.Message{Tag: tag, Parts: []mpx.Part{{Dest: jc.Node.ID ^ 1, Data: []byte{byte(jc.Tenant), byte(jc.Job)}}}})
			env, ok := recvOne(jc)
			if !ok {
				return errors.New("source closed early")
			}
			if JobKeyOf(env.Tag) != JobKey(jc.Tenant, jc.Job) {
				return fmt.Errorf("foreign tag %#x leaked into job (%d,%d)", env.Tag, jc.Tenant, jc.Job)
			}
			if len(env.Parts) != 1 || env.Parts[0].Data[0] != byte(jc.Tenant) || env.Parts[0].Data[1] != byte(jc.Job) {
				return fmt.Errorf("job (%d,%d) received foreign payload %v", jc.Tenant, jc.Job, env.Parts)
			}
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		handles = append(handles, h)
	}
	if err := rt.Drain(); err != nil {
		t.Fatal(err)
	}
	for _, h := range handles {
		if err := h.Err(); err != nil {
			t.Fatal(err)
		}
	}
}

// TestJobErrorIsolated: a failing job unwinds its own blocked peers via
// the abort path and leaves the runtime serving other jobs.
func TestJobErrorIsolated(t *testing.T) {
	rt := newTestRuntime(t, 1, Options{TenantInFlight: 2})
	boom := errors.New("boom")
	bad, err := rt.Submit(1, func(jc *JobContext) error {
		if jc.Node.ID == 0 {
			return boom
		}
		// Node 1 waits for traffic that will never come; the abort
		// must close its source instead of hanging the drain.
		if _, ok := recvOne(jc); ok {
			return errors.New("unexpected delivery")
		}
		return errors.New("aborted")
	})
	if err != nil {
		t.Fatal(err)
	}
	good, err := rt.Submit(2, func(jc *JobContext) error { return nil })
	if err != nil {
		t.Fatal(err)
	}
	if err := bad.Wait(); err == nil {
		t.Fatal("failing job reported success")
	}
	if err := good.Wait(); err != nil {
		t.Fatalf("healthy job infected by failing one: %v", err)
	}
	if err := rt.Drain(); err == nil {
		t.Fatal("Drain did not surface the job error")
	} else if !errors.Is(err, boom) && err.Error() == "" {
		t.Fatalf("unexpected drain error: %v", err)
	}
}
