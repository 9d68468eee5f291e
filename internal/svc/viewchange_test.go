package svc

import (
	"errors"
	"fmt"
	"testing"
	"time"

	"repro/internal/member"
)

// TestNoteViewChangeAbortsInFlightKeepsServing: a membership view
// change aborts the jobs whose collectives are in flight with a typed
// *member.ViewChangedError — their blocked receives unwind — while the
// runtime keeps serving: a tenant submitting after the change gets its
// job run normally.
func TestNoteViewChangeAbortsInFlightKeepsServing(t *testing.T) {
	rt := newTestRuntime(t, 2, Options{})
	nodes := 1 << 2

	started := make(chan struct{}, nodes)
	blocked, err := rt.Submit(1, func(jc *JobContext) error {
		started <- struct{}{}
		// Park on traffic nobody sends; only an abort releases us.
		if _, ok := recvOne(jc); ok {
			return fmt.Errorf("unexpected message")
		}
		return fmt.Errorf("stream ended") // must lose to the typed error
	})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < nodes; i++ {
		select {
		case <-started:
		case <-time.After(10 * time.Second):
			t.Fatal("blocked job never started everywhere")
		}
	}

	if n := rt.NoteViewChange(99); n != 1 {
		t.Fatalf("NoteViewChange aborted %d jobs, want 1", n)
	}
	werr := blocked.Wait()
	var vce *member.ViewChangedError
	if !errors.As(werr, &vce) {
		t.Fatalf("aborted job error is %v, want *member.ViewChangedError", werr)
	}
	if vce.Epoch != 99 {
		t.Fatalf("view-change error carries epoch %d, want 99", vce.Epoch)
	}

	// The runtime is still open for business: another tenant's job —
	// submitted AFTER the view change — runs to completion.
	good, err := rt.Submit(2, func(jc *JobContext) error { return nil })
	if err != nil {
		t.Fatalf("Submit after view change: %v", err)
	}
	if err := good.Wait(); err != nil {
		t.Fatalf("post-view-change job failed: %v", err)
	}

	// Drain reports the aborted job as the run's first error.
	if err := rt.Drain(); !errors.As(err, &vce) {
		t.Fatalf("Drain = %v, want the view-change error", err)
	}
}

// TestNoteViewChangeSparesQueuedJobs: a job submitted but not yet
// started anywhere is NOT failed by a view change — it starts on the
// new view.
func TestNoteViewChangeSparesQueuedJobs(t *testing.T) {
	rt := newTestRuntime(t, 1, Options{TenantInFlight: 1})
	nodes := 2

	started := make(chan struct{}, nodes)
	release := make(chan struct{})
	blocker, err := rt.Submit(1, func(jc *JobContext) error {
		started <- struct{}{}
		<-release
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	// Window 1: this one queues behind the blocker, started nowhere.
	queued, err := rt.Submit(1, func(jc *JobContext) error { return nil })
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < nodes; i++ {
		<-started
	}

	if n := rt.NoteViewChange(7); n != 1 {
		t.Fatalf("NoteViewChange aborted %d jobs, want only the in-flight one", n)
	}
	close(release)
	var vce *member.ViewChangedError
	if err := blocker.Wait(); !errors.As(err, &vce) {
		t.Fatalf("in-flight job error is %v, want view-change", err)
	}
	if err := queued.Wait(); err != nil {
		t.Fatalf("queued job failed: %v (must run untouched on the new view)", err)
	}
	rt.Drain()
}
