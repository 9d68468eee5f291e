package comm

import (
	"bytes"
	"errors"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/cube"
	"repro/internal/mpx"
	"repro/internal/testleak"
)

// TestSetDeadlineTurnsHangIntoError blocks a rank on a peer that is
// silent — alive, connected, just never sending — and expects the
// collective deadline to convert the indefinite hang into a typed
// *deadlineError naming the waiting rank.
func TestSetDeadlineTurnsHangIntoError(t *testing.T) {
	err := Run(1, func(c *Comm) error {
		if c.Rank() == 0 {
			// The silent peer: never participates in the broadcast.
			return nil
		}
		c.SetDeadline(80 * time.Millisecond)
		_, err := c.Bcast(0, nil)
		return err
	})
	if err == nil {
		t.Fatal("Bcast against a silent root returned nil")
	}
	var de *deadlineError
	if !errors.As(err, &de) {
		t.Fatalf("error is %v, want a *deadlineError", err)
	}
	if de.Rank != 1 {
		t.Fatalf("deadlineError names rank %d, want 1", de.Rank)
	}
	if de.Wait != 80*time.Millisecond {
		t.Fatalf("deadlineError reports wait %v, want 80ms", de.Wait)
	}
}

// TestSetDeadlineDoesNotFireOnHealthyCollectives runs a normal
// collective sequence under a generous deadline: nothing may time out.
func TestSetDeadlineDoesNotFireOnHealthyCollectives(t *testing.T) {
	payload := []byte("deadline-armed broadcast")
	err := Run(2, func(c *Comm) error {
		c.SetDeadline(10 * time.Second)
		got, err := c.Bcast(0, payload)
		if err != nil {
			return err
		}
		if !bytes.Equal(got, payload) {
			t.Errorf("rank %d got %q", c.Rank(), got)
		}
		if _, err := c.AllGather([]byte{byte(c.Rank())}); err != nil {
			return err
		}
		return c.Barrier()
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestDeadlineNamesPeerAfterConnectionLoss arms a deadline on a rank
// whose awaited traffic crosses a severed link: the expiry must prefer
// the machine-wide connection diagnosis — wrapping *mpx.PeerError — over
// the bare timeout.
func TestDeadlineNamesPeerAfterConnectionLoss(t *testing.T) {
	tr := mpx.NewChanTransport(1, CollectiveDepth(1), nil)
	if err := tr.SeverLink(0, 1); err != nil {
		t.Fatal(err)
	}
	err := RunOn(mpx.NewWithTransport(tr, nil), func(c *Comm) error {
		if c.Rank() == 0 {
			return nil // cannot send across the severed link anyway
		}
		c.SetDeadline(80 * time.Millisecond)
		_, err := c.Bcast(0, nil)
		return err
	})
	if err == nil {
		t.Fatal("Bcast across a severed link returned nil")
	}
	var pe *mpx.PeerError
	if !errors.As(err, &pe) {
		t.Fatalf("error is %v, want to wrap *mpx.PeerError", err)
	}
	if !strings.Contains(err.Error(), "deadline") {
		t.Fatalf("error hides the deadline expiry: %v", err)
	}
}

// TestStoppedErrWrapsPeerErrorForCollateralRanks is the satellite fix's
// end-to-end check: when ONE link dies fatally, every stalled rank —
// including ranks whose own links are healthy — must surface an error
// that errors.As unwraps to the *mpx.PeerError, not a bare "machine
// stopped" that callers can only string-match.
func TestStoppedErrWrapsPeerErrorForCollateralRanks(t *testing.T) {
	// Blocked receivers are released by the inbox's closed callback, not
	// by a pump goroutine unwinding: nothing may outlive the run.
	testleak.Check(t)
	tr := mpx.NewChanTransport(2, CollectiveDepth(2), nil)
	var mu sync.Mutex
	rankErrs := make([]error, 4)
	// The root stays silent, so ranks 1..3 park in the blocking receive
	// without ever sending — the link failure then lands from outside
	// while they wait, deterministically exercising the stoppedErr path
	// (a rank that SENDS on a dead link aborts via the transport panic
	// instead and records nothing).
	go func() {
		time.Sleep(30 * time.Millisecond)
		tr.FailLink(1, 3)
	}()
	RunOn(mpx.NewWithTransport(tr, nil), func(c *Comm) error {
		if c.Rank() == 0 {
			return nil // silent root: never feeds the broadcast
		}
		_, err := c.Bcast(0, nil)
		mu.Lock()
		rankErrs[c.Rank()] = err
		mu.Unlock()
		return err
	})
	for rank := cube.NodeID(1); rank <= 3; rank++ {
		err := rankErrs[rank]
		if err == nil {
			t.Fatalf("rank %d returned nil across a failed transport", rank)
		}
		var pe *mpx.PeerError
		if !errors.As(err, &pe) {
			t.Fatalf("rank %d error does not wrap *mpx.PeerError: %v", rank, err)
		}
		if !(pe.Self == 1 && pe.Peer == 3) && !(pe.Self == 3 && pe.Peer == 1) {
			t.Fatalf("rank %d PeerError names link %d->%d, want the 1<->3 edge", rank, pe.Self, pe.Peer)
		}
		if !strings.Contains(err.Error(), "connection lost") {
			t.Fatalf("rank %d error lacks the transport diagnosis: %v", rank, err)
		}
	}
	// Rank 2 is the collateral case the fix exists for: its own links
	// (2<->0 and 2<->3) are healthy — the dead edge is 1<->3 — yet the
	// loop above proved its error names the dead link all the same.
}
