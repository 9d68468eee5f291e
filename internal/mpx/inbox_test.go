package mpx

import (
	"runtime"
	"sync"
	"testing"
	"time"

	"repro/internal/cube"
)

// TestAttachOrderingChan switches node 0 of a 2-cube from the channel
// to a sink while both neighbors are mid-stream: the channel is full of
// envelopes queued before Attach and the senders are stuck behind it.
// The sink must see every sender's tags in the order sent, and nothing
// may stay behind in the channel. Run under -race -count=10 in CI.
func TestAttachOrderingChan(t *testing.T) {
	// The window in which a sender has chosen the channel but is not yet
	// queued on it is a few instructions wide: switch many times.
	for round := 0; round < 100 && !t.Failed(); round++ {
		attachMidStream(t)
	}
}

func attachMidStream(t *testing.T) {
	const perSender, depth = 50, 2
	tr := NewChanTransport(3, depth, nil)
	defer tr.Close()
	senders := []cube.NodeID{1, 2, 4}
	var wg sync.WaitGroup
	for _, from := range senders {
		wg.Add(1)
		go func(from cube.NodeID) {
			defer wg.Done()
			port := tr.Cube().Port(from, 0)
			for i := 0; i < perSender; i++ {
				if err := tr.Send(from, port, Message{Tag: i}); err != nil {
					t.Errorf("send %d from %d: %v", i, from, err)
					return
				}
			}
		}(from)
	}
	for inbox := tr.Inbox(0); len(inbox) < cap(inbox); {
		runtime.Gosched()
	}
	// The sink runs under the inbox lock: next and got need no other.
	next := map[cube.NodeID]int{}
	got := 0
	all := make(chan struct{})
	tr.Attach(0, Consumer{Sink: func(env Envelope) {
		if env.Tag != next[env.From] && !t.Failed() {
			t.Errorf("from %d: got tag %d, want %d", env.From, env.Tag, next[env.From])
		}
		next[env.From]++
		if got++; got == perSender*len(senders) {
			close(all)
		}
	}, Closed: func() {}})
	select {
	case <-all:
	case <-time.After(10 * time.Second):
		t.Fatal("sink did not receive every envelope")
	}
	wg.Wait()
	if n := len(tr.Inbox(0)); n != 0 {
		t.Fatalf("%d envelopes stranded in the channel after Attach", n)
	}
}

// TestAttachAfterCloseReportsClosed: a consumer attaching to a transport
// that is already down learns so at once, and Close tells an attached
// consumer exactly once.
func TestAttachAfterCloseReportsClosed(t *testing.T) {
	tr := NewChanTransport(1, 1, nil)
	closed := 0
	tr.Attach(0, Consumer{Sink: func(Envelope) {}, Closed: func() { closed++ }})
	tr.Close()
	tr.Close()
	if closed != 1 {
		t.Fatalf("closed ran %d times across two Closes, want 1", closed)
	}
	tr.Attach(0, Consumer{Sink: func(Envelope) {}, Closed: func() { closed++ }})
	if closed != 2 {
		t.Fatal("Attach on a closed transport did not report closed")
	}
	if err := tr.Send(1, 0, Message{}); err != ErrDown {
		t.Fatalf("Send after Close = %v, want ErrDown", err)
	}
}
