package transport

import (
	"sync"
	"testing"
	"time"

	"repro/internal/cube"
	"repro/internal/mpx"
	"repro/internal/testleak"
)

// TestAttachOrderingTCP is the socket twin of mpx's attach-switch test.
// Rank 0 of a 2-cube of one-rank endpoints hears from two socket
// senders, ranks 1 and 2, each on its own link's read pump. Both stream
// into rank 0 until its channel is full and they are stuck behind it;
// then a sink attaches. Every sender's tags must reach the sink in
// order and none may stay in the channel. Run under -race -count=10 in
// CI.
func TestAttachOrderingTCP(t *testing.T) {
	testleak.Check(t)
	const perSender = 300
	trs := loopback(t, 2, nil)
	senders := []struct {
		from cube.NodeID
		port int
	}{{1, 0}, {2, 1}}
	var wg sync.WaitGroup
	for _, s := range senders {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perSender; i++ {
				if err := trs[s.from].Send(s.from, s.port, mpx.Message{Tag: i}); err != nil {
					t.Errorf("send %d from %d: %v", i, s.from, err)
					return
				}
			}
		}()
	}
	inbox := trs[0].Inbox(0)
	for deadline := time.Now().Add(10 * time.Second); len(inbox) < cap(inbox); {
		if time.Now().After(deadline) {
			t.Fatal("node 0's channel never filled")
		}
		time.Sleep(time.Millisecond)
	}
	// The sink runs under the inbox lock: next and got need no other.
	next := map[cube.NodeID]int{}
	got := 0
	all := make(chan struct{})
	trs[0].Attach(0, mpx.Consumer{Sink: func(env mpx.Envelope) {
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
	if n := len(inbox); n != 0 {
		t.Fatalf("%d envelopes stranded in the channel after Attach", n)
	}
}
