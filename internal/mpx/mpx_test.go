package mpx

import (
	"bytes"
	"errors"
	"sync/atomic"
	"testing"
	"time"
)

func TestPingPong(t *testing.T) {
	m := New(3, 1)
	var got []byte
	err := m.Run(func(nd *Node) error {
		switch nd.ID {
		case 0:
			nd.Send(1, Message{Parts: []Part{{Dest: 2, Data: []byte("ping")}}})
			env := nd.Recv()
			if env.From != 2 || env.Port != 1 {
				t.Errorf("reply from %d port %d", env.From, env.Port)
			}
			got = env.Parts[0].Data
		case 2:
			env := nd.Recv()
			if env.From != 0 {
				t.Errorf("ping from %d", env.From)
			}
			nd.SendTo(0, Message{Parts: []Part{{Dest: 0, Data: append(env.Parts[0].Data, []byte("-pong")...)}}})
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, []byte("ping-pong")) {
		t.Errorf("got %q", got)
	}
}

func TestFIFOPerSender(t *testing.T) {
	m := New(2, 16)
	const k = 10
	err := m.Run(func(nd *Node) error {
		switch nd.ID {
		case 0:
			for i := 0; i < k; i++ {
				nd.Send(0, Message{Tag: i})
			}
		case 1:
			for i := 0; i < k; i++ {
				env := nd.Recv()
				if env.Tag != i {
					t.Errorf("message %d arrived out of order (tag %d)", i, env.Tag)
				}
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestSendToPanicsOnNonNeighbor(t *testing.T) {
	m := New(3, 1)
	defer func() {
		if recover() == nil {
			t.Error("SendTo to non-neighbor did not panic")
		}
	}()
	_ = m.Run(func(nd *Node) error {
		if nd.ID == 0 {
			nd.SendTo(3, Message{}) // distance 2
		}
		return nil
	})
}

func TestRunCollectsError(t *testing.T) {
	m := New(2, 1)
	sentinel := errors.New("boom")
	err := m.Run(func(nd *Node) error {
		if nd.ID == 2 {
			return sentinel
		}
		return nil
	})
	if !errors.Is(err, sentinel) {
		t.Errorf("err = %v", err)
	}
}

func TestEnvelopePortMatchesSender(t *testing.T) {
	// Port in the envelope is the differing bit between sender and
	// receiver, from the receiver's perspective it leads back to sender.
	m := New(4, 4)
	err := m.Run(func(nd *Node) error {
		if nd.ID == 0 {
			for j := 0; j < 4; j++ {
				nd.Send(j, Message{Tag: j})
			}
			return nil
		}
		if c := m.Cube(); c.Distance(0, nd.ID) == 1 {
			env := nd.Recv()
			if env.From != 0 {
				t.Errorf("node %d: from %d", nd.ID, env.From)
			}
			if m.Cube().Neighbor(nd.ID, env.Port) != 0 {
				t.Errorf("node %d: port %d does not lead to sender", nd.ID, env.Port)
			}
			if env.Tag != env.Port {
				t.Errorf("node %d: tag %d port %d", nd.ID, env.Tag, env.Port)
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestAllNodesRun(t *testing.T) {
	m := New(6, 1)
	var count int64
	err := m.Run(func(nd *Node) error {
		atomic.AddInt64(&count, 1)
		if nd.m.c.Dim() != 6 {
			t.Errorf("Dim() = %d", nd.m.c.Dim())
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if count != 64 {
		t.Errorf("%d nodes ran", count)
	}
}

func TestMessageSize(t *testing.T) {
	msg := Message{Parts: []Part{{Data: make([]byte, 3)}, {Data: make([]byte, 5)}}}
	if msg.Size() != 8 {
		t.Errorf("Size = %d", msg.Size())
	}
}

func TestDepthFloor(t *testing.T) {
	// depth < 1 is clamped to 1 rather than creating unbuffered channels
	// (which would deadlock single-goroutine send-then-recv patterns).
	m := New(1, 0)
	err := m.Run(func(nd *Node) error {
		if nd.ID == 0 {
			nd.Send(0, Message{Tag: 7})
			return nil
		}
		if env := nd.Recv(); env.Tag != 7 {
			t.Errorf("tag %d", env.Tag)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestPanicDoesNotDeadlockPeers(t *testing.T) {
	// A node panicking while its peers block in Recv must abort the whole
	// machine (propagating the original panic), not hang Run forever.
	m := New(3, 1)
	done := make(chan struct{})
	go func() {
		defer func() {
			if r := recover(); r != "early-death" {
				t.Errorf("recovered %v", r)
			}
			close(done)
		}()
		_ = m.Run(func(nd *Node) error {
			if nd.ID == 5 {
				panic("early-death")
			}
			nd.Recv() // nobody ever sends
			return nil
		})
	}()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("machine deadlocked after node panic")
	}
}

func TestRunPropagatesPanic(t *testing.T) {
	m := New(1, 1)
	defer func() {
		if r := recover(); r != "node-panic" {
			t.Errorf("recovered %v", r)
		}
	}()
	_ = m.Run(func(nd *Node) error {
		if nd.ID == 1 {
			panic("node-panic")
		}
		return nil
	})
	t.Error("panic did not propagate")
}
