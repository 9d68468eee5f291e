package transport

import (
	"net"
	"testing"
	"time"

	"repro/internal/cube"
	"repro/internal/fault"
	"repro/internal/mpx"
	"repro/internal/testleak"
	"repro/internal/wire"
)

// drainedEndpoint hosts node 0 of a 1-cube whose node 1 is a bare
// socket: it answers the handshake and then reads whatever arrives into
// one buffer, so the only allocations left in the process are the
// endpoint's own.
func drainedEndpoint(t *testing.T, res ResilienceOptions) *TCP {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		conn, err := ln.Accept()
		ln.Close()
		if err != nil {
			return
		}
		defer conn.Close()
		if _, err := wire.ReadHello(conn); err != nil {
			return
		}
		conn.Write(wire.AppendHello(nil, wire.Hello{Dim: 1, From: 1, To: 0, Resilient: res.Enabled}))
		buf := make([]byte, 64<<10)
		for {
			if _, err := conn.Read(buf); err != nil {
				return
			}
		}
	}()
	tr, err := NewTCP(TCPOptions{Dim: 1, Locals: []cube.NodeID{0}, HandshakeTimeout: 5 * time.Second, Resilience: res})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		tr.Close()
		ln.Close()
		<-done
	})
	if err := tr.Connect([]string{tr.Addr(), ln.Addr().String()}); err != nil {
		t.Fatal(err)
	}
	return tr
}

// TestFlushZeroAllocs: once warm, a flush hands its segments to the
// kernel without allocating — on a plain link a queued batch frame, on
// a resilient one a piggybacked ACK. The writev list is the link's, not
// a local that escapes through net.Buffers.WriteTo.
func TestFlushZeroAllocs(t *testing.T) {
	testleak.Check(t)
	t.Run("plain", func(t *testing.T) {
		l := drainedEndpoint(t, ResilienceOptions{}).linkAt(0)
		msg := mpx.Message{Tag: 1, Parts: []mpx.Part{{Dest: 1, Data: make([]byte, 64)}}}
		var err error
		if a := testing.AllocsPerRun(200, func() {
			if e := l.send(msg, 0, fault.Outcome{}); e != nil {
				err = e
			}
			if e := l.flush(); e != nil {
				err = e
			}
		}); a != 0 || err != nil {
			t.Fatalf("a warm send and flush allocates %.2f times (err %v)", a, err)
		}
	})
	t.Run("resilient", func(t *testing.T) {
		l := drainedEndpoint(t, fastResilience()).linkAt(0)
		if a := testing.AllocsPerRun(200, func() {
			l.mu.Lock()
			l.r.needAck = true
			l.mu.Unlock()
			l.flush()
		}); a != 0 {
			t.Fatalf("a warm ACK flush allocates %.2f times", a)
		}
	})
}
