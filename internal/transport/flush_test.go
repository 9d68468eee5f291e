package transport

import (
	"bufio"
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
// socket: it answers the handshake, then decodes whatever arrives into
// one reused frame and acknowledges each data or batch frame by its
// place in the stream, so a resilient link's replay ring drains and the only allocations left in the
// process are the endpoint's own.
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
		r := wire.NewReader(bufio.NewReader(conn))
		var fr wire.Frame
		ack := make([]byte, 0, 16)
		var n uint64
		for {
			if err := r.ReadAnyInto(&fr); err != nil {
				return
			}
			if res.Enabled && (fr.Kind == wire.KindData || fr.Kind == wire.KindBatch) {
				n++
				if _, err := conn.Write(wire.AppendAck(ack[:0], n)); err != nil {
					return
				}
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

// TestFlushZeroAllocs: once warm, a send and its flush hand a 64 B
// message to the kernel without allocating, on either link mode — a
// plain link's batch frame, in a block taken from the free list at the
// send and given back after the write, and a resilient link's batch
// frame kept in the replay ring until the peer's ACK recycles its block,
// and an ACK of its own. The writev list is the link's, not a local that
// escapes through net.Buffers.WriteTo.
func TestFlushZeroAllocs(t *testing.T) {
	testleak.Check(t)
	for _, tc := range []struct {
		name string
		res  ResilienceOptions
	}{{"plain", ResilienceOptions{}}, {"resilient", fastResilience()}} {
		t.Run(tc.name, func(t *testing.T) {
			l := drainedEndpoint(t, tc.res).linkAt(0)
			msg := mpx.Message{Tag: 1, Parts: []mpx.Part{{Dest: 1, Data: make([]byte, 64)}}}
			var err error
			sendFlush := func() {
				if e := l.send(msg, 0, fault.Outcome{}); e != nil {
					err = e
				}
				if l.r != nil {
					l.mu.Lock()
					l.r.needAck = true
					l.mu.Unlock()
				}
				if e := l.flush(); e != nil {
					err = e
				}
			}
			// Warm up past a few block rolls, so the ring and the held
			// blocks have reached their size.
			for i := 0; i < 2000; i++ {
				sendFlush()
			}
			if a := testing.AllocsPerRun(200, sendFlush); a != 0 || err != nil {
				t.Fatalf("a warm send and flush allocates %.2f times (err %v)", a, err)
			}
		})
	}
}
