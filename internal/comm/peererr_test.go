package comm

import (
	"errors"
	"net"
	"strings"
	"testing"
	"time"

	"repro/internal/cube"
	"repro/internal/mpx"
	"repro/internal/testleak"
	"repro/internal/transport"
	"repro/internal/wire"
)

// TestFaultyPeerCrashDistinguishedFromSequenceMismatch runs one real
// endpoint of a 1-cube against a fake neighbor that handshakes and then
// crashes (closes the socket with no BYE). The rank blocked in a
// collective must fail with a transport-level diagnosis naming the dead
// peer — not with the "corrupt collective stream" sequence-mismatch
// error, and not by hanging.
func TestFaultyPeerCrashDistinguishedFromSequenceMismatch(t *testing.T) {
	// The read pump that sees the crash closes the transport, whose inbox
	// tells the blocked communicator: no goroutine may outlive that.
	testleak.Check(t)
	tr, err := transport.NewTCP(transport.TCPOptions{
		Dim: 1, Locals: []cube.NodeID{0}, HandshakeTimeout: 5 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer tr.Close()

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	go func() {
		conn, err := ln.Accept()
		if err != nil {
			return
		}
		if _, err := wire.ReadHello(conn); err != nil {
			conn.Close()
			return
		}
		conn.Write(wire.AppendHello(nil, wire.Hello{Dim: 1, From: 1, To: 0}))
		time.Sleep(50 * time.Millisecond)
		conn.Close() // crash: no BYE announcement
	}()

	if err := tr.Connect([]string{tr.Addr(), ln.Addr().String()}); err != nil {
		t.Fatalf("Connect: %v", err)
	}
	err = RunOn(mpx.NewWithTransport(tr, nil), func(c *Comm) error {
		_, err := c.Bcast(1, nil) // root is the crashed peer: blocks until detection
		return err
	})
	if err == nil {
		t.Fatal("collective succeeded against a crashed peer")
	}
	var pe *mpx.PeerError
	if !errors.As(err, &pe) {
		t.Fatalf("error does not wrap *mpx.PeerError: %v", err)
	}
	if pe.Peer != 1 {
		t.Fatalf("PeerError names peer %d, want 1", pe.Peer)
	}
	if !strings.Contains(err.Error(), "connection lost") {
		t.Fatalf("error lacks the transport diagnosis: %v", err)
	}
	if strings.Contains(err.Error(), "corrupt collective stream") {
		t.Fatalf("peer crash misdiagnosed as sequence mismatch: %v", err)
	}
}
