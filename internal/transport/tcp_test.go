package transport

import (
	"errors"
	"fmt"
	"net"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/cube"
	"repro/internal/fault"
	"repro/internal/mpx"
	"repro/internal/testleak"
	"repro/internal/wire"
)

// payload is the deterministic per-edge test payload.
func payload(from, to cube.NodeID) []byte {
	return []byte(fmt.Sprintf("edge %d->%d", from, to))
}

// loopback connects a dim-cube of one-rank endpoints (Loopback), each
// shaped by shape when it is non-nil; cleanup closes all.
func loopback(t *testing.T, dim int, shape func(*TCPOptions)) []*TCP {
	t.Helper()
	trs, err := Loopback(dim, func(o *TCPOptions) {
		o.HandshakeTimeout = 10 * time.Second
		if shape != nil {
			shape(o)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		for _, tr := range trs {
			tr.Close()
		}
	})
	return trs
}

// runAll runs program on a Machine per transport and joins the errors.
func runAll(trs []*TCP, program func(nd *mpx.Node) error) error {
	var wg sync.WaitGroup
	errs := make(chan error, len(trs))
	for _, tr := range trs {
		wg.Add(1)
		go func(tr *TCP) {
			defer wg.Done()
			if err := mpx.NewWithTransport(tr, nil).Run(program); err != nil {
				errs <- err
			}
		}(tr)
	}
	wg.Wait()
	close(errs)
	return <-errs
}

// neighborExchange is the canonical transport exerciser on a dim-cube:
// every node sends a distinct payload to each neighbor, then receives
// dim messages and verifies sender, arrival port and bytes.
func neighborExchange(dim int) func(nd *mpx.Node) error {
	return func(nd *mpx.Node) error {
		for d := 0; d < dim; d++ {
			nd.Send(d, mpx.Message{Tag: int(nd.ID), Parts: []mpx.Part{
				{Dest: nd.ID ^ cube.NodeID(1<<uint(d)), Data: payload(nd.ID, nd.ID^cube.NodeID(1<<uint(d)))},
			}})
		}
		for i := 0; i < dim; i++ {
			env, ok := nd.RecvTimeout(10 * time.Second)
			if !ok {
				return fmt.Errorf("timed out after %d of %d messages", i, dim)
			}
			want := nd.ID ^ cube.NodeID(1<<uint(env.Port))
			if env.From != want {
				return fmt.Errorf("port %d delivered From=%d, want %d", env.Port, env.From, want)
			}
			if got, want := string(env.Parts[0].Data), string(payload(env.From, nd.ID)); got != want {
				return fmt.Errorf("payload %q, want %q", got, want)
			}
		}
		return nil
	}
}

// TestTCPOneProcessPerNode runs a 3-cube as eight endpoints, one node
// each — every cube link is a real socket.
func TestTCPOneProcessPerNode(t *testing.T) {
	testleak.Check(t)
	trs := loopback(t, 3, nil)
	if err := runAll(trs, neighborExchange(3)); err != nil {
		t.Fatal(err)
	}
	for id, tr := range trs {
		tr.Close()
		if err := tr.PeerError(cube.NodeID(id)); err != nil {
			t.Errorf("node %d: unexpected peer error after graceful close: %v", id, err)
		}
	}
}

// TestTCPHandshakeRejectsDimMismatch connects a raw socket speaking the
// wrong cube dimension and expects the accepting endpoint to refuse it.
func TestTCPHandshakeRejectsDimMismatch(t *testing.T) {
	tr, err := NewTCP(TCPOptions{Dim: 1, Locals: []cube.NodeID{1}, HandshakeTimeout: 5 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	defer tr.Close()

	connectErr := make(chan error, 1)
	go func() { connectErr <- tr.Connect([]string{"unused", tr.Addr()}) }()

	conn, err := net.Dial("tcp", tr.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	// Claim to be node 0 of a 4-cube.
	if _, err := conn.Write(wire.AppendHello(nil, wire.Hello{Dim: 4, From: 0, To: 1})); err != nil {
		t.Fatal(err)
	}
	err = <-connectErr
	if err == nil || !strings.Contains(err.Error(), "cube") {
		t.Fatalf("Connect err = %v, want dimension mismatch", err)
	}
}

// TestConnectDownReturnsAtOnce: Connect on an endpoint that is already
// closed returns mpx.ErrDown at once, and a Loopback whose handshakes
// fail (one endpoint asks for resilient links, its neighbors do not)
// fails at once too: every endpoint is closed at the first error, which
// ends the other Connects, instead of each redialing a closed listener
// until its handshake timeout. Whether a neighbor dials after the failed
// endpoint has closed is a race (three of five tries before the fix), so
// the Loopback is tried five times.
func TestConnectDownReturnsAtOnce(t *testing.T) {
	testleak.Check(t)
	const timeout = 10 * time.Second
	tr, err := NewTCP(TCPOptions{Dim: 1, Locals: []cube.NodeID{1}, HandshakeTimeout: timeout})
	if err != nil {
		t.Fatal(err)
	}
	tr.Close()
	start := time.Now()
	if err := tr.Connect([]string{"127.0.0.1:1", tr.Addr()}); !errors.Is(err, mpx.ErrDown) {
		t.Fatalf("Connect on a closed endpoint: %v, want mpx.ErrDown", err)
	}
	if took := time.Since(start); took > time.Second {
		t.Fatalf("Connect on a closed endpoint took %v", took)
	}

	for try := 0; try < 5; try++ {
		start = time.Now()
		trs, err := Loopback(3, func(o *TCPOptions) {
			o.HandshakeTimeout = timeout
			o.Resilience.Enabled = o.Locals[0] == 7
		})
		if err == nil {
			for _, tr := range trs {
				tr.Close()
			}
			t.Fatal("Loopback with one resilient endpoint connected")
		}
		// Rank 7 refuses its neighbors' hellos; a neighbor sees that as
		// the connection closing under its handshake.
		if msg := err.Error(); !strings.Contains(msg, "resilience mode mismatch") && !strings.Contains(msg, "from peer 7") {
			t.Fatalf("Loopback failed with %v, want the mode mismatch", err)
		}
		if took := time.Since(start); took > time.Second {
			t.Fatalf("try %d: a failed Loopback took %v", try, took)
		}
	}
}

// TestTCPFaultCorruptExercisesChecksum injects a Corrupt fault on the
// wire: the sender flips a byte of the encoded frame after the CRC was
// computed, and the receiver's checksum — the real one — must reject it.
func TestTCPFaultCorruptExercisesChecksum(t *testing.T) {
	testleak.Check(t)
	plan := fault.NewPlan(1).AddRule(fault.Rule{
		Link: cube.Edge{From: 0, To: 1}, Kind: fault.Corrupt, Nth: 0,
	})
	trs := loopback(t, 1, func(o *TCPOptions) { o.Injector = plan.Injector() })
	err := runAll(trs, func(nd *mpx.Node) error {
		if nd.ID == 0 {
			nd.Send(0, mpx.Message{Tag: 1, Parts: []mpx.Part{{Dest: 1, Data: []byte("first: corrupted on the wire")}}})
			nd.Send(0, mpx.Message{Tag: 2, Parts: []mpx.Part{{Dest: 1, Data: []byte("second: intact")}}})
			return nil
		}
		env, ok := nd.RecvTimeout(10 * time.Second)
		if !ok {
			return errors.New("no message survived")
		}
		if env.Tag != 2 {
			return fmt.Errorf("received tag %d, want 2 (the corrupted frame must be dropped)", env.Tag)
		}
		if _, spurious := nd.RecvTimeout(200 * time.Millisecond); spurious {
			return errors.New("the corrupted frame was delivered anyway")
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if got := trs[1].crcDropped.Load(); got != 1 {
		t.Fatalf("receiver dropped %d frames by checksum, want 1", got)
	}
}

// TestTCPFaultDropAndDuplicate applies drop and duplicate rules at the
// transport boundary of a socket link.
func TestTCPFaultDropAndDuplicate(t *testing.T) {
	testleak.Check(t)
	plan := fault.NewPlan(1).
		AddRule(fault.Rule{Link: cube.Edge{From: 0, To: 1}, Kind: fault.Duplicate, Nth: fault.EveryMessage}).
		AddRule(fault.Rule{Link: cube.Edge{From: 1, To: 0}, Kind: fault.Drop, Nth: fault.EveryMessage})
	trs := loopback(t, 1, func(o *TCPOptions) { o.Injector = plan.Injector() })
	err := runAll(trs, func(nd *mpx.Node) error {
		if nd.ID == 0 {
			nd.Send(0, mpx.Message{Tag: 7, Parts: []mpx.Part{{Dest: 1, Data: []byte("dup me")}}})
			if _, ok := nd.RecvTimeout(300 * time.Millisecond); ok {
				return errors.New("message crossed a link that drops everything")
			}
			return nil
		}
		nd.Send(0, mpx.Message{Tag: 9, Parts: []mpx.Part{{Dest: 0, Data: []byte("never arrives")}}})
		for i := 0; i < 2; i++ {
			env, ok := nd.RecvTimeout(10 * time.Second)
			if !ok {
				return fmt.Errorf("got %d copies, want 2 (duplicate rule)", i)
			}
			if env.Tag != 7 || string(env.Parts[0].Data) != "dup me" {
				return fmt.Errorf("copy %d mangled: %+v", i, env.Message)
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestTCPFaultPeerCrashSurfacesPeerError severs a connection without the
// BYE announcement (a crashed peer process) and expects the survivor to
// record a *mpx.PeerError naming the dead neighbor, shut down, and
// report the failure from Machine.Run instead of hanging.
func TestTCPFaultPeerCrashSurfacesPeerError(t *testing.T) {
	testleak.Check(t)
	tr, err := NewTCP(TCPOptions{Dim: 1, Locals: []cube.NodeID{0}, HandshakeTimeout: 5 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	defer tr.Close()

	// A raw listener plays node 1: handshake correctly, then crash.
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
		time.Sleep(50 * time.Millisecond) // let Connect finish
		conn.Close()                      // crash: no BYE
	}()

	if err := tr.Connect([]string{tr.Addr(), ln.Addr().String()}); err != nil {
		t.Fatalf("Connect: %v", err)
	}
	err = mpx.NewWithTransport(tr, nil).Run(func(nd *mpx.Node) error {
		nd.Recv() // blocks until the link dies and the transport aborts us
		return errors.New("received a message from a crashed peer")
	})
	var pe *mpx.PeerError
	if !errors.As(err, &pe) {
		t.Fatalf("Run err = %v, want a *mpx.PeerError", err)
	}
	if pe.Self != 0 || pe.Peer != 1 {
		t.Fatalf("PeerError names link %d->%d, want 0->1", pe.Self, pe.Peer)
	}
	select {
	case <-tr.Done():
	case <-time.After(5 * time.Second):
		t.Fatal("transport did not shut down after the peer crash")
	}
}

// TestTCPCoalescedBurst pushes enough traffic through one link to roll
// the coalescing buffer over its flush threshold repeatedly, checking
// count, order and integrity on the far side.
func TestTCPCoalescedBurst(t *testing.T) {
	testleak.Check(t)
	const msgs = 2000
	trs := loopback(t, 1, nil)
	err := runAll(trs, func(nd *mpx.Node) error {
		if nd.ID == 0 {
			body := make([]byte, 512)
			for i := range body {
				body[i] = byte(i)
			}
			for i := 0; i < msgs; i++ {
				nd.Send(0, mpx.Message{Tag: i, Parts: []mpx.Part{{Dest: 1, Data: body}}})
			}
			return nil
		}
		for i := 0; i < msgs; i++ {
			env, ok := nd.RecvTimeout(20 * time.Second)
			if !ok {
				return fmt.Errorf("timed out at message %d/%d", i, msgs)
			}
			if env.Tag != i {
				return fmt.Errorf("message %d arrived with tag %d: ordering broken", i, env.Tag)
			}
			if len(env.Parts[0].Data) != 512 || env.Parts[0].Data[100] != 100 {
				return fmt.Errorf("message %d payload damaged", i)
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestInProcNoGoroutineLeak asserts the goroutine count returns to
// baseline after a run over the in-process transport.
func TestInProcNoGoroutineLeak(t *testing.T) {
	testleak.Check(t)
	tr := mpx.NewChanTransport(4, 8, nil)
	m := mpx.NewWithTransport(tr, nil)
	if err := m.Run(neighborExchange(4)); err != nil {
		t.Fatal(err)
	}
	m.Shutdown()
}

// TestTCPNoGoroutineLeak asserts pumps and flushers all exit after a
// graceful run-and-close over the TCP transport. (loopback registers
// Close via t.Cleanup, which runs before testleak's check.)
func TestTCPNoGoroutineLeak(t *testing.T) {
	testleak.Check(t)
	trs := loopback(t, 2, nil)
	if err := runAll(trs, neighborExchange(2)); err != nil {
		t.Fatal(err)
	}
	for _, tr := range trs {
		tr.Close()
	}
}

// TestNewTCPHostsOneRank: an endpoint hosts exactly one rank of its
// cube; any other Locals is refused before a socket is bound.
func TestNewTCPHostsOneRank(t *testing.T) {
	for _, tc := range []struct {
		name   string
		locals []cube.NodeID
		want   string
	}{
		{"empty", nil, "exactly one rank"},
		{"two ranks", []cube.NodeID{0, 1}, "exactly one rank"},
		{"outside the cube", []cube.NodeID{4}, "outside the 2-cube"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			tr, err := NewTCP(TCPOptions{Dim: 2, Locals: tc.locals})
			if err == nil {
				tr.Close()
				t.Fatalf("NewTCP(Locals %v) succeeded", tc.locals)
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("NewTCP(Locals %v) = %v, want an error saying %q", tc.locals, err, tc.want)
			}
		})
	}
	tr, err := NewTCP(TCPOptions{Dim: 2, Locals: []cube.NodeID{3}})
	if err != nil {
		t.Fatal(err)
	}
	tr.Close()
}

// TestHandshakeRefusesRankNotHosted: a hello addressed to a rank the
// endpoint does not host — its neighbor's own rank, or one outside the
// cube — is outside input, refused on both paths that read one: the
// handshake while Connect runs, and the resume handshake a connected
// resilient endpoint serves afterwards. The connection closes without
// an echo and no link slot changes.
func TestHandshakeRefusesRankNotHosted(t *testing.T) {
	testleak.Check(t)
	for _, to := range []cube.NodeID{0, 2} {
		t.Run(fmt.Sprintf("connect/to=%d", to), func(t *testing.T) {
			tr, err := NewTCP(TCPOptions{Dim: 1, Locals: []cube.NodeID{1}, HandshakeTimeout: 5 * time.Second})
			if err != nil {
				t.Fatal(err)
			}
			defer tr.Close()
			connectErr := make(chan error, 1)
			go func() { connectErr <- tr.Connect([]string{"unused", tr.Addr()}) }()
			conn, err := dialAddr(tr.Addr(), 5*time.Second)
			if err != nil {
				t.Fatal(err)
			}
			conn.Write(wire.AppendHello(nil, wire.Hello{Dim: 1, From: 1, To: to}))
			if err := refused(conn); err != nil {
				t.Fatal(err)
			}
			if err := <-connectErr; err == nil || !strings.Contains(err.Error(), "not hosted here") {
				t.Fatalf("Connect err = %v, want the hello refused as not hosted here", err)
			}
			if l := tr.linkAt(0); l != nil {
				t.Fatalf("the refused hello installed a link to %d", l.peer)
			}
		})
		t.Run(fmt.Sprintf("resume/to=%d", to), func(t *testing.T) {
			trs := loopback(t, 1, func(o *TCPOptions) { o.Resilience = fastResilience() })
			l := trs[1].linkAt(0)
			l.mu.Lock()
			gen := l.gen
			l.mu.Unlock()
			conn, err := dialAddr(trs[1].Addr(), 5*time.Second)
			if err != nil {
				t.Fatal(err)
			}
			conn.Write(wire.AppendHello(nil, wire.Hello{Dim: 1, From: 1, To: to, Resilient: true, RecvSeq: 3}))
			if err := refused(conn); err != nil {
				t.Fatal(err)
			}
			l.mu.Lock()
			same := l.gen == gen
			l.mu.Unlock()
			if trs[1].linkAt(0) != l || !same || trs[1].Stats().Reconnects != 0 {
				t.Fatal("the refused resume hello replaced or reinstalled the link")
			}
			if err := runAll(trs, neighborExchange(1)); err != nil {
				t.Fatal(err)
			}
		})
	}
}
