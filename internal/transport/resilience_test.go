package transport

import (
	"errors"
	"fmt"
	"net"
	"os"
	"sync"
	"testing"
	"time"

	"repro/internal/cube"
	"repro/internal/fault"
	"repro/internal/mpx"
	"repro/internal/testleak"
	"repro/internal/wire"
)

// fastResilience keeps reconnect cycles short for tests.
func fastResilience() ResilienceOptions {
	return ResilienceOptions{
		Enabled:     true,
		MaxAttempts: 8,
		Budget:      5 * time.Second,
		BaseBackoff: 2 * time.Millisecond,
		MaxBackoff:  50 * time.Millisecond,
	}
}

// sever closes the current socket of endpoint tr's link on port from
// outside the protocol — exactly what a dropped connection looks like.
func sever(tr *TCP, port int) bool {
	l := tr.linkAt(port)
	if l == nil {
		return false
	}
	l.mu.Lock()
	conn := l.conn
	ok := conn != nil && l.err == nil && (l.r == nil || l.r.connected)
	l.mu.Unlock()
	if ok {
		conn.Close()
	}
	return ok
}

// TestResilientReconnectReplaysInOrder streams messages across a link
// that is severed repeatedly mid-stream: the supervisor must redial,
// resume and replay so the receiver sees every message exactly once, in
// order.
func TestResilientReconnectReplaysInOrder(t *testing.T) {
	testleak.Check(t)
	const msgs = 500
	trs := loopback(t, 1, func(o *TCPOptions) { o.Resilience = fastResilience() })

	// Sever the sender-side socket a few times while the stream runs.
	stop := make(chan struct{})
	var chaosWG sync.WaitGroup
	chaosWG.Add(1)
	go func() {
		defer chaosWG.Done()
		for i := 0; i < 3; i++ {
			select {
			case <-stop:
				return
			case <-time.After(15 * time.Millisecond):
			}
			sever(trs[0], 0)
		}
	}()

	err := runAll(trs, func(nd *mpx.Node) error {
		if nd.ID == 0 {
			for i := 0; i < msgs; i++ {
				nd.Send(0, mpx.Message{Tag: i, Parts: []mpx.Part{{Dest: 1, Data: payload(0, 1)}}})
			}
			return nil
		}
		for i := 0; i < msgs; i++ {
			env, ok := nd.RecvTimeout(20 * time.Second)
			if !ok {
				return fmt.Errorf("timed out after %d of %d messages", i, msgs)
			}
			if env.Tag != i {
				return fmt.Errorf("message %d arrived with tag %d (lost, duplicated or reordered)", i, env.Tag)
			}
			if string(env.Parts[0].Data) != string(payload(0, 1)) {
				return fmt.Errorf("message %d corrupted", i)
			}
		}
		if _, spurious := nd.RecvTimeout(200 * time.Millisecond); spurious {
			return errors.New("a replayed frame was delivered twice")
		}
		return nil
	})
	close(stop)
	chaosWG.Wait()
	if err != nil {
		t.Fatal(err)
	}
	stats := trs[0].Stats()
	if stats.Reconnects == 0 {
		t.Fatalf("sender stats report no reconnects after severing the link: %+v", stats)
	}
}

// TestResilientCorruptRecoveredByRetransmit is the inverse of the plain
// transport's corruption test: with resilience on, a CRC-rejected frame
// must be NACKed and retransmitted, so the receiver gets BOTH messages.
func TestResilientCorruptRecoveredByRetransmit(t *testing.T) {
	testleak.Check(t)
	plan := fault.NewPlan(1).AddRule(fault.Rule{
		Link: cube.Edge{From: 0, To: 1}, Kind: fault.Corrupt, Nth: 0,
	})
	trs := loopback(t, 1, func(o *TCPOptions) { o.Injector, o.Resilience = plan.Injector(), fastResilience() })
	err := runAll(trs, func(nd *mpx.Node) error {
		if nd.ID == 0 {
			nd.Send(0, mpx.Message{Tag: 1, Parts: []mpx.Part{{Dest: 1, Data: []byte("first: corrupted on the wire")}}})
			nd.Send(0, mpx.Message{Tag: 2, Parts: []mpx.Part{{Dest: 1, Data: []byte("second: intact")}}})
			return nil
		}
		for want := 1; want <= 2; want++ {
			env, ok := nd.RecvTimeout(10 * time.Second)
			if !ok {
				return fmt.Errorf("message %d never arrived (retransmit did not heal the CRC drop)", want)
			}
			if env.Tag != want {
				return fmt.Errorf("received tag %d, want %d (in-order delivery broken)", env.Tag, want)
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if got := trs[1].Stats().CRCDropped; got != 1 {
		t.Fatalf("receiver dropped %d frames by checksum, want 1", got)
	}
	if got := trs[1].Stats().NacksSent; got == 0 {
		t.Fatal("receiver sent no NACK for the CRC-dropped frame")
	}
	if got := trs[0].Stats().Retransmits; got == 0 {
		t.Fatal("sender recorded no retransmits")
	}
}

// TestResilientDuplicateDeduped injects wire-level duplicates: the
// receiver's sequence filter must deliver each message exactly once.
func TestResilientDuplicateDeduped(t *testing.T) {
	testleak.Check(t)
	plan := fault.NewPlan(1).AddRule(fault.Rule{
		Link: cube.Edge{From: 0, To: 1}, Kind: fault.Duplicate, Nth: fault.EveryMessage,
	})
	trs := loopback(t, 1, func(o *TCPOptions) { o.Injector, o.Resilience = plan.Injector(), fastResilience() })
	const msgs = 10
	err := runAll(trs, func(nd *mpx.Node) error {
		if nd.ID == 0 {
			for i := 0; i < msgs; i++ {
				nd.Send(0, mpx.Message{Tag: i, Parts: []mpx.Part{{Dest: 1, Data: payload(0, 1)}}})
			}
			return nil
		}
		for i := 0; i < msgs; i++ {
			env, ok := nd.RecvTimeout(10 * time.Second)
			if !ok {
				return fmt.Errorf("timed out after %d of %d messages", i, msgs)
			}
			if env.Tag != i {
				return fmt.Errorf("message %d arrived with tag %d (duplicate slipped through?)", i, env.Tag)
			}
		}
		if _, spurious := nd.RecvTimeout(200 * time.Millisecond); spurious {
			return errors.New("a duplicated frame was delivered twice")
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if got := trs[1].Stats().DupsDropped; got != msgs {
		t.Fatalf("receiver deduplicated %d frames, want %d", got, msgs)
	}
}

// fakeResilientPeer plays node `from` against a transport hosting node
// `to`: it accepts one connection, completes the resilient handshake,
// holds the socket open for `hold`, then crashes (no BYE) and never
// returns. The listener closes too, so every redial is refused.
func fakeResilientPeer(t *testing.T, dim int, from, to cube.NodeID, hold time.Duration) net.Listener {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go func() {
		conn, err := ln.Accept()
		if err != nil {
			return
		}
		ln.Close() // no second chance: redials are refused
		if _, err := wire.ReadHello(conn); err != nil {
			conn.Close()
			return
		}
		conn.Write(wire.AppendHello(nil, wire.Hello{Dim: dim, From: from, To: to, Resilient: true}))
		time.Sleep(hold)
		conn.Close() // crash: no BYE
	}()
	return ln
}

// TestResilientBudgetExhaustionNamesPeer crashes the accepting peer for
// good: the dialing side's supervisor must burn its redial budget, then
// escalate to a sticky *mpx.PeerError naming the dead peer — within the
// budget, not hanging.
func TestResilientBudgetExhaustionNamesPeer(t *testing.T) {
	testleak.Check(t)
	res := ResilienceOptions{
		Enabled:     true,
		MaxAttempts: 3,
		Budget:      1 * time.Second,
		BaseBackoff: 5 * time.Millisecond,
		MaxBackoff:  20 * time.Millisecond,
	}
	tr, err := NewTCP(TCPOptions{Dim: 1, Locals: []cube.NodeID{0}, HandshakeTimeout: 5 * time.Second, Resilience: res})
	if err != nil {
		t.Fatal(err)
	}
	defer tr.Close()
	ln := fakeResilientPeer(t, 1, 1, 0, 50*time.Millisecond)
	defer ln.Close()

	if err := tr.Connect([]string{tr.Addr(), ln.Addr().String()}); err != nil {
		t.Fatalf("Connect: %v", err)
	}
	start := time.Now()
	err = mpx.NewWithTransport(tr, nil).Run(func(nd *mpx.Node) error {
		nd.Recv() // blocks until escalation aborts the transport
		return errors.New("received a message from a crashed peer")
	})
	elapsed := time.Since(start)
	var pe *mpx.PeerError
	if !errors.As(err, &pe) {
		t.Fatalf("Run err = %v, want a *mpx.PeerError", err)
	}
	if pe.Self != 0 || pe.Peer != 1 {
		t.Fatalf("PeerError names link %d->%d, want 0->1", pe.Self, pe.Peer)
	}
	if elapsed > 10*time.Second {
		t.Fatalf("escalation took %v, far beyond the 1s budget", elapsed)
	}
	select {
	case <-tr.Done():
	case <-time.After(5 * time.Second):
		t.Fatal("transport did not shut down after budget exhaustion")
	}
}

// TestResilientAcceptorEscalatesWhenPeerStaysAway covers the accepting
// side of an outage: the larger node cannot redial, so when the peer
// never comes back its supervisor must escalate after the budget.
func TestResilientAcceptorEscalatesWhenPeerStaysAway(t *testing.T) {
	testleak.Check(t)
	res := ResilienceOptions{
		Enabled: true,
		Budget:  300 * time.Millisecond,
	}
	tr, err := NewTCP(TCPOptions{Dim: 1, Locals: []cube.NodeID{1}, HandshakeTimeout: 5 * time.Second, Resilience: res})
	if err != nil {
		t.Fatal(err)
	}
	defer tr.Close()

	// Fake node 0 dials us (0 < 1), handshakes, then crashes for good.
	done := make(chan error, 1)
	go func() {
		conn, err := net.DialTimeout("tcp", tr.Addr(), 5*time.Second)
		if err != nil {
			done <- err
			return
		}
		hello := wire.Hello{Dim: 1, From: 0, To: 1, Resilient: true}
		if _, err := conn.Write(wire.AppendHello(nil, hello)); err != nil {
			done <- err
			return
		}
		if _, err := wire.ReadHello(conn); err != nil {
			done <- err
			return
		}
		time.Sleep(50 * time.Millisecond)
		conn.Close() // crash: no BYE, no redial
		done <- nil
	}()

	if err := tr.Connect([]string{"127.0.0.1:1", tr.Addr()}); err != nil {
		t.Fatalf("Connect: %v", err)
	}
	if err := <-done; err != nil {
		t.Fatalf("fake peer: %v", err)
	}
	start := time.Now()
	err = mpx.NewWithTransport(tr, nil).Run(func(nd *mpx.Node) error {
		nd.Recv()
		return errors.New("received a message from a crashed peer")
	})
	elapsed := time.Since(start)
	var pe *mpx.PeerError
	if !errors.As(err, &pe) {
		t.Fatalf("Run err = %v, want a *mpx.PeerError", err)
	}
	if pe.Self != 1 || pe.Peer != 0 {
		t.Fatalf("PeerError names link %d->%d, want 1->0", pe.Self, pe.Peer)
	}
	if elapsed > 10*time.Second {
		t.Fatalf("escalation took %v, far beyond the 300ms budget", elapsed)
	}
}

// TestSupervisorAbandonedMidBackoffNoLeak closes the transport while a
// supervisor is deep in its redial backoff: every goroutine and timer
// must drain out (testleak guards the goroutines; a leaked timer would
// keep its goroutine alive past the retry window).
func TestSupervisorAbandonedMidBackoffNoLeak(t *testing.T) {
	testleak.Check(t)
	res := ResilienceOptions{
		Enabled:     true,
		MaxAttempts: 1000,
		Budget:      5 * time.Minute, // far longer than the test: Close must not wait it out
		BaseBackoff: 50 * time.Millisecond,
		MaxBackoff:  10 * time.Second,
	}
	tr, err := NewTCP(TCPOptions{Dim: 1, Locals: []cube.NodeID{0}, HandshakeTimeout: 5 * time.Second, Resilience: res})
	if err != nil {
		t.Fatal(err)
	}
	ln := fakeResilientPeer(t, 1, 1, 0, 20*time.Millisecond)
	defer ln.Close()
	if err := tr.Connect([]string{tr.Addr(), ln.Addr().String()}); err != nil {
		t.Fatalf("Connect: %v", err)
	}
	// Wait for the crash to reach the supervisor and the backoff to start.
	deadline := time.Now().Add(5 * time.Second)
	for tr.Stats().SeveredLinks == 0 && time.Now().Before(deadline) {
		l := tr.linkAt(0)
		l.mu.Lock()
		lost := l.r != nil && !l.r.connected
		l.mu.Unlock()
		if lost {
			break
		}
		time.Sleep(5 * time.Millisecond)
	}
	time.Sleep(60 * time.Millisecond) // let the supervisor enter a backoff sleep
	tr.Close()                        // abandon it mid-backoff; testleak asserts full drain
}

// TestOrderlyCloseLingersUntilAcked: the last frame of a program was
// written to a connection that died before the peer read it, and the
// owner closes at once. An orderly Close keeps the link's supervisor
// and flusher alive until the replay ring is acknowledged, so the
// redial replays the frame and the peer gets it, then BYE. A dirty
// close (Abort) still leaves at once with the ring full.
func TestOrderlyCloseLingersUntilAcked(t *testing.T) {
	testleak.Check(t)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	// accept plays node 1's side of one (re)connection's handshake.
	accept := func() net.Conn {
		t.Helper()
		ln.(*net.TCPListener).SetDeadline(time.Now().Add(10 * time.Second))
		conn, err := ln.Accept()
		if err != nil {
			t.Fatalf("nobody dialed: %v", err)
		}
		conn.SetDeadline(time.Now().Add(10 * time.Second))
		if _, err := wire.ReadHello(conn); err != nil {
			t.Fatal(err)
		}
		conn.Write(wire.AppendHello(nil, wire.Hello{Dim: 1, From: 1, To: 0, Resilient: true}))
		return conn
	}
	connect := func() *TCP {
		t.Helper()
		tr, err := NewTCP(TCPOptions{Dim: 1, Locals: []cube.NodeID{0}, HandshakeTimeout: 5 * time.Second, Resilience: fastResilience()})
		if err != nil {
			t.Fatal(err)
		}
		connected := make(chan error, 1)
		go func() { connected <- tr.Connect([]string{tr.Addr(), ln.Addr().String()}) }()
		accept().Close() // the connection dies with whatever is written to it
		if err := <-connected; err != nil {
			t.Fatal(err)
		}
		return tr
	}
	last := mpx.Message{Tag: 42, Parts: []mpx.Part{{Dest: 1, Data: []byte("the final continue-flag")}}}

	tr := connect()
	if err := tr.Send(0, 0, last); err != nil {
		t.Fatal(err)
	}
	closed := make(chan struct{})
	go func() {
		tr.Close()
		close(closed)
	}()
	conn := accept() // the supervisor's redial
	defer conn.Close()
	from := wire.NewReader(conn)
	var fr wire.Frame
	err = from.ReadAnyInto(&fr)
	for err == nil && fr.Kind != wire.KindSeqData {
		err = from.ReadAnyInto(&fr)
	}
	if err != nil || fr.Seq != 1 || fr.Msg.Tag != last.Tag {
		t.Fatalf("after the redial: frame %+v, err %v; want the last frame replayed as sequence 1", fr, err)
	}
	select {
	case <-closed:
		t.Fatal("Close returned before its last frame was acknowledged")
	default:
	}
	conn.Write(wire.AppendAck(nil, 1))
	for err == nil {
		err = from.ReadAnyInto(&fr)
	}
	if !errors.Is(err, wire.ErrBye) {
		t.Fatalf("after the acknowledgement: %v, want BYE", err)
	}
	<-closed

	tr = connect()
	if err := tr.Send(0, 0, last); err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	tr.Abort()
	if d := time.Since(start); d > closeFlushTimeout/2 {
		t.Fatalf("a dirty close took %v with an unacknowledged frame", d)
	}
}

// refused reports (as nil) that the peer closed conn without answering a
// byte — an orderly close or, when it left some of ours unread, a reset.
func refused(conn net.Conn) error {
	defer conn.Close()
	conn.SetReadDeadline(time.Now().Add(5 * time.Second))
	n, err := conn.Read(make([]byte, 64))
	if n != 0 || err == nil || errors.Is(err, os.ErrDeadlineExceeded) {
		return fmt.Errorf("read %d bytes, err %v; want the connection closed without an echo", n, err)
	}
	return nil
}

// TestOtherVersionHelloRefused: the listener of a serving mesh refuses a
// hello of either form stamped with any version byte but the one in use
// — the retired 1, 2, 3 and a future 5 — by closing that connection
// without an echo, and goes on serving its links.
func TestOtherVersionHelloRefused(t *testing.T) {
	testleak.Check(t)
	trs := loopback(t, 2, func(o *TCPOptions) { o.Resilience = fastResilience() })
	for _, resilient := range []bool{false, true} {
		for _, ver := range []byte{1, 2, 3, wire.MaxVersion + 1} {
			conn, err := dialAddr(trs[0].Addr(), 5*time.Second)
			if err != nil {
				t.Fatal(err)
			}
			hello := wire.AppendHello(nil, wire.Hello{Dim: 2, From: 1, To: 0, Resilient: resilient, RecvSeq: 7})
			hello[4] = ver
			conn.Write(hello)
			if err := refused(conn); err != nil {
				t.Fatalf("hello stamped %d (resilient=%v): %v", ver, resilient, err)
			}
		}
	}
	if n := trs[0].Stats().Reconnects; n != 0 {
		t.Fatalf("%d connections installed from refused hellos", n)
	}
	if err := runAll(trs, neighborExchange(2)); err != nil {
		t.Fatal(err)
	}
}
