package transport

import (
	"bytes"
	"errors"
	"net"
	"runtime"
	"testing"
	"time"

	"repro/internal/cube"
	"repro/internal/mpx"
	"repro/internal/testleak"
	"repro/internal/wire"
)

// rawPeerEndpoint hosts node 0 of a 1-cube whose node 1 is a bare
// socket that answers the handshake; the test writes node 1's frames to
// the returned connection itself.
func rawPeerEndpoint(t *testing.T) (*TCP, net.Conn) {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	conns := make(chan net.Conn, 1)
	go func() {
		conn, err := ln.Accept()
		if err != nil {
			close(conns)
			return
		}
		if _, err := wire.ReadHello(conn); err != nil {
			conn.Close()
			close(conns)
			return
		}
		conn.Write(wire.AppendHello(nil, wire.Hello{Dim: 1, From: 1, To: 0}))
		conns <- conn
	}()
	tr, err := NewTCP(TCPOptions{Dim: 1, Locals: []cube.NodeID{0}, HandshakeTimeout: 5 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { tr.Close() })
	if err := tr.Connect([]string{tr.Addr(), ln.Addr().String()}); err != nil {
		t.Fatal(err)
	}
	conn, ok := <-conns
	if !ok {
		t.Fatal("the raw peer did not complete its handshake")
	}
	t.Cleanup(func() { conn.Close() })
	return tr, conn
}

// freeRecords is the length of the endpoint's receive-record free list.
func (t *TCP) freeRecords() int {
	t.recvMu.Lock()
	defer t.recvMu.Unlock()
	return len(t.recvFree)
}

// TestReceiveRecordRecyclesAfterEveryRelease pins the ownership rules of
// a receive record: a batch frame's record goes back on the free list
// only when every message it carried has been released, a second
// Release of one message (on a copy of its envelope, too) changes
// nothing, and the next frame is read into the record given back —
// whatever its size, down to a part with no bytes at all. A streamed
// frame, whose payloads are buffers of their own, holds no lease.
func TestReceiveRecordRecyclesAfterEveryRelease(t *testing.T) {
	testleak.Check(t)
	tr, peer := rawPeerEndpoint(t)
	msg := func(tag int, n int) mpx.Message {
		return mpx.Message{Tag: tag, Parts: []mpx.Part{{Dest: 0, Data: bytes.Repeat([]byte{byte(tag)}, n)}}}
	}
	recv := func() mpx.Envelope {
		t.Helper()
		select {
		case env := <-tr.Inbox(0):
			return env
		case <-time.After(5 * time.Second):
			t.Fatal("no delivery")
		}
		return mpx.Envelope{}
	}
	// Two 600-byte messages in one batch frame.
	batch, st := wire.BeginBatch(nil)
	batch = wire.AppendBatchMsg(batch, msg(1, 600))
	batch = wire.AppendBatchMsg(batch, msg(2, 600))
	if _, err := peer.Write(wire.SealBatch(batch, st)); err != nil {
		t.Fatal(err)
	}
	a, b := recv(), recv()
	if a.Lease == nil || b.Lease == nil || a.Lease == b.Lease || a.Lease.Owner != b.Lease.Owner {
		t.Fatalf("a batch's messages hold leases %p and %p, want two of one record", a.Lease, b.Lease)
	}
	rec := a.Lease.Owner
	if n := tr.freeRecords(); n != 0 {
		t.Fatalf("%d records free while both messages are held", n)
	}
	a.Lease.Release()
	copyOfA := a
	copyOfA.Lease.Release()
	if n := tr.freeRecords(); n != 0 {
		t.Fatalf("%d records free after one message was released twice, want 0", n)
	}
	b.Lease.Release()
	if n := tr.freeRecords(); n != 1 {
		t.Fatalf("%d records free after both messages were released, want 1", n)
	}
	b.Lease.Release()
	if n := tr.freeRecords(); n != 1 {
		t.Fatalf("%d records free after a second release of the last message, want 1", n)
	}

	if _, err := peer.Write(wire.AppendFrameV(nil, wire.MaxVersion, msg(3, 2000))); err != nil {
		t.Fatal(err)
	}
	c := recv()
	if c.Lease == nil || c.Lease.Owner != rec || !bytes.Equal(c.Parts[0].Data, msg(3, 2000).Parts[0].Data) {
		t.Fatalf("the next frame was not read into the record given back (lease %p)", c.Lease)
	}
	c.Lease.Release()
	for _, size := range []int{100, 8, 0} {
		if _, err := peer.Write(wire.AppendFrameV(nil, wire.MaxVersion, msg(4, size))); err != nil {
			t.Fatal(err)
		}
		small := recv()
		if small.Lease == nil || small.Lease.Owner != rec || small.Tag != 4 || !bytes.Equal(small.Parts[0].Data, msg(4, size).Parts[0].Data) {
			t.Fatalf("a %d-byte frame was not read into the record given back (lease %p)", size, small.Lease)
		}
		small.Lease.Release()
	}
	if _, err := peer.Write(wire.AppendFrameV(nil, wire.MaxVersion, msg(5, 64<<10))); err != nil {
		t.Fatal(err)
	}
	if streamed := recv(); streamed.Lease != nil || streamed.Tag != 5 {
		t.Fatalf("a streamed %d-byte frame holds lease %p, want none", streamed.Size(), streamed.Lease)
	}
}

// TestPumpIdleWakeZeroAllocs: a read pump that goes idle after every
// frame — its read buffer back on the free list, waiting on the poller —
// and wakes for the next one allocates nothing once warm: the buffer
// and the receive record come back from their free lists.
func TestPumpIdleWakeZeroAllocs(t *testing.T) {
	testleak.Check(t)
	held := func() int { out, _ := readBufs.counts(); return out }
	base := held()
	tr, peer := rawPeerEndpoint(t)
	frame := wire.AppendFrameV(nil, wire.MaxVersion, mpx.Message{Tag: 1, Parts: []mpx.Part{{Dest: 0, Data: make([]byte, 64)}}})
	var err error
	wake := func() {
		if err != nil {
			return
		}
		if _, e := peer.Write(frame); e != nil {
			err = e
			return
		}
		select {
		case env := <-tr.Inbox(0):
			env.Lease.Release()
		case <-tr.Done():
			err = mpx.ErrDown
			return
		}
		// Wait for the pump to give its buffer back.
		for deadline := time.Now().Add(5 * time.Second); held() > base; {
			if time.Now().After(deadline) {
				err = errors.New("the pump kept its read buffer")
				return
			}
			runtime.Gosched()
		}
	}
	for i := 0; i < 100; i++ {
		wake()
	}
	if a := testing.AllocsPerRun(1000, wake); a != 0 || err != nil {
		t.Fatalf("a pump that idles and wakes allocates %.2f times per frame (err %v)", a, err)
	}
}
