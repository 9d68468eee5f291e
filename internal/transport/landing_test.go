package transport

import (
	"bytes"
	"net"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/cube"
	"repro/internal/mpx"
	"repro/internal/testleak"
	"repro/internal/wire"
)

// landingConsumer is a consumer whose posted receive always answers
// zone[offset:offset+n] and never closes a region: whatever keeps a
// frame from landing twice in these tests is the transport.
type landingConsumer struct {
	zone []byte
	asks atomic.Int64
	envs chan mpx.Envelope
}

func newLandingConsumer(size int) *landingConsumer {
	// envs is sized for every delivery of a test: the sink must not block.
	return &landingConsumer{zone: make([]byte, size), envs: make(chan mpx.Envelope, 16)}
}

func (k *landingConsumer) consumer() mpx.Consumer {
	return mpx.Consumer{
		Sink:   func(env mpx.Envelope) { k.envs <- env },
		Closed: func() {},
		Land: func(from cube.NodeID, tag, nparts, offset, n int) []byte {
			k.asks.Add(1)
			return k.zone[offset : offset+n]
		},
	}
}

// next returns the next delivered envelope.
func (k *landingConsumer) next(t *testing.T) mpx.Envelope {
	t.Helper()
	select {
	case env := <-k.envs:
		return env
	case <-time.After(10 * time.Second):
		t.Fatal("no delivery")
		return mpx.Envelope{}
	}
}

// landed checks that env is msg and that its one part sits in the zone.
func (k *landingConsumer) landed(t *testing.T, env mpx.Envelope, msg mpx.Message) {
	t.Helper()
	want := msg.Parts[0]
	if env.Tag != msg.Tag || len(env.Parts) != 1 || !bytes.Equal(env.Parts[0].Data, want.Data) {
		t.Fatalf("delivered tag %d with %d parts, want tag %d byte-exact", env.Tag, len(env.Parts), msg.Tag)
	}
	if &env.Parts[0].Data[0] != &k.zone[want.Offset] {
		t.Fatal("the delivered part is not in the landing zone")
	}
}

func bigMessage(tag, offset, n int) mpx.Message {
	data := make([]byte, n)
	for i := range data {
		data[i] = byte(i*31 + tag)
	}
	return mpx.Message{Tag: tag, Parts: []mpx.Part{{Dest: 0, Offset: offset, Data: data}}}
}

// TestLandingOnPlainAndStripedLinks: a large part crossing a plain link
// is read straight into the consumer's answer (two asks for the two
// large messages, none for the small one), and the volume counters
// count what they always counted. (Striped links, the other leg this
// test once had, no longer exist; the name is kept for the record of
// passing tests.)
func TestLandingOnPlainAndStripedLinks(t *testing.T) {
	t.Run("plain", func(t *testing.T) {
		testleak.Check(t)
		trs := loopback(t, 1, nil)
		k := newLandingConsumer(1 << 20)
		trs[0].Attach(0, k.consumer())
		small := mpx.Message{Tag: 1, Parts: []mpx.Part{{Dest: 0, Data: []byte("small")}}}
		big := []mpx.Message{bigMessage(2, 4096, 200<<10), bigMessage(3, 512<<10, 64<<10)}
		for _, msg := range append([]mpx.Message{small}, big...) {
			if err := trs[1].Send(1, 0, msg); err != nil {
				t.Fatal(err)
			}
		}
		if env := k.next(t); env.Tag != 1 {
			t.Fatalf("first delivery has tag %d, want the small message", env.Tag)
		}
		for _, msg := range big {
			k.landed(t, k.next(t), msg)
		}
		// The pump credits a delivery after the sink has returned.
		want := int64(5 + 200<<10 + 64<<10)
		st := trs[0].Stats()
		for deadline := time.Now().Add(5 * time.Second); st.PayloadDelivered != want && time.Now().Before(deadline); st = trs[0].Stats() {
			time.Sleep(time.Millisecond)
		}
		if k.asks.Load() != 2 || st.FramesReceived != 3 || st.PayloadDelivered != want {
			t.Fatalf("%d asks, %d frames, %d payload bytes; want 2, 3, %d", k.asks.Load(), st.FramesReceived, st.PayloadDelivered, want)
		}
	})
}

// TestLandingDeliverOnceOnResilientLink scripts the peer of a resilient
// link frame by frame. The pump asks where a part belongs only for the
// frame it will deliver next: a frame that fails its checksum lands,
// is dropped and NACKed, and its retransmit lands in the same place; a
// replay of a delivered sequence number and a frame behind a gap are
// read into scratch and never reach the consumer's memory.
func TestLandingDeliverOnceOnResilientLink(t *testing.T) {
	testleak.Check(t)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	tr, err := NewTCP(TCPOptions{Dim: 1, Locals: []cube.NodeID{0}, HandshakeTimeout: 5 * time.Second, Resilience: fastResilience()})
	if err != nil {
		t.Fatal(err)
	}
	defer tr.Close()
	k := newLandingConsumer(1 << 18)
	tr.Attach(0, k.consumer())
	connected := make(chan error, 1)
	go func() { connected <- tr.Connect([]string{tr.Addr(), ln.Addr().String()}) }()
	conn, err := ln.Accept()
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	conn.SetDeadline(time.Now().Add(20 * time.Second))
	if _, err := wire.ReadHello(conn); err != nil {
		t.Fatal(err)
	}
	conn.Write(wire.AppendHello(nil, wire.Hello{Dim: 1, From: 1, To: 0, Resilient: true}))
	if err := <-connected; err != nil {
		t.Fatal(err)
	}
	from := wire.NewReader(conn)
	awaitNack := func(watermark uint64) {
		t.Helper()
		for {
			var fr wire.Frame
			err := from.ReadAnyInto(&fr)
			if err != nil {
				t.Fatalf("waiting for NACK %d: %v", watermark, err)
			}
			if fr.Kind == wire.KindNack && fr.Seq == watermark {
				return
			}
		}
	}
	seqFrame := func(seq uint64, msg mpx.Message) []byte {
		return wire.AppendSeqFrame(nil, seq, msg)
	}
	fence := func(seq uint64, tag int) {
		t.Helper()
		conn.Write(seqFrame(seq, mpx.Message{Tag: tag, Parts: []mpx.Part{{Dest: 0, Data: []byte("fence")}}}))
		if env := k.next(t); env.Tag != tag {
			t.Fatalf("delivered tag %d, want the fence %d", env.Tag, tag)
		}
	}

	// Sequence 1, one payload byte damaged in flight: it lands, fails its
	// checksum and is NACKed; the clean retransmit lands in the same place.
	first := bigMessage(7, 100, 64<<10)
	clean := seqFrame(1, first)
	bad := append([]byte(nil), clean...)
	bad[wire.BodyStart(bad)+1000] ^= 0xFF
	conn.Write(bad)
	awaitNack(0)
	if st := tr.Stats(); k.asks.Load() != 1 || st.CRCDropped != 1 {
		t.Fatalf("%d asks and %d checksum drops after the damaged frame, want 1 and 1", k.asks.Load(), st.CRCDropped)
	}
	conn.Write(clean)
	k.landed(t, k.next(t), first)
	if k.asks.Load() != 2 {
		t.Fatalf("%d asks after the retransmit, want 2", k.asks.Load())
	}

	// The consumer has its message and reuses the memory. A replay of
	// sequence 1 must not write there again.
	for i := range k.zone {
		k.zone[i] = 0xEE
	}
	conn.Write(clean)
	fence(2, 8)
	for i, b := range k.zone {
		if b != 0xEE {
			t.Fatalf("byte %d of the landing zone was written by a replayed frame", i)
		}
	}
	if st := tr.Stats(); k.asks.Load() != 2 || st.DupsDropped != 1 {
		t.Fatalf("%d asks and %d duplicates dropped after the replay, want 2 and 1", k.asks.Load(), st.DupsDropped)
	}

	// Sequence 4 ahead of 3: discarded unasked, then delivered in turn.
	fourth := bigMessage(9, 0, 32<<10)
	conn.Write(seqFrame(4, fourth))
	awaitNack(2)
	fence(3, 10)
	if k.asks.Load() != 2 {
		t.Fatalf("%d asks after a frame behind a gap, want 2", k.asks.Load())
	}
	conn.Write(seqFrame(4, fourth))
	k.landed(t, k.next(t), fourth)
}

// TestSettleFenceHoldsUntilWritten: a large part is queued on a plain
// link by reference, and Settle is the point after which the sender may
// overwrite it. With the link's writer held, Settle waits; once it has
// returned the payload is scribbled over and the receiver still gets the
// bytes that were sent. A resilient link copied the frame when it was
// sent, so its fence does not wait for the writer, and an endpoint that
// was never connected does not settle: a port without a link is the
// missing slot Settle reports false for.
func TestSettleFenceHoldsUntilWritten(t *testing.T) {
	testleak.Check(t)
	// waits says the fence must not return while the writer is held.
	scribbleAfterSettle := func(t *testing.T, trs []*TCP, waits bool) {
		k := newLandingConsumer(1 << 20)
		trs[0].Attach(0, k.consumer())
		msg := bigMessage(2, 4096, 200<<10)
		sent := mpx.Message{Tag: msg.Tag, Parts: []mpx.Part{msg.Parts[0]}}
		sent.Parts[0].Data = append([]byte(nil), msg.Parts[0].Data...)
		l := trs[1].linkAt(0)
		l.wmu.Lock() // nothing is written until the test says so
		if err := trs[1].Send(1, 0, sent); err != nil {
			t.Fatal(err)
		}
		settled := make(chan bool, 1)
		go func() { settled <- trs[1].Settle(1) }()
		if waits {
			var early bool
			select {
			case <-settled:
				early = true
			case <-time.After(50 * time.Millisecond):
			}
			l.wmu.Unlock()
			if early {
				t.Fatal("Settle returned while the link's writer was held with the frame still queued")
			}
		}
		ok := <-settled
		for i := range sent.Parts[0].Data {
			sent.Parts[0].Data[i] = 0xEE
		}
		if !waits {
			l.wmu.Unlock()
		}
		if !ok {
			t.Fatal("Settle reports a healthy link unsettled")
		}
		k.landed(t, k.next(t), msg)
	}
	t.Run("plain", func(t *testing.T) {
		scribbleAfterSettle(t, loopback(t, 1, nil), true)
	})
	t.Run("resilient", func(t *testing.T) {
		trs := loopback(t, 1, func(o *TCPOptions) { o.Resilience = fastResilience() })
		scribbleAfterSettle(t, trs, false)
	})
	t.Run("never connected", func(t *testing.T) {
		tr, err := NewTCP(TCPOptions{Dim: 2, Locals: []cube.NodeID{3}})
		if err != nil {
			t.Fatal(err)
		}
		defer tr.Close()
		if tr.Settle(3) {
			t.Fatal("an endpoint without links settled")
		}
	})
}

// TestRelayMemoryDamageIsCaughtDownstream: a relay forwards a landed
// message under the checksum it arrived with (Forward). Forwarded intact
// it reaches the next hop bit for bit; with one byte flipped in the
// relay's memory after it was verified, the next hop drops the frame on
// its checksum and delivers nothing. Send, which sums what is there now,
// signs the damage and delivers it: what every relay used to do.
func TestRelayMemoryDamageIsCaughtDownstream(t *testing.T) {
	testleak.Check(t)
	trs := loopback(t, 2, nil)
	relay, leaf := newLandingConsumer(1<<20), newLandingConsumer(1<<20)
	trs[1].Attach(1, relay.consumer())
	trs[3].Attach(3, leaf.consumer())
	hop := func(tag int) (mpx.Envelope, mpx.Message) {
		msg := bigMessage(tag, tag<<17, 100<<10) // a region of its own per hop
		if err := trs[0].Send(0, 0, msg); err != nil {
			t.Fatal(err)
		}
		env := relay.next(t)
		relay.landed(t, env, msg)
		if env.BodyCRC == 0 {
			t.Fatal("a streamed frame off a plain link arrived without its verified checksum")
		}
		return env, msg
	}

	env, msg := hop(2)
	if err := trs[1].Forward(1, 1, env); err != nil {
		t.Fatal(err)
	}
	leaf.landed(t, leaf.next(t), msg)

	env, _ = hop(3)
	env.Parts[0].Data[5000] ^= 0x01
	if err := trs[1].Forward(1, 1, env); err != nil {
		t.Fatal(err)
	}
	for deadline := time.Now().Add(10 * time.Second); trs[3].Stats().CRCDropped != 1; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatal("the next hop never dropped the frame damaged in the relay's memory")
		}
	}

	// The link is in order: the re-signed copy arriving next proves the
	// damaged frame was not delivered ahead of it.
	if err := trs[1].Send(1, 1, env.Message); err != nil {
		t.Fatal(err)
	}
	if got := leaf.next(t); got.Tag != 3 || got.Parts[0].Data[5000] != env.Parts[0].Data[5000] {
		t.Fatalf("after the drop the leaf got tag %d, want the re-signed damaged copy of tag 3", got.Tag)
	}
	if st := trs[3].Stats(); st.CRCDropped != 1 || st.FramesReceived != 2 {
		t.Fatalf("leaf counted %d checksum drops and %d good frames, want 1 and 2", st.CRCDropped, st.FramesReceived)
	}
}
