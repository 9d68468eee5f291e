package mpx

import (
	"sync"

	"repro/internal/cube"
	"repro/internal/fault"
)

// Inbox is one hosted node's receive queue on either transport: the
// bounded channel raw consumers read (Node.Recv, Transport.Inbox) plus
// an attachable Consumer. Once one attaches, the goroutine delivering
// an envelope — the sending rank in process, the link's read pump on
// sockets — files it into the sink itself: one hand-off per message, no
// pump goroutine. The consumer's functions run under the inbox lock, so
// they must never block and never send (DESIGN.md §17, §18).
type Inbox struct {
	ch   chan Envelope
	done <-chan struct{} // the transport's down channel

	mu   sync.Mutex
	c    Consumer // zero while nothing is attached
	down bool
}

// Consumer is what attaches to an Inbox: one value, so that the three
// functions always belong to the same consumer.
type Consumer struct {
	// Sink takes every delivery, queued ones first. Required.
	Sink func(Envelope)
	// Closed runs once, outside the inbox lock, when the transport
	// closes (at once if it already has). Required.
	Closed func()
	// Land, when non-nil, is the consumer's posted receive (DESIGN.md
	// §18): the socket link from neighbor from asks it, before reading
	// the n payload bytes of one part of a large message (tag, nparts
	// parts, this one at offset), where those bytes belong. A slice of length n
	// takes them in place and comes back as the part's Data in the
	// delivered envelope; nil declines. The bytes are written before the
	// frame's checksum is known and a retransmitted frame asks again, so
	// the answer for one (from, tag, offset, n) must stay the same until
	// that message is delivered, and must go to no other link and to
	// nobody afterwards. The in-process transport never asks: its
	// envelopes travel by reference.
	Land func(from cube.NodeID, tag, nparts, offset, n int) []byte
}

// NewInbox returns an inbox buffering depth envelopes for raw consumers;
// done is the owning transport's down channel.
func NewInbox(depth int, done <-chan struct{}) *Inbox {
	return &Inbox{ch: make(chan Envelope, depth), done: done}
}

// Chan is the raw receive channel.
func (in *Inbox) Chan() <-chan Envelope { return in.ch }

// Deliver hands env to the attached sink, or queues it on the channel,
// blocking while that is full. It reports false once the transport is
// down.
func (in *Inbox) Deliver(env Envelope) bool {
	in.mu.Lock()
	defer in.mu.Unlock()
	switch {
	case in.down:
		return false
	case in.c.Sink != nil:
		in.c.Sink(env)
		return true
	}
	select {
	case in.ch <- env:
		return true
	default:
	}
	in.mu.Unlock() // full: wait for room without the lock
	ok := false
	select {
	case in.ch <- env:
		ok = true
	case <-in.done:
	}
	in.mu.Lock()
	in.flushLocked() // a sink may have attached meanwhile
	return ok
}

// DeliverFaulty is Deliver under the Corrupt and Duplicate effects of a
// fault outcome (Drop and Delay are the sender's business): the one
// in-process faulty delivery of both transports. It reports how many
// copies got through, and false if the transport went down first.
func (in *Inbox) DeliverFaulty(env Envelope, out fault.Outcome) (int, bool) {
	if out.Corrupt {
		env.Message = corruptCopy(env.Message)
	}
	dup := env
	if out.Duplicate {
		// The duplicate gets its own Parts slice, taken before the first
		// receiver can recycle the original's (payload bytes are never
		// recycled, so sharing Data is safe).
		dup.Parts = append([]Part(nil), env.Parts...)
	}
	if !in.Deliver(env) {
		return 0, false
	}
	if !out.Duplicate {
		return 1, true
	}
	if !in.Deliver(dup) {
		return 1, false
	}
	return 2, true
}

// flushLocked moves everything queued on the channel into the sink.
func (in *Inbox) flushLocked() {
	for in.c.Sink != nil {
		select {
		case env := <-in.ch:
			in.c.Sink(env)
		default:
			return
		}
	}
}

// Attach routes every later delivery to c.Sink, first flushing what is
// already queued, and every later Land to c.Land. Per-sender FIFO holds
// across the switch: a delivery chooses sink or channel under mu, and
// one that had to wait for room outside it flushes the channel again
// before it returns, so no sender ever has an envelope on the channel
// when it delivers its next, and none stays behind. c.Closed runs once,
// outside the lock, when the transport closes (at once if it already
// has). Attaching again replaces the consumer.
func (in *Inbox) Attach(c Consumer) {
	in.mu.Lock()
	down := in.down
	if !down {
		in.c = c
		in.flushLocked()
	}
	in.mu.Unlock()
	if down {
		c.Closed()
	}
}

// Land asks the attached consumer where one part of a message arriving
// from neighbor from belongs (Consumer.Land); nil when nobody is
// attached or it declines.
func (in *Inbox) Land(from cube.NodeID, tag, nparts, offset, n int) []byte {
	in.mu.Lock()
	defer in.mu.Unlock()
	if in.c.Land == nil {
		return nil
	}
	return in.c.Land(from, tag, nparts, offset, n)
}

// Close marks the inbox down and tells the attached consumer; the
// transport closes done first, releasing deliveries waiting for room.
// Idempotent.
func (in *Inbox) Close() {
	in.mu.Lock()
	closed := in.c.Closed
	in.down, in.c = true, Consumer{}
	in.mu.Unlock()
	if closed != nil {
		closed()
	}
}
