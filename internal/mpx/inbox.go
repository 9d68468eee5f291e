package mpx

import (
	"sync"

	"repro/internal/fault"
)

// Inbox is one hosted node's receive queue on either transport: the
// bounded channel raw consumers read (Node.Recv, Transport.Inbox) plus
// an attachable sink. Once a consumer attaches, the goroutine delivering
// an envelope — the sending rank in process, the link's read pump on
// sockets — files it into the sink itself: one hand-off per message, no
// pump goroutine. A sink runs under the inbox lock, so it must never
// block and never send (DESIGN.md §17).
type Inbox struct {
	ch   chan Envelope
	done <-chan struct{} // the transport's down channel

	mu     sync.Mutex
	sink   func(Envelope)
	closed func()
	down   bool
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
	case in.sink != nil:
		in.sink(env)
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
		env.Message = CorruptCopy(env.Message)
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
	for in.sink != nil {
		select {
		case env := <-in.ch:
			in.sink(env)
		default:
			return
		}
	}
}

// Attach routes every later delivery to sink, first flushing what is
// already queued. Per-sender FIFO holds across the switch: a delivery
// chooses sink or channel under mu, and one that had to wait for room
// outside it flushes the channel again before it returns, so no sender
// ever has an envelope on the channel when it delivers its next, and
// none stays behind. closed runs once, outside the lock, when the
// transport closes (at once if it already has). Attaching again
// replaces the consumer.
func (in *Inbox) Attach(sink func(Envelope), closed func()) {
	in.mu.Lock()
	down := in.down
	if !down {
		in.sink, in.closed = sink, closed
		in.flushLocked()
	}
	in.mu.Unlock()
	if down {
		closed()
	}
}

// Close marks the inbox down and tells the attached consumer; the
// transport closes done first, releasing deliveries waiting for room.
// Idempotent.
func (in *Inbox) Close() {
	in.mu.Lock()
	closed := in.closed
	in.down, in.sink, in.closed = true, nil, nil
	in.mu.Unlock()
	if closed != nil {
		closed()
	}
}
