package svc

import (
	"sync"

	"repro/internal/mpx"
)

// Mailbox is an unbounded envelope queue turning a job's attached
// stream into a blocking receive, for job programs that read raw
// envelopes: jc.Attach(mb.Put, mb.Close), then mb.Recv. Put never
// blocks, so a slow job cannot hold up the delivering goroutine or the
// other jobs sharing the node's inbox.
type Mailbox struct {
	mu     sync.Mutex
	cond   *sync.Cond
	queue  []mpx.Envelope
	closed bool
}

// NewMailbox returns an open, empty mailbox.
func NewMailbox() *Mailbox {
	mb := &Mailbox{}
	mb.cond = sync.NewCond(&mb.mu)
	return mb
}

// Put appends env. Envelopes arriving after Close are dropped — they
// are stragglers of a job that already finished or aborted here.
func (mb *Mailbox) Put(env mpx.Envelope) {
	mb.mu.Lock()
	if !mb.closed {
		mb.queue = append(mb.queue, env)
		mb.cond.Signal()
	}
	mb.mu.Unlock()
}

// Recv blocks for the next envelope; ok == false reports a closed and
// drained mailbox (the job's stream ended).
func (mb *Mailbox) Recv() (mpx.Envelope, bool) {
	mb.mu.Lock()
	defer mb.mu.Unlock()
	for {
		if len(mb.queue) > 0 {
			env := mb.queue[0]
			mb.queue = mb.queue[1:]
			return env, true
		}
		if mb.closed {
			return mpx.Envelope{}, false
		}
		mb.cond.Wait()
	}
}

// Close ends the stream: queued envelopes remain receivable, further
// Puts are dropped, and Recv returns ok == false once drained.
// Idempotent.
func (mb *Mailbox) Close() {
	mb.mu.Lock()
	mb.closed = true
	mb.cond.Broadcast()
	mb.mu.Unlock()
}
