package svc

import (
	"sync"

	"repro/internal/mpx"
)

// Mailbox is an unbounded envelope queue turning a job's attached
// stream into a blocking receive. Put never blocks, so a slow reader
// cannot hold up the delivering goroutine or the other jobs sharing the
// node's inbox. bench/'s svc.mailbox_ns probe times it; svc's tests read
// a job's raw envelopes through one, closed by the job's closed callback.
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

// Put appends env. Envelopes arriving once it is closed are dropped:
// they are stragglers of a job that already finished or aborted here.
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
