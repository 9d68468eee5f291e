package svc

import (
	"sync"

	"repro/internal/mpx"
)

// Dispatcher demultiplexes a node's single inbox into per-job sinks
// keyed by the tag's JobKey. It owns no goroutine: the runtime attaches
// Deliver to the node's inbox (mpx.Node.Attach), so whoever delivers an
// envelope — a local sender, a link's read pump — runs the demux and
// the job's sink itself. Lock order: inbox → dispatcher → job sink.
// Traffic arriving before the job opens locally (a neighbor started it
// first) is buffered and flushed on Open; traffic for a job already
// closed here is dropped as a straggler (e.g. a chaos-duplicated frame).
type Dispatcher struct {
	mu      sync.Mutex
	open    map[int]jobSink
	pending map[int][]mpx.Envelope // arrived before Open
	// done holds tombstones of jobs closed here, whose stragglers are
	// dropped. Job IDs wrap, so each CloseJob expires the tombstone half
	// an ID ring behind it: the set stays bounded, and a recycled ID is
	// live again (buffered, not dropped) long before its traffic.
	done    map[int]bool
	aborted map[int]bool // job failed somewhere; Opens come pre-closed
	down    bool
}

// jobSink is one open job's consumer (see JobContext.Attach).
type jobSink struct {
	put    func(mpx.Envelope)
	closed func()
}

// NewDispatcher builds an empty dispatcher.
func NewDispatcher() *Dispatcher {
	return &Dispatcher{
		open:    map[int]jobSink{},
		pending: map[int][]mpx.Envelope{},
		done:    map[int]bool{},
		aborted: map[int]bool{},
	}
}

// Deliver routes one envelope to its job; it is the inbox sink.
func (d *Dispatcher) Deliver(env mpx.Envelope) {
	key := JobKeyOf(env.Tag)
	d.mu.Lock()
	if js, ok := d.open[key]; ok {
		js.put(env)
	} else if !d.done[key] && !d.aborted[key] {
		d.pending[key] = append(d.pending[key], env)
	} // else: straggler of a finished or aborted job
	d.mu.Unlock()
}

// Down ends every open job's stream when the machine shuts down.
func (d *Dispatcher) Down() {
	d.mu.Lock()
	d.down = true
	for _, js := range d.open {
		js.closed()
	}
	d.mu.Unlock()
}

// Open registers job key's consumer and flushes into it any traffic
// that arrived early. Opening an aborted key (the job failed on another
// node) or opening after the machine went down ends the stream at once,
// so the job unwinds on its first receive.
func (d *Dispatcher) Open(key int, put func(mpx.Envelope), closed func()) {
	d.mu.Lock()
	delete(d.done, key)
	for _, env := range d.pending[key] {
		put(env)
	}
	delete(d.pending, key)
	d.open[key] = jobSink{put, closed}
	if d.aborted[key] || d.down {
		closed()
	}
	d.mu.Unlock()
}

// CloseJob ends job key on this node: its abort mark (if any) clears
// and later arrivals for the key are dropped.
func (d *Dispatcher) CloseJob(key int) {
	d.mu.Lock()
	delete(d.open, key)
	delete(d.aborted, key)
	delete(d.pending, key)
	d.done[key] = true
	delete(d.done, JobKey(KeyTenant(key), 1+(KeyJob(key)+MaxJob/2)%MaxJob))
	d.mu.Unlock()
}

// Abort poisons job key: its stream (current or future) ends so any
// local participant blocked on the job's traffic unwinds instead of
// waiting for peers that will never speak. The runtime calls it on
// every local dispatcher when a job fails on any local node.
func (d *Dispatcher) Abort(key int) {
	d.mu.Lock()
	if !d.done[key] {
		d.aborted[key] = true
		if js, ok := d.open[key]; ok {
			js.closed()
		}
		delete(d.pending, key)
	}
	d.mu.Unlock()
}
