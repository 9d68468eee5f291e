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
// An envelope it drops — a straggler, or one buffered for a key that is
// closed or aborted before it opened — gives its receive lease back on
// the spot (mpx.Lease.Release): nothing read it.
// It meters each job's payload on this node: the bytes of every envelope
// it files or buffers for the key, which CloseJob returns.
type Dispatcher struct {
	mu sync.Mutex
	// keys maps each job key the dispatcher knows to its state, so each
	// call looks up one entry: tombstone for a job closed here, whose
	// stragglers are dropped, or the state of a key that is open,
	// buffering early arrivals, or aborted. Job IDs wrap, so each
	// CloseJob expires the tombstone half an ID ring behind it: a
	// recycled ID is live again (buffered, not dropped) long before its
	// traffic.
	keys map[int]*keyState
	free []*keyState // states no key holds, for reuse
	down bool
}

// keyState is one job key that is not closed here: open (put is set),
// buffering early arrivals, or aborted — or open and aborted.
type keyState struct {
	put     func(mpx.Envelope) // the open job's consumer (see JobContext.Attach)
	closed  func()
	pending []mpx.Envelope // arrived before Open
	aborted bool           // job failed somewhere; Opens come pre-closed
	payload int64          // bytes filed or buffered for the key
}

// tombstone is the state of every key closed here.
var tombstone = new(keyState)

// NewDispatcher builds an empty dispatcher.
func NewDispatcher() *Dispatcher { return &Dispatcher{keys: map[int]*keyState{}} }

// state returns key's state, giving the key one if it is unknown or
// closed (d.mu held).
func (d *Dispatcher) state(key int) *keyState {
	ks := d.keys[key]
	if ks == nil || ks == tombstone {
		if n := len(d.free); n > 0 {
			ks, d.free = d.free[n-1], d.free[:n-1]
		} else {
			ks = new(keyState)
		}
		d.keys[key] = ks
	}
	return ks
}

// Deliver routes one envelope to its job; it is the inbox sink.
func (d *Dispatcher) Deliver(env mpx.Envelope) {
	d.mu.Lock()
	key := JobKeyOf(env.Tag)
	switch ks := d.keys[key]; {
	case ks == tombstone: // straggler of a finished job
		env.Lease.Release()
	case ks != nil && ks.put != nil:
		ks.payload += int64(env.Size()) // before put: the sink may recycle the parts
		ks.put(env)
	case ks == nil || !ks.aborted:
		ks = d.state(key)
		ks.payload += int64(env.Size())
		ks.pending = append(ks.pending, env)
	default: // straggler of an aborted job
		env.Lease.Release()
	}
	d.mu.Unlock()
}

// Down ends every open job's stream when the machine shuts down.
func (d *Dispatcher) Down() {
	d.mu.Lock()
	d.down = true
	for _, ks := range d.keys {
		if ks.put != nil {
			ks.closed()
		}
	}
	d.mu.Unlock()
}

// Open registers job key's consumer and flushes into it any traffic
// that arrived early. Opening an aborted key (the job failed on another
// node) or opening after the machine went down ends the stream at once,
// so the job unwinds on its first receive.
func (d *Dispatcher) Open(key int, put func(mpx.Envelope), closed func()) {
	d.mu.Lock()
	ks := d.state(key)
	for _, env := range ks.pending {
		put(env)
	}
	clear(ks.pending) // do not pin the payloads
	ks.pending = ks.pending[:0]
	ks.put, ks.closed = put, closed
	if ks.aborted || d.down {
		closed()
	}
	d.mu.Unlock()
}

// CloseJob ends job key on this node and returns the payload bytes the
// key received here: its abort mark (if any) clears and later arrivals
// for the key are dropped.
func (d *Dispatcher) CloseJob(key int) (payload int64) {
	d.mu.Lock()
	if ks := d.keys[key]; ks != nil && ks != tombstone {
		payload = ks.payload
		drop(ks.pending)
		*ks = keyState{pending: ks.pending[:0]}
		d.free = append(d.free, ks)
	}
	d.keys[key] = tombstone
	half := JobKey(KeyTenant(key), 1+(KeyJob(key)+MaxJob/2)%MaxJob)
	if d.keys[half] == tombstone {
		delete(d.keys, half)
	}
	d.mu.Unlock()
	return payload
}

// Abort poisons job key: its stream (current or future) ends so any
// local participant blocked on the job's traffic unwinds instead of
// waiting for peers that will never speak. The runtime calls it on
// every local dispatcher when a job fails on any local node.
func (d *Dispatcher) Abort(key int) {
	d.mu.Lock()
	if d.keys[key] != tombstone {
		ks := d.state(key)
		ks.aborted = true
		if ks.put != nil {
			ks.closed()
		}
		drop(ks.pending)
		ks.pending = ks.pending[:0]
	}
	d.mu.Unlock()
}

// drop gives back the leases of buffered envelopes nobody will read and
// clears them, so as not to pin their payloads.
func drop(pending []mpx.Envelope) {
	for _, env := range pending {
		env.Lease.Release()
	}
	clear(pending)
}
