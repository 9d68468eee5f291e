package mpx

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/cube"
	"repro/internal/fault"
)

// ChanTransport is the in-process Transport: it hosts every node of the
// cube in one OS process and delivers envelopes into per-node Inboxes.
// The fault-free send path performs one inbox delivery and zero
// allocations (guarded by bench_test.go); an optional fault.Injector
// applies message rules at this boundary, exactly where the TCP
// transport applies them to encoded frames.
type ChanTransport struct {
	c      *cube.Cube
	inbox  []*Inbox
	locals []cube.NodeID

	// inj, when non-nil, is consulted on every send; nil means a
	// fault-free transport and costs one pointer test per send.
	inj fault.Injector

	// est fits the link cost model from sampled sends: every
	// chanProfileSample-th clean send of a node is timed end-to-end
	// (including any inbox-full blocking — honest occupancy). Sampling
	// keeps clock reads off 63 of 64 sends; the counters are per sending
	// node, so a send writes no transport-wide word.
	est       LinkEstimator
	sendCount []sendCounter

	// down is closed by Close, unblocking every Send/Recv.
	down     chan struct{}
	downOnce sync.Once

	// severed, when non-nil, maps directed link index (from*dim+port) to
	// the sticky *PeerError recorded by SeverLink/FailLink. It is
	// copy-on-write: the fault-free send path costs exactly one atomic
	// pointer load (nil on an unsevered transport), preserving the
	// zero-allocation guarantee.
	severed  atomic.Pointer[severState]
	severMu  sync.Mutex // serializes writers of severed
	firstErr atomic.Pointer[PeerError]
	nSevered atomic.Int64
}

// sendCounter is one node's send-sampling counter on its own cache line.
type sendCounter struct {
	n atomic.Int64
	_ [56]byte
}

// severState is the immutable published form of the severed-link table.
type severState struct {
	errs []error
}

// NewChanTransport returns an in-process transport for an n-cube whose
// per-node inboxes buffer up to depth messages. inj, when non-nil,
// injects message faults on every crossing.
func NewChanTransport(n, depth int, inj fault.Injector) *ChanTransport {
	if depth < 1 {
		depth = 1
	}
	c := cube.New(n)
	t := &ChanTransport{
		c:         c,
		inbox:     make([]*Inbox, c.Nodes()),
		locals:    make([]cube.NodeID, c.Nodes()),
		inj:       inj,
		sendCount: make([]sendCounter, c.Nodes()),
		down:      make(chan struct{}),
	}
	for i := range t.inbox {
		t.inbox[i] = NewInbox(depth, t.down)
		t.locals[i] = cube.NodeID(i)
	}
	return t
}

// Cube returns the topology.
func (t *ChanTransport) Cube() *cube.Cube { return t.c }

// Locals returns every node of the cube: the in-process transport hosts
// them all.
func (t *ChanTransport) Locals() []cube.NodeID { return t.locals }

// Inbox returns the receive channel of node id.
func (t *ChanTransport) Inbox(id cube.NodeID) <-chan Envelope { return t.inbox[id].Chan() }

// Attach routes node id's deliveries to c.Sink (see Inbox.Attach).
// c.Land is never asked: envelopes travel by reference in process.
func (t *ChanTransport) Attach(id cube.NodeID, c Consumer) {
	t.inbox[id].Attach(c)
}

// Done is closed when the transport shuts down.
func (t *ChanTransport) Done() <-chan struct{} { return t.down }

// Close shuts the transport down, permanently unblocking every sender
// and receiver and notifying every attached consumer. Idempotent.
func (t *ChanTransport) Close() error {
	t.downOnce.Do(func() {
		close(t.down)
		for _, in := range t.inbox {
			in.Close()
		}
	})
	return nil
}

// Send delivers msg from node `from` through the given port. It blocks
// while the receiver's inbox is full and returns ErrDown after Close; a
// severed link returns its sticky *PeerError.
func (t *ChanTransport) Send(from cube.NodeID, port int, msg Message) error {
	to := t.c.Neighbor(from, port)
	if s := t.severed.Load(); s != nil {
		if err := s.errs[int(from)*t.c.Dim()+port]; err != nil {
			return err
		}
	}
	if t.inj != nil {
		return t.sendFaulty(from, to, port, msg)
	}
	return t.sendClean(from, to, port, msg)
}

// SeverLink cuts the a<->b cube edge in both directions: subsequent
// sends on it return a sticky *PeerError (either end), exactly like a
// TCP link whose reconnect budget was exhausted — but the transport
// stays up, so surviving links keep working and fault-tolerant
// collectives can route around the cut. Idempotent per direction.
func (t *ChanTransport) SeverLink(a, b cube.NodeID) error {
	return t.sever(a, b)
}

// FailLink is SeverLink's fatal twin: it records the PeerError on both
// ends and then shuts the whole transport down — the in-process
// equivalent of the plain TCP transport's escalation on a crashed peer,
// which aborts hosted nodes instead of leaving them hanging.
func (t *ChanTransport) FailLink(a, b cube.NodeID) error {
	if err := t.sever(a, b); err != nil {
		return err
	}
	return t.Close()
}

func (t *ChanTransport) sever(a, b cube.NodeID) error {
	port := t.c.Port(a, b)
	if port < 0 {
		return fmt.Errorf("mpx: nodes %d and %d are not neighbors", a, b)
	}
	t.severMu.Lock()
	defer t.severMu.Unlock()
	dim := t.c.Dim()
	old := t.severed.Load()
	errs := make([]error, t.c.Nodes()*dim)
	if old != nil {
		copy(errs, old.errs)
	}
	for _, dir := range [2][2]cube.NodeID{{a, b}, {b, a}} {
		from, to := dir[0], dir[1]
		idx := int(from)*dim + t.c.Port(from, to)
		if errs[idx] != nil {
			continue
		}
		pe := &PeerError{Self: from, Peer: to, Err: errors.New("link severed (fault injection)")}
		errs[idx] = pe
		t.firstErr.CompareAndSwap(nil, pe)
		t.nSevered.Add(1)
	}
	t.severed.Store(&severState{errs: errs})
	return nil
}

// PeerError reports the first failure recorded on one of node id's
// links (implements peerErrorer).
func (t *ChanTransport) PeerError(id cube.NodeID) error {
	s := t.severed.Load()
	if s == nil {
		return nil
	}
	dim := t.c.Dim()
	for d := 0; d < dim; d++ {
		if err := s.errs[int(id)*dim+d]; err != nil {
			return err
		}
	}
	return nil
}

// FirstPeerError reports the first link failure recorded anywhere on
// the transport (implements firstPeerErrorer).
func (t *ChanTransport) FirstPeerError() error {
	if pe := t.firstErr.Load(); pe != nil {
		return pe
	}
	return nil
}

// Stats reports health counters (implements statsReporter). The
// in-process transport has no wire, so only the severed-link count can
// be nonzero.
func (t *ChanTransport) Stats() TransportStats {
	return TransportStats{SeveredLinks: t.nSevered.Load()}
}

// chanProfileSample is the send-sampling interval of the in-process
// cost estimator (must be a power of two).
const chanProfileSample = 64

// Profile reports the live link cost model fitted from sampled sends
// (implements profiler). In-process delivery copies nothing, so the
// fitted per-byte cost is near zero.
func (t *ChanTransport) Profile() LinkProfile { return t.est.Profile() }

// sendClean is the untouched-delivery path, shared by the fault-free
// machine and by faulty sends whose Outcome.IsZero().
func (t *ChanTransport) sendClean(from, to cube.NodeID, port int, msg Message) error {
	var start time.Time
	size := 0
	sample := t.sendCount[from].n.Add(1)&(chanProfileSample-1) == 0
	if sample {
		size = msg.Size() // before delivery: the receiver may recycle Parts
		start = time.Now()
	}
	if !t.inbox[to].Deliver(Envelope{Message: msg, Port: port, From: from}) {
		return ErrDown
	}
	if sample {
		t.est.Observe(1, size, time.Since(start))
	}
	return nil
}

// sendFaulty is the injector-mediated send path: dead endpoints and dead
// links silently swallow the message; rule outcomes are applied in the
// sender's goroutine (a delay blocks the sender, like a slow link).
func (t *ChanTransport) sendFaulty(from, to cube.NodeID, port int, msg Message) error {
	inj := t.inj
	if inj.NodeDead(from) || inj.NodeDead(to) || inj.LinkDead(from, to) {
		return nil
	}
	out := inj.OnSend(from, to)
	if out.IsZero() {
		return t.sendClean(from, to, port, msg)
	}
	if out.Drop {
		return nil
	}
	if _, ok := t.inbox[to].DeliverFaulty(Envelope{Message: msg, Port: port, From: from}, out); !ok {
		return ErrDown
	}
	return nil
}

// corruptCopy returns msg with every part's payload deep-copied and its
// first byte flipped; checksums (Part.Sum) are left intact so receivers
// can detect the damage. Empty payloads pass through unharmed. Transports
// use it to apply a Corrupt fault outcome to an in-process delivery (on
// the wire, the TCP transport instead flips encoded frame bytes, which
// the receiver's CRC catches).
func corruptCopy(msg Message) Message {
	parts := make([]Part, len(msg.Parts))
	for i, p := range msg.Parts {
		q := p
		if len(p.Data) > 0 {
			q.Data = append([]byte(nil), p.Data...)
			q.Data[0] ^= 0xFF
		}
		parts[i] = q
	}
	msg.Parts = parts
	return msg
}
