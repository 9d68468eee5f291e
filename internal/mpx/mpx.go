// Package mpx is a message-passing multicomputer runtime modelled on the
// Intel iPSC's programming interface: one concurrently executing node per
// cube address, communicating by messages that travel only between cube
// neighbors. Node programs communicate exclusively through Send/Recv, so
// an algorithm written against this package is genuinely distributed —
// each node derives its routing decisions locally from its own address,
// exactly as the paper's routing algorithms require.
//
// Messages move through a Transport. The in-process ChanTransport (the
// default behind New) hosts every node in one process and delivers over
// buffered channels with a zero-allocation fast path; the TCP transport
// in internal/transport hosts one node per endpoint and carries the
// same messages over real sockets with length-prefixed, checksummed
// frames (internal/wire). A Machine built over any transport runs
// programs only on the nodes that transport hosts, so a multi-process
// cube is simply one Machine per process.
//
// Each node owns a single buffered Inbox (like the iPSC's receive queue);
// Send(port, msg) enqueues into the neighbor's inbox and Recv dequeues in
// arrival order. Messages from one sender are received in the order sent.
// A consumer that matches tags itself (internal/comm, internal/svc)
// attaches a sink, and deliverers file envelopes straight into it.
//
// The runtime carries real payload bytes, making it the end-to-end
// correctness substrate for the collective operations in internal/comm
// (the discrete-event simulator in internal/sim is the timing substrate).
//
// A machine may be built with a fault.Injector (NewWithInjector): dead
// nodes never schedule their programs, dead links silently drop, and
// message rules can drop, duplicate, delay or corrupt individual
// crossings. Fault rules are applied at the transport boundary — over
// TCP, a corrupted crossing damages the encoded frame on the wire and is
// caught by the receiver's CRC check. The fault-free path is untouched —
// a nil injector costs one pointer test per send and no allocations.
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

// Part is one destination's payload inside a (possibly bundled) message.
// Personalized communication merges many parts into one message; broadcast
// messages carry a single part whose Dest is the broadcast root. Offset
// locates the part within the destination's full payload when a message
// stream splits one payload across packets (the B < M regime).
type Part struct {
	Dest   cube.NodeID
	Offset int
	Data   []byte
	// Sum is an optional end-to-end payload checksum (0 = unchecked).
	// Fault injection corrupts Data but never Sum, so receivers that
	// verify it detect in-flight corruption.
	Sum uint32
}

// Message is what travels over a link: a tag for stream demultiplexing
// (e.g. the ERSBT index during an MSBT broadcast) and one or more parts.
type Message struct {
	Tag   int
	Parts []Part
}

// Size returns the total payload size in bytes.
func (m Message) Size() int {
	total := 0
	for _, p := range m.Parts {
		total += len(p.Data)
	}
	return total
}

// Envelope is a received message together with its arrival port (the bit
// in which sender and receiver differ).
type Envelope struct {
	Message
	Port int
	From cube.NodeID
	// BodyCRC, when nonzero, is the frame checksum a socket link verified
	// over exactly this Message (wire.Frame.BodyCRC). It is good only for
	// forwarding the message verbatim (Node.ForwardTo) and sits in what
	// was padding.
	BodyCRC uint32
	// Lease, when set, is the message's share of a receive buffer that
	// the delivering transport recycles: the parts alias that buffer
	// (see Lease.Release). The struct is 56 bytes with it.
	Lease *Lease
}

// A Lease is one delivered message's share of a receive buffer that a
// transport recycles. The transport sets Owner once and arms the lease
// before each delivery (Arm); the first Release after that tells the
// owner the message is done with the buffer.
type Lease struct {
	// Owner.Recycle runs once per delivery, on the lease's first Release.
	Owner    interface{ Recycle() }
	released atomic.Bool
}

// Arm readies the lease for one more delivery of a message it covers.
func (l *Lease) Arm() { l.released.Store(false) }

// Release gives the message back to the transport that delivered it.
// Once every message its frame carried has been released, the receive
// buffer the parts alias is reused, and any byte of them may change:
// release only what nothing reads any more, a queued send of a part
// included (Node.Settle). Release is idempotent per message — a second
// call, through this envelope or a copy, does nothing — until the
// transport reuses the buffer, so a released envelope is dropped, not
// kept. A nil lease — every in-process delivery, and on sockets a frame
// streamed into buffers of its own — does nothing.
func (l *Lease) Release() {
	if l != nil && l.released.CompareAndSwap(false, true) {
		l.Owner.Recycle()
	}
}

// ErrDown is returned by Transport.Send when the transport was shut down
// (a peer finished, panicked, or the machine was closed). Node.Send
// translates it into the abort panic that unwinds a node program.
var ErrDown = errors.New("mpx: machine shut down")

// Transport moves envelopes between cube nodes. The runtime ships two
// implementations, each keeping one Inbox per hosted node: ChanTransport
// (in-process, the default, hosting the whole cube) and the TCP
// transport in internal/transport (real sockets, one hosted node per
// endpoint).
// Implementations must be safe for concurrent use by every hosted node.
type Transport interface {
	// Send delivers msg from node `from` (which must be hosted by this
	// transport) through the given port, blocking while the receiver
	// lacks buffer space. It returns ErrDown after Close, or a transport
	// failure (e.g. a *PeerError for a severed TCP link).
	Send(from cube.NodeID, port int, msg Message) error
	// Inbox returns the receive channel of a hosted node, which carries
	// what arrives while no sink is attached.
	Inbox(id cube.NodeID) <-chan Envelope
	// Attach routes a hosted node's deliveries, queued ones first, to
	// c.Sink — run by the delivering goroutine, so it must not block or
	// send — and runs c.Closed when the transport closes (Inbox.Attach).
	Attach(id cube.NodeID, c Consumer)
	// Done is closed when the transport shuts down, unblocking receivers.
	Done() <-chan struct{}
	// Locals lists the nodes hosted by this transport, ascending.
	Locals() []cube.NodeID
	// Cube returns the topology.
	Cube() *cube.Cube
	// Close shuts the transport down: senders, receivers and attached
	// consumers unblock, and network-backed implementations flush and
	// close their links gracefully. Close is idempotent.
	Close() error
}

// peerErrorer is an optional Transport extension reporting the first
// connection-level failure observed on one of a hosted node's links —
// a crashed neighbor process, a severed socket. The in-process
// ChanTransport never reports one.
type peerErrorer interface {
	PeerError(id cube.NodeID) error
}

// firstPeerErrorer is an optional Transport extension reporting the
// first connection-level failure observed on ANY hosted node's links.
// It lets a rank that stalled as collateral of a neighbor's dead link
// still name the dead peer instead of reporting a bare shutdown.
type firstPeerErrorer interface {
	FirstPeerError() error
}

// TransportStats aggregates a transport's health counters: what the
// resilience layer absorbed (CRC drops, retransmits, reconnects) and how
// deep its replay buffering had to go.
// Counters a backend does not implement stay zero.
type TransportStats struct {
	// CRCDropped counts received frames rejected by the checksum.
	CRCDropped int64
	// Retransmits counts frames written to a resilient link more than
	// once.
	Retransmits int64
	// Reconnects counts successful link re-establishments.
	Reconnects int64
	// AcksSent counts acknowledgement control frames.
	AcksSent int64
	// SeveredLinks counts links administratively severed (in-process
	// fault injection / chaos).
	SeveredLinks int64
	// ReplayHighWater is the maximum number of unacknowledged frames any
	// single link buffered for replay.
	ReplayHighWater int64

	// Data-plane volume counters (socket backends). BytesSent and
	// BytesReceived are raw wire bytes, frames included; FramesSent and
	// FramesReceived count wire frames (a batch frame counts once);
	// PayloadDelivered is the part-payload byte total the transport
	// handed to hosted nodes' inboxes — the goodput numerator.
	BytesSent, BytesReceived   int64
	FramesSent, FramesReceived int64
	PayloadDelivered           int64
	// AcksBatched counts acknowledgements coalesced into a cumulative
	// ACK instead of being written as their own control frame.
	AcksBatched int64

	// Elastic-membership counters (member-mode socket backends).
	// MemberDrops counts sends silently dropped because the destination
	// link was absent, failed, retired, or beyond the endpoint's current
	// cube; GrowEvents counts online dimension widenings applied;
	// GrowAccepts counts grow-attach handshakes accepted from
	// larger-cube joiners; AttachesReceived counts KindAttach
	// announcements received.
	MemberDrops      int64
	GrowEvents       int64
	GrowAccepts      int64
	AttachesReceived int64
}

// Add accumulates o into s: counters sum, ReplayHighWater takes the
// maximum. Harnesses use it to aggregate per-endpoint transports into
// one job-wide view.
func (s *TransportStats) Add(o TransportStats) {
	s.CRCDropped += o.CRCDropped
	s.Retransmits += o.Retransmits
	s.Reconnects += o.Reconnects
	s.AcksSent += o.AcksSent
	s.SeveredLinks += o.SeveredLinks
	if o.ReplayHighWater > s.ReplayHighWater {
		s.ReplayHighWater = o.ReplayHighWater
	}
	s.BytesSent += o.BytesSent
	s.BytesReceived += o.BytesReceived
	s.FramesSent += o.FramesSent
	s.FramesReceived += o.FramesReceived
	s.PayloadDelivered += o.PayloadDelivered
	s.AcksBatched += o.AcksBatched
	s.MemberDrops += o.MemberDrops
	s.GrowEvents += o.GrowEvents
	s.GrowAccepts += o.GrowAccepts
	s.AttachesReceived += o.AttachesReceived
}

// forwarder is an optional Transport extension for relays: Forward is
// Send of env.Message, unchanged since it arrived, and may spend
// env.BodyCRC on not summing the payload a second time. The frame on the
// wire is the one Send would have written.
type forwarder interface {
	Forward(from cube.NodeID, port int, env Envelope) error
}

// settler is an optional Transport extension: the send-completion fence
// behind buffer reuse. Settle reports whether every payload node id has
// sent so far is out of user space — written to its socket, or copied
// into a replay ring — so that overwriting it cannot change what a
// neighbor receives. False: a link is missing, or failed with frames
// queued.
type settler interface {
	Settle(id cube.NodeID) bool
}

// statsReporter is an optional Transport extension exposing health
// counters. Both shipped backends implement it.
type statsReporter interface {
	Stats() TransportStats
}

// PeerError is a transport-level link failure: the connection carrying
// traffic between Self and Peer died (without a graceful shutdown
// announcement). Collectives surface it distinctly from protocol errors
// such as a collective sequence mismatch.
type PeerError struct {
	Self, Peer cube.NodeID
	Err        error
}

func (e *PeerError) Error() string {
	return fmt.Sprintf("mpx: node %d: link to peer %d failed: %v", e.Self, e.Peer, e.Err)
}

func (e *PeerError) Unwrap() error { return e.Err }

// Machine is a Boolean-cube multicomputer over a Transport. It runs node
// programs for the transport's hosted nodes; a machine over the default
// ChanTransport hosts the whole cube in one process.
type Machine struct {
	c  *cube.Cube
	tr Transport

	// inj, when non-nil, is consulted when scheduling node programs (dead
	// nodes never run); message-level faults are the transport's concern.
	inj fault.Injector

	locals []cube.NodeID
	inbox  []<-chan Envelope // indexed by node ID; nil for remote nodes
	done   <-chan struct{}
}

// New creates an n-cube machine whose per-node inboxes buffer up to depth
// messages. Tree-structured collectives are acyclic and need only depth 1;
// all-to-all patterns should size depth to their in-flight message count
// (e.g. the cube dimension times packets per phase) to avoid blocking
// senders unnecessarily; personalized operations should use
// DepthForScatter.
func New(n, depth int) *Machine { return NewWithInjector(n, depth, nil) }

// DepthForScatter returns an inbox depth sufficient for one-to-all
// personalized communication on an n-cube when destinations are bundled
// packetsPerPhase to a message: in the worst case every one of the 2^n - 1
// destinations' bundles funnels through a single inbox, plus slack for a
// terminator message and the in-flight send. Sizing inboxes below this
// can stall deep scatters (senders block on full inboxes of nodes that
// are themselves blocked sending); values above it only waste memory.
func DepthForScatter(n, packetsPerPhase int) int {
	if packetsPerPhase < 1 {
		packetsPerPhase = 1
	}
	dests := 1<<uint(n) - 1
	return (dests+packetsPerPhase-1)/packetsPerPhase + 2
}

// NewWithInjector creates an n-cube machine whose links and nodes suffer
// the faults decided by inj: a dead node never runs its program and its
// messages vanish, a dead link silently drops traffic, and message rules
// may drop, duplicate, delay or corrupt individual crossings. A nil inj
// yields exactly the fault-free machine of New.
func NewWithInjector(n, depth int, inj fault.Injector) *Machine {
	return NewWithTransport(NewChanTransport(n, depth, inj), inj)
}

// NewWithTransport creates a machine over an existing transport. Run
// executes programs only on the transport's hosted nodes, so a cube
// spread over several OS processes is one NewWithTransport machine per
// process (see internal/transport for the TCP transport). inj, when
// non-nil, suppresses scheduling of dead hosted nodes; message faults
// belong to the transport itself.
func NewWithTransport(tr Transport, inj fault.Injector) *Machine {
	c := tr.Cube()
	m := &Machine{
		c:      c,
		tr:     tr,
		inj:    inj,
		locals: tr.Locals(),
		inbox:  make([]<-chan Envelope, c.Nodes()),
		done:   tr.Done(),
	}
	for _, id := range m.locals {
		m.inbox[id] = tr.Inbox(id)
	}
	return m
}

// abortErr is the panic value delivered to nodes blocked on a machine
// whose peer died; Run translates it back into the original panic.
type abortErr struct{}

func (abortErr) Error() string { return "mpx: machine aborted: a peer node panicked" }

// transportAbort is the panic value carrying a transport failure out of
// a blocked Send; Run converts it into the node's error return instead
// of propagating the panic.
type transportAbort struct{ err error }

// Shutdown permanently unblocks every goroutine waiting in Send or Recv on
// this machine (they panic with an internal abort value) and closes the
// underlying transport. Call it after Run returns when auxiliary
// goroutines may still be blocked; the machine must not be used
// afterwards.
func (m *Machine) Shutdown() { m.tr.Close() }

// Cube returns the machine's topology.
func (m *Machine) Cube() *cube.Cube { return m.c }

// Transport returns the machine's transport.
func (m *Machine) Transport() Transport { return m.tr }

// PeerError reports the first connection-level failure recorded on one
// of node id's links, or nil — always nil for in-process transports.
func (m *Machine) PeerError(id cube.NodeID) error {
	if pe, ok := m.tr.(peerErrorer); ok {
		return pe.PeerError(id)
	}
	return nil
}

// FirstPeerError reports the first connection-level failure recorded
// anywhere on the machine's transport, falling back to a per-local scan
// when the transport lacks the firstPeerErrorer extension. It lets a
// rank whose own links are healthy — but which stalled because a
// NEIGHBOR's link died and shut the job down — still name the dead peer.
func (m *Machine) FirstPeerError() error {
	if fpe, ok := m.tr.(firstPeerErrorer); ok {
		if err := fpe.FirstPeerError(); err != nil {
			return err
		}
		return nil
	}
	for _, id := range m.tr.Locals() {
		if err := m.PeerError(id); err != nil {
			return err
		}
	}
	return nil
}

// Stats reports the transport's health counters; ok is false when the
// transport does not implement statsReporter.
func (m *Machine) Stats() (TransportStats, bool) {
	if sr, ok := m.tr.(statsReporter); ok {
		return sr.Stats(), true
	}
	return TransportStats{}, false
}

// Profile reports the transport's live link cost model; ok is false
// when the transport does not implement profiler.
func (m *Machine) Profile() (LinkProfile, bool) {
	if pr, ok := m.tr.(profiler); ok {
		return pr.Profile(), true
	}
	return LinkProfile{}, false
}

// Node is the per-node handle passed to node programs.
type Node struct {
	ID cube.NodeID
	m  *Machine
}

// PeerError reports the first connection-level failure on one of this
// node's links (nil on in-process transports). Collectives consult it to
// tell a crashed neighbor from a slow one.
func (nd *Node) PeerError() error { return nd.m.PeerError(nd.ID) }

// AnyPeerError reports the first connection-level failure recorded on
// ANY link of the machine hosting this node — the machine-wide view a
// rank needs when its own links are fine but the job died anyway.
func (nd *Node) AnyPeerError() error { return nd.m.FirstPeerError() }

// Profile reports the live link cost model of the transport hosting
// this node; ok is false when the transport does not estimate one.
func (nd *Node) Profile() (LinkProfile, bool) { return nd.m.Profile() }

// Send transmits msg through the given port (to the neighbor differing in
// bit `port`). It blocks while the receiver's inbox is full. On a machine
// with a fault injector the message may be lost, duplicated, delayed or
// corrupted; the fault-free path is a single nil test.
func (nd *Node) Send(port int, msg Message) {
	nd.sent(nd.m.tr.Send(nd.ID, port, msg))
}

// sent unwinds the node program when a send failed.
func (nd *Node) sent(err error) {
	if err != nil {
		if err == ErrDown {
			panic(abortErr{})
		}
		panic(transportAbort{err})
	}
}

// SendTo transmits msg to an adjacent node. It panics if to is not a
// neighbor — routing across multiple hops is the caller's job.
func (nd *Node) SendTo(to cube.NodeID, msg Message) {
	port := nd.m.c.Port(nd.ID, to)
	if port < 0 {
		panic(fmt.Sprintf("mpx: node %d cannot send directly to non-neighbor %d", nd.ID, to))
	}
	nd.Send(port, msg)
}

// ForwardTo sends env.Message, as received and unmodified, on to the
// adjacent node to: SendTo, except that a transport which verified a
// checksum over the message on the way in (Envelope.BodyCRC) need not
// compute it again on the way out.
func (nd *Node) ForwardTo(to cube.NodeID, env Envelope) {
	f, ok := nd.m.tr.(forwarder)
	port := nd.m.c.Port(nd.ID, to)
	if !ok || env.BodyCRC == 0 || port < 0 {
		nd.SendTo(to, env.Message) // which refuses a non-neighbor
		return
	}
	nd.sent(f.Forward(nd.ID, port, env))
}

// Settle is the send-completion fence (settler): true once nothing this
// node has sent can still be read from the sender's memory. Transports
// without the extension deliver by reference and never settle.
func (nd *Node) Settle() bool {
	s, ok := nd.m.tr.(settler)
	return ok && s.Settle(nd.ID)
}

// Attach hands this node's receive stream to c (Transport.Attach);
// Recv must not be used on an attached node.
func (nd *Node) Attach(c Consumer) {
	nd.m.tr.Attach(nd.ID, c)
}

// Recv blocks until the next message arrives and returns it with its
// arrival port and sender. Only an empty inbox pays for the select on
// the shared done channel.
func (nd *Node) Recv() Envelope {
	inbox := nd.m.inbox[nd.ID]
	select {
	case env := <-inbox:
		return env
	default:
	}
	select {
	case env := <-inbox:
		return env
	case <-nd.m.done:
		nd.abortDown()
	}
	panic("unreachable")
}

// abortDown unwinds a node blocked on a shut-down machine. When the
// shutdown was caused by one of this node's own links failing (a crashed
// peer process), the unwind carries that transport error so Run reports
// it; otherwise the node is collateral of someone else's abort.
func (nd *Node) abortDown() {
	if err := nd.m.PeerError(nd.ID); err != nil {
		panic(transportAbort{err})
	}
	panic(abortErr{})
}

// RecvTimeout waits up to d for the next message, returning ok == false
// on timeout. Fault-tolerant node programs use it to give up on messages
// severed by dead links or nodes instead of blocking forever.
func (nd *Node) RecvTimeout(d time.Duration) (Envelope, bool) {
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case env := <-nd.m.inbox[nd.ID]:
		return env, true
	case <-t.C:
		return Envelope{}, false
	case <-nd.m.done:
		nd.abortDown()
	}
	panic("unreachable")
}

// Run executes program concurrently on every node hosted by the
// machine's transport and waits for all of them. The first non-nil error
// is returned (others are dropped); a panicking node propagates its
// panic after all other nodes finish; a transport failure (severed TCP
// link) is returned as that node's error. On a machine with a fault
// injector, dead nodes never schedule their program.
func (m *Machine) Run(program func(nd *Node) error) error {
	var wg sync.WaitGroup
	errs := make(chan error, len(m.locals))
	panics := make(chan any, len(m.locals))
	for _, id := range m.locals {
		if m.inj != nil && m.inj.NodeDead(id) {
			continue
		}
		wg.Add(1)
		go func(id cube.NodeID) {
			defer wg.Done()
			defer func() {
				if r := recover(); r != nil {
					switch v := r.(type) {
					case abortErr:
						// A peer died; this node was collateral.
					case transportAbort:
						errs <- fmt.Errorf("node %d: transport: %w", id, v.err)
					default:
						panics <- r
					}
					// Unblock every node still waiting in Send/Recv.
					m.tr.Close()
				}
			}()
			if err := program(&Node{ID: id, m: m}); err != nil {
				errs <- fmt.Errorf("node %d: %w", id, err)
			}
		}(id)
	}
	wg.Wait()
	close(errs)
	close(panics)
	if r, ok := <-panics; ok {
		panic(r)
	}
	return <-errs
}
