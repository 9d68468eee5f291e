package transport

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"
	"unsafe"

	"repro/internal/cube"
	"repro/internal/fault"
	"repro/internal/mpx"
	"repro/internal/wire"
)

// coalesceLimit bounds the per-link write queue: a send that grows it
// past this flushes synchronously, providing backpressure against a slow
// peer instead of unbounded buffering.
const coalesceLimit = 256 << 10

// closeFlushTimeout bounds the final flush (pending frames + BYE) that
// Close attempts on every link.
const closeFlushTimeout = 2 * time.Second

// blockSize is the capacity of the pooled encode blocks holding frame
// headers, batched small messages and contiguous fault-path frames.
// Blocks are fixed capacity — queued write segments alias them, so a
// growth reallocation would orphan the segments.
const blockSize = 32 << 10

// zcThreshold is the payload size at and above which a plain-link send
// skips the copy into the encode block and queues the payload by
// reference for a vectored write (writev). Below it, coalescing into
// the block (and batching under one CRC) wins: the copy
// is cheaper than growing the iovec list and small payloads ride along
// with their headers in one segment.
const zcThreshold = 4 << 10

// ackEvery and ackDelay shape the resilient control plane: an ACK is
// forced after ackEvery in-order frames, or ackDelay after the first
// unacknowledged one — whichever comes first — and always piggybacks on
// data flushes. Before this window existed every admitted frame kicked
// an ACK of its own, which at scatter sizes meant one control frame and
// one extra wakeup per kilobyte of payload.
const (
	ackEvery = 16
	ackDelay = time.Millisecond
)

// blockPool recycles encode blocks across links and flushes. Stored as
// *[]byte so Put does not allocate a box per cycle.
var blockPool = sync.Pool{New: func() any {
	b := make([]byte, 0, blockSize)
	return &b
}}

func getBlock() *[]byte {
	b := blockPool.Get().(*[]byte)
	*b = (*b)[:0]
	return b
}

// ResilienceOptions configures self-healing links. With Enabled false
// (the default) a connection error is immediately fatal: the link
// records a sticky *mpx.PeerError and the transport shuts down — the
// original PR 3 behavior, with zero overhead on the send path.
//
// With Enabled true every frame crossing a socket carries a per-link
// sequence number and is kept in a bounded replay ring until the peer's
// cumulative ACK covers it. A connection error then severs only the
// socket: a supervisor redials (smaller node ID) or awaits the peer's
// redial (larger node ID) with exponential backoff + jitter, resumes
// via a handshake carrying each side's last received sequence number,
// and replays the unacked tail. Only when the reconnect budget is
// exhausted does the link escalate to the sticky PeerError.
type ResilienceOptions struct {
	// Enabled turns the sequence/ACK/replay layer and link supervision on.
	Enabled bool
	// MaxAttempts bounds redials per outage (dialing side). 0 means 8.
	MaxAttempts int
	// Budget bounds the wall-clock spent healing one outage, on both the
	// dialing side (redial deadline) and the accepting side (how long to
	// wait for the peer's redial). 0 means 10s.
	Budget time.Duration
	// BaseBackoff is the first redial delay; it doubles per attempt up to
	// MaxBackoff, each sleep jittered to [0.5,1.5)x. 0 means 10ms.
	BaseBackoff time.Duration
	// MaxBackoff caps the redial delay. 0 means 500ms.
	MaxBackoff time.Duration
}

// replayWindow bounds a resilient link's replay ring, in frames. A sender
// whose window is full blocks until ACKs drain it (backpressure through
// an outage).
const replayWindow = 1024

func (r *ResilienceOptions) normalize() {
	if r.MaxAttempts <= 0 {
		r.MaxAttempts = 8
	}
	if r.Budget <= 0 {
		r.Budget = 10 * time.Second
	}
	if r.BaseBackoff <= 0 {
		r.BaseBackoff = 10 * time.Millisecond
	}
	if r.MaxBackoff < r.BaseBackoff {
		r.MaxBackoff = 500 * time.Millisecond
		if r.MaxBackoff < r.BaseBackoff {
			r.MaxBackoff = r.BaseBackoff
		}
	}
}

// TCPOptions configures a TCP transport endpoint.
type TCPOptions struct {
	// Dim is the cube dimension.
	Dim int
	// Locals names the one rank this endpoint hosts: exactly one entry,
	// inside the cube. Every cube link of the rank is a socket.
	Locals []cube.NodeID
	// Listen is the listen address; empty means "127.0.0.1:0" (pick a
	// free port — read it back with Addr).
	Listen string
	// Depth is the per-node inbox depth; 0 means DepthForScatter(Dim, 1).
	Depth int
	// Injector, when non-nil, applies message faults to every crossing
	// at the transport boundary. Corrupt outcomes flip encoded frame
	// bytes so the receiver's CRC detects them.
	Injector fault.Injector
	// HandshakeTimeout bounds Connect: dial retries (a peer may not be
	// listening yet) and handshake reads. 0 means 30s.
	HandshakeTimeout time.Duration
	// Resilience configures self-healing links; zero value disables them.
	Resilience ResilienceOptions
	// Network selects the socket family: "tcp" (the default) or "unix"
	// for Unix-domain sockets between co-located endpoints.
	// Everything above the dial — wire codec, resilience supervisors,
	// payload counters — is family-agnostic.
	Network string
	// Member, when non-nil, puts the transport in member mode: the mesh
	// is elastic. Link supervisors that exhaust their reconnect budget
	// report the peer dead through OnPeerDown instead of shutting the
	// transport down; membership control frames (JOIN/DRAIN/VIEW) are
	// dispatched to OnControl; sends to dead, drained or never-joined
	// neighbors drop silently; and joiners are accepted at runtime,
	// replacing a dead incarnation's link. Requires Resilience.Enabled
	// (the supervisors are the crash detectors).
	Member *MemberHooks
}

// TCP is a socket-backed mpx.Transport hosting one rank: each of the
// rank's cube links is one connection carrying length-prefixed,
// CRC-checksummed frames (internal/wire). Writes coalesce into a
// per-link buffer drained by a flusher goroutine; a read pump per link
// decodes frames into the rank's inbox.
//
// Lifecycle: NewTCP binds the listener (Addr reports the port),
// Connect(peers) establishes every neighbor link with a
// version/dim/identity handshake, Close flushes, announces shutdown
// (BYE) and tears everything down. An unannounced connection loss — a
// crashed peer — is recorded as a *mpx.PeerError and shuts the
// transport down so the hosted rank aborts instead of hanging; with
// Resilience enabled the loss is first handed to the link supervisor,
// which redials, resumes and replays, and only escalates to that fatal
// path once the reconnect budget is spent.
type TCP struct {
	c      *cube.Cube
	opt    TCPOptions
	ln     net.Listener
	addr   string // bound listen address
	udsDir string // temp dir owning an auto-created unix socket path

	// self is the hosted rank and inbox its inbox. Neither changes after
	// NewTCP, so the read pumps reach the inbox without linkMu.
	self  cube.NodeID
	inbox *mpx.Inbox

	// links has one slot per port; nil until the link is connected.
	// Guarded by linkMu: in member mode links are replaced at runtime
	// when a joiner occupies a dead rank's hole, concurrent with sends.
	//
	// linkMu also guards the topology itself: GrowTo re-dimensions the
	// mesh online, swapping c and opt.Dim and widening links in one
	// critical section. Runtime paths must read those fields through
	// Cube/dim/linkAt/setLinkAt rather than directly; bootstrap paths
	// (NewTCP, Connect, JoinMesh) run before the endpoint is attached
	// and may read them bare.
	linkMu sync.RWMutex
	links  []*link

	down     chan struct{}
	downOnce sync.Once
	wg       sync.WaitGroup

	// dirty forces Close to skip the BYE announcement — Abort uses it to
	// simulate a crash (peers see an unannounced connection loss).
	dirty atomic.Bool

	// resumeOnce guards the resume/member accept loop: bootstrap members
	// start it from Connect, joiners from JoinMesh.
	resumeOnce sync.Once

	// Health counters (see mpx.TransportStats).
	crcDropped   atomic.Int64
	retransmits  atomic.Int64
	reconnects   atomic.Int64
	acksSent     atomic.Int64
	nacksSent    atomic.Int64
	dupsDropped  atomic.Int64
	severed      atomic.Int64
	replayHW     atomic.Int64
	memberDrops  atomic.Int64 // member mode: sends dropped for absent/failed/retired links
	growEvents   atomic.Int64 // member mode: dimension widenings applied by GrowTo
	growAccepts  atomic.Int64 // member mode: grow-attach handshakes accepted from larger-cube joiners
	attachesRecv atomic.Int64 // member mode: KindAttach announcements received from joiners

	// recvFree is the endpoint's free list of receive records, shared by
	// its read pumps, and recvKept what they hold (at most recvKeep
	// bytes); see recvRecord.
	recvMu   sync.Mutex
	recvFree []*recvRecord
	recvKept int

	// Data-plane volume counters.
	bytesSent        atomic.Int64
	bytesRecv        atomic.Int64
	framesSent       atomic.Int64
	framesRecv       atomic.Int64
	payloadDelivered atomic.Int64
	acksBatched      atomic.Int64
}

// seqFrame is one encoded frame parked in a link's replay ring until the
// peer acknowledges it. The stored bytes are always the clean encoding —
// fault-injected damage applies only to the first transmission, so a
// retransmission heals the corruption (this is what makes CRC drops
// recoverable instead of silent).
type seqFrame struct {
	seq   uint64
	frame []byte
	// corrupt damages the first transmission of this frame on the wire
	// (fault injection); dup writes the first transmission twice.
	corrupt, dup bool
}

// relState is the per-link sequence/ACK/replay state, guarded by link.mu.
type relState struct {
	// Send side: sendSeq is the last sequence assigned (first frame is
	// 1); ring holds frames > acked, oldest first; nextFlush is the first
	// sequence the next flush writes; maxSent is the highest sequence
	// ever written (frames <= maxSent written again are retransmits).
	sendSeq, acked, nextFlush, maxSent uint64
	ring                               []seqFrame

	// Receive side: recvSeq is the highest sequence delivered in order;
	// nackedAt remembers the recvSeq at which the last NACK was issued so
	// one gap triggers one retransmit request, not one per arriving
	// out-of-order frame.
	recvSeq  uint64
	nackedAt uint64 // init ^0: "no NACK issued yet"

	// needAck/needNack make the next flush piggyback control frames.
	needAck, needNack bool

	// unacked counts in-order frames admitted since the last ACK went
	// out; the delayed-ACK window (ackEvery / ackDelay) drains it.
	// ackArmed is true while the delayed-ACK timer is pending.
	unacked  int
	ackArmed bool

	// connected is false between a connection error and the supervisor's
	// successful resume.
	connected bool
	// lastCause is the error that severed the current/last outage.
	lastCause error

	// space signals senders blocked on a full replay ring (cond on
	// link.mu); woken by ACK progress, escalation, and Close.
	space *sync.Cond
}

// link is one neighbor connection of the hosted rank.
type link struct {
	t          *TCP
	self, peer cube.NodeID
	port       int

	// dialer and addr identify the reconnect role: the endpoint with the
	// smaller node ID (re)dials addr, the larger waits for the redial.
	dialer bool
	addr   string

	mu   sync.Mutex // guards conn, gen, the outq, err, r, retired
	conn net.Conn
	gen  int       // bumped on every (re)install; stale pumps detect replacement
	err  error     // first escalated failure (*mpx.PeerError), sticky
	r    *relState // nil on plain links

	// retired marks a link whose peer announced BYE in member mode (a
	// graceful drain): sends drop silently, the supervisor stays quiet,
	// and — unlike a sticky err — our own Close stays clean. bye marks
	// the announcement itself, in either mode (see peerBye).
	retired, bye bool

	// pumped is closed when the read pump of the current connection
	// generation exits (guarded by mu). install waits on it: a pump may
	// be reading a part into a landing slice (DESIGN.md §18), and the
	// next generation's pump may be handed the same slice for the
	// retransmit — one writer at a time.
	pumped chan struct{}

	// downFired dedupes the member-mode OnPeerDown report across the
	// supervisor escalation and a racing join replacement.
	downFired atomic.Bool

	// Plain-link output queue (guarded by mu): outSegs is the wire-order
	// list of byte segments awaiting the next vectored write; outBlks are
	// the filled encode blocks backing earlier segments (recycled to
	// blockPool once their flush completes). cur is the open block —
	// cur[spanFrom:] is its not-yet-queued tail, closed into outSegs at
	// flush or roll time. batchAt is the offset of an open batch frame
	// in cur (-1 when none), batchLen its message count, and queued the
	// byte total across the queue (backpressure). Large payloads are
	// queued by reference — zero copy — between header spans that alias
	// cur; cur never reallocates (capacity is checked before every
	// append), so those aliases stay valid.
	outSegs  [][]byte
	outBlks  []*[]byte
	cur      *[]byte
	spanFrom int
	batchAt  int
	queued   int

	// qframes counts the wire frames currently queued (guarded by mu);
	// each flush drains it into the cost estimator alongside the byte
	// total and the measured write duration.
	qframes int

	// est fits this link's τ/t_c cost model from timed flushes.
	est mpx.LinkEstimator

	// lost and replaced (cap 1) connect the pumps to the supervisor:
	// disconnect signals lost, install signals replaced.
	lost, replaced chan struct{}

	kick chan struct{} // cap-1 flusher doorbell

	// ackTimer fires the delayed-ACK window on a resilient link.
	ackTimer *time.Timer

	// chaosDelay, when set (nanoseconds), stalls every flush — the chaos
	// harness's slow-link fault.
	chaosDelay atomic.Int64

	wmu   sync.Mutex  // serializes conn writes
	fsegs [][]byte    // flusher-side segment list, reused under wmu
	wbufs net.Buffers // what a write hands the kernel, reused under wmu: a local escapes
	fblks []*[]byte   // blocks retired by the in-flight flush
	ctrl  []byte      // fixed-capacity scratch for piggybacked ACK/NACK frames
}

// NewTCP binds the transport's listener; Connect must be called before
// any Send. The returned transport hosts the rank opts.Locals names.
func NewTCP(opts TCPOptions) (*TCP, error) {
	if len(opts.Locals) != 1 {
		return nil, fmt.Errorf("transport: an endpoint hosts exactly one rank, TCPOptions.Locals names %d", len(opts.Locals))
	}
	self := opts.Locals[0]
	if opts.Dim < 1 || opts.Dim > cube.MaxDim || int(self) >= 1<<uint(opts.Dim) {
		return nil, fmt.Errorf("transport: rank %d outside the %d-cube", self, opts.Dim)
	}
	udsDir := ""
	switch opts.Network {
	case "", "tcp":
		opts.Network = "tcp"
		if opts.Listen == "" {
			opts.Listen = "127.0.0.1:0"
		}
	case "unix":
		if opts.Listen == "" {
			// Socket paths are length-limited (~104 bytes), so a short
			// fresh directory under the default temp root.
			dir, err := os.MkdirTemp("", "hcube")
			if err != nil {
				return nil, fmt.Errorf("transport: uds socket dir: %w", err)
			}
			udsDir = dir
			opts.Listen = filepath.Join(dir, fmt.Sprintf("n%d.sock", self))
		}
	default:
		return nil, fmt.Errorf("transport: unsupported network %q (want tcp or unix)", opts.Network)
	}
	if opts.Depth <= 0 {
		opts.Depth = mpx.DepthForScatter(opts.Dim, 1)
	}
	if opts.HandshakeTimeout <= 0 {
		opts.HandshakeTimeout = 30 * time.Second
	}
	if opts.Resilience.Enabled {
		opts.Resilience.normalize()
	}
	if opts.Member != nil && !opts.Resilience.Enabled {
		return nil, errors.New("transport: member mode requires Resilience.Enabled (the link supervisors are the crash detectors)")
	}
	t := &TCP{
		c:      cube.New(opts.Dim),
		opt:    opts,
		self:   self,
		links:  make([]*link, opts.Dim),
		down:   make(chan struct{}),
		udsDir: udsDir,
	}
	t.inbox = mpx.NewInbox(opts.Depth, t.down)
	ln, err := net.Listen(opts.Network, opts.Listen)
	if err != nil {
		if udsDir != "" {
			os.RemoveAll(udsDir)
		}
		return nil, fmt.Errorf("transport: listen %s %s: %w", opts.Network, opts.Listen, err)
	}
	t.ln = ln
	t.addr = ln.Addr().String()
	return t, nil
}

// Addr returns the bound listen address other endpoints must be given
// as this transport's peers entry: "host:port" for TCP, "unix:<path>"
// for Unix-domain endpoints. Dials parse the prefix per peer entry, so
// a mesh may mix families.
func (t *TCP) Addr() string {
	if t.opt.Network == "unix" {
		return "unix:" + t.addr
	}
	return t.addr
}

// splitAddr resolves a peers entry to its socket family: a "unix:"
// prefix names a Unix-domain socket path, anything else is a TCP
// host:port.
func splitAddr(addr string) (network, address string) {
	if rest, ok := strings.CutPrefix(addr, "unix:"); ok {
		return "unix", rest
	}
	return "tcp", addr
}

// dialAddr dials a peers entry of either family.
func dialAddr(addr string, timeout time.Duration) (net.Conn, error) {
	network, address := splitAddr(addr)
	return net.DialTimeout(network, address, timeout)
}

// Cube returns the topology. In member mode the cube can be swapped for
// a larger one at runtime (GrowTo); callers get a consistent snapshot.
func (t *TCP) Cube() *cube.Cube {
	t.linkMu.RLock()
	c := t.c
	t.linkMu.RUnlock()
	return c
}

// Locals returns the hosted rank.
func (t *TCP) Locals() []cube.NodeID { return []cube.NodeID{t.self} }

// Inbox returns the receive channel of the hosted rank (id must be it).
func (t *TCP) Inbox(id cube.NodeID) <-chan mpx.Envelope { return t.inbox.Chan() }

// Attach routes the hosted rank's deliveries to c.Sink (mpx.Inbox.Attach;
// id must be the rank): the links' read pumps then run it themselves,
// and ask c.Land where a large part belongs before reading it.
func (t *TCP) Attach(id cube.NodeID, c mpx.Consumer) { t.inbox.Attach(c) }

// Done is closed when the transport shuts down.
func (t *TCP) Done() <-chan struct{} { return t.down }

// Stats reports the transport's health counters (implements
// mpx.statsReporter).
func (t *TCP) Stats() mpx.TransportStats {
	return mpx.TransportStats{
		CRCDropped:       t.crcDropped.Load(),
		Retransmits:      t.retransmits.Load(),
		Reconnects:       t.reconnects.Load(),
		AcksSent:         t.acksSent.Load(),
		NacksSent:        t.nacksSent.Load(),
		DupsDropped:      t.dupsDropped.Load(),
		SeveredLinks:     t.severed.Load(),
		ReplayHighWater:  t.replayHW.Load(),
		BytesSent:        t.bytesSent.Load(),
		BytesReceived:    t.bytesRecv.Load(),
		FramesSent:       t.framesSent.Load(),
		FramesReceived:   t.framesRecv.Load(),
		PayloadDelivered: t.payloadDelivered.Load(),
		AcksBatched:      t.acksBatched.Load(),
		MemberDrops:      t.memberDrops.Load(),
		GrowEvents:       t.growEvents.Load(),
		GrowAccepts:      t.growAccepts.Load(),
		AttachesReceived: t.attachesRecv.Load(),
	}
}

// Profile reports the endpoint's live link cost model (implements
// mpx.profiler): the per-link τ/t_c estimators — fed one observation
// per timed flush — pooled across every link. An endpoint with no
// connected link reports an unsettled profile (zero samples), which
// callers treat as "keep the defaults".
func (t *TCP) Profile() mpx.LinkProfile {
	var agg mpx.LinkEstimator
	for _, l := range t.allLinks() {
		l.est.AddTo(&agg)
	}
	return agg.Profile()
}

// credit counts one delivered message's n payload bytes. Callers take n
// before delivery: the receiver may recycle the message's Parts.
func (t *TCP) credit(n int64) { t.payloadDelivered.Add(n) }

func (t *TCP) resilient() bool { return t.opt.Resilience.Enabled }

func (t *TCP) isDown() bool {
	select {
	case <-t.down:
		return true
	default:
		return false
	}
}

// dim snapshots the current dimension.
func (t *TCP) dim() int {
	t.linkMu.RLock()
	d := t.opt.Dim
	t.linkMu.RUnlock()
	return d
}

// linkAt reads the link slot of a port under linkMu (member mode
// replaces links at runtime and GrowTo widens the table). Ports beyond
// the current dimension read as nil.
func (t *TCP) linkAt(port int) *link {
	t.linkMu.RLock()
	var l *link
	if port >= 0 && port < len(t.links) {
		l = t.links[port]
	}
	t.linkMu.RUnlock()
	return l
}

// setLinkAt writes the link slot of a port, returning the link it
// replaced.
func (t *TCP) setLinkAt(port int, l *link) *link {
	t.linkMu.Lock()
	old := t.links[port]
	t.links[port] = l
	t.linkMu.Unlock()
	return old
}

// allLinks snapshots the non-nil links.
func (t *TCP) allLinks() []*link {
	t.linkMu.RLock()
	defer t.linkMu.RUnlock()
	out := make([]*link, 0, len(t.links))
	for _, l := range t.links {
		if l != nil {
			out = append(out, l)
		}
	}
	return out
}

// Connect establishes every neighbor link: peers[j] is the listen
// address of the endpoint hosting rank j (our own entry is ignored).
// For each cube edge, the endpoint with the smaller rank dials and the
// larger accepts; the handshake carries protocol version, cube
// dimension, both node IDs and the resilience mode, and either side
// rejects a mismatch. Dials retry until HandshakeTimeout so endpoints
// may start in any order.
//
// With resilience enabled the listener stays open after Connect to
// accept resumed connections from reconnecting peers. Connect on a
// closed endpoint, or on one closed while it waits, returns mpx.ErrDown.
func (t *TCP) Connect(peers []string) error {
	if t.isDown() {
		return mpx.ErrDown
	}
	if len(peers) != t.c.Nodes() {
		t.Close()
		return fmt.Errorf("transport: Connect wants %d peer addresses, got %d", t.c.Nodes(), len(peers))
	}
	deadline := time.Now().Add(t.opt.HandshakeTimeout)

	var dials []int // ports whose peer has the larger rank
	for d := 0; d < t.opt.Dim; d++ {
		if t.self < t.c.Neighbor(t.self, d) {
			dials = append(dials, d)
		}
	}
	expectAccepts := t.opt.Dim - len(dials)

	type result struct {
		l   *link
		err error
	}
	results := make(chan result, len(dials)+expectAccepts+1)

	// Accept side: the peer's handshake tells us which link it is.
	acceptDone := make(chan struct{})
	go func() {
		defer close(acceptDone)
		for i := 0; i < expectAccepts; i++ {
			conn, err := t.ln.Accept()
			if err != nil {
				select {
				case <-t.down:
				default:
					results <- result{err: fmt.Errorf("transport: accept: %w", err)}
				}
				return
			}
			conn.SetDeadline(deadline)
			hs, err := wire.ReadHello(conn)
			if err != nil {
				conn.Close()
				results <- result{err: fmt.Errorf("transport: reading handshake: %w", err)}
				return
			}
			l, err := t.acceptHandshake(conn, hs)
			if err != nil {
				conn.Close()
				results <- result{err: err}
				return
			}
			results <- result{l: l}
		}
	}()

	for _, port := range dials {
		go func(port int) {
			peer := t.c.Neighbor(t.self, port)
			l, err := t.dialHandshake(t.self, peer, port, peers[peer], deadline)
			results <- result{l, err}
		}(port)
	}

	var links []*link
	var firstErr error
	timeout := time.NewTimer(time.Until(deadline) + time.Second)
	defer timeout.Stop()
collect:
	for i := 0; i < len(dials)+expectAccepts; i++ {
		select {
		case r := <-results:
			if r.err != nil {
				firstErr = r.err
				break collect
			}
			links = append(links, r.l)
		case <-t.down:
			// Closed under us (Loopback gives up on a peer's failure):
			// the accept loop reports nothing once the endpoint is down.
			firstErr = mpx.ErrDown
			break collect
		case <-timeout.C:
			firstErr = fmt.Errorf("transport: node %d: handshake timed out after %v", t.self, t.opt.HandshakeTimeout)
			break collect
		}
	}
	if firstErr != nil {
		t.Close()
		for _, l := range links {
			l.conn.Close()
		}
		return firstErr
	}

	if !t.resilient() {
		// Every expected connection is up: the listener's job is done
		// (there is no reconnection protocol), so the accept loop can end.
		t.ln.Close()
	}
	<-acceptDone

	for _, l := range links {
		t.setLinkAt(l.port, l)
	}
	if t.isDown() {
		// Closed while the links were being installed: Close may have
		// looked for them before they were there.
		for _, l := range links {
			l.conn.Close()
		}
		return mpx.ErrDown
	}
	for _, l := range links {
		t.startLink(l)
	}
	if t.resilient() {
		// The listener lives on to accept resumed connections (and, in
		// member mode, joiners); it ends when Close closes it.
		t.resumeOnce.Do(func() {
			t.wg.Add(1)
			go t.resumeLoop()
		})
	}
	return nil
}

// Loopback binds one endpoint per rank of a dim-cube on loopback
// sockets and connects them all concurrently. shape, when non-nil,
// adjusts each endpoint's options before NewTCP; they arrive with Dim
// and Locals set, so shape can tell the endpoints apart. At the first
// error every endpoint is closed, which ends the other Connects at once.
func Loopback(dim int, shape func(*TCPOptions)) ([]*TCP, error) {
	size := 1 << uint(dim)
	trs := make([]*TCP, 0, size)
	peers := make([]string, size)
	closeAll := func() {
		for _, tr := range trs {
			tr.Close()
		}
	}
	for i := range peers {
		opts := TCPOptions{Dim: dim, Locals: []cube.NodeID{cube.NodeID(i)}}
		if shape != nil {
			shape(&opts)
		}
		tr, err := NewTCP(opts)
		if err != nil {
			closeAll()
			return nil, err
		}
		trs = append(trs, tr)
		peers[i] = tr.Addr()
	}
	errs := make(chan error, size)
	for _, tr := range trs {
		go func(tr *TCP) { errs <- tr.Connect(peers) }(tr)
	}
	var first error
	for range trs {
		if err := <-errs; err != nil && first == nil {
			first = err
			closeAll()
		}
	}
	if first != nil {
		return nil, first
	}
	return trs, nil
}

// startLink launches the per-link goroutines: a flusher, a read pump
// bound to the current connection generation, and (resilient links) the
// supervisor that heals connection losses.
func (t *TCP) startLink(l *link) {
	l.mu.Lock()
	conn, gen, pumped := l.conn, l.gen, l.pumped
	l.mu.Unlock()
	t.wg.Add(2)
	go l.flusher()
	go l.readPump(conn, gen, pumped)
	if l.r != nil {
		t.wg.Add(1)
		go l.supervise()
	}
}

// dialHandshake connects self→peer, retrying while the peer's listener
// is not up yet, and validates the echoed handshake.
func (t *TCP) dialHandshake(self, peer cube.NodeID, port int, addr string, deadline time.Time) (*link, error) {
	backoff := 20 * time.Millisecond
	for {
		conn, err := dialAddr(addr, time.Until(deadline))
		if err == nil {
			l, err := t.finishDial(conn, self, peer, port, addr, deadline)
			if err == nil {
				return l, nil
			}
			conn.Close()
			return nil, err
		}
		select {
		case <-t.down:
			return nil, mpx.ErrDown
		case <-time.After(backoff):
		}
		if backoff < 500*time.Millisecond {
			backoff *= 2
		}
		if !time.Now().Before(deadline) {
			return nil, fmt.Errorf("transport: node %d: dialing peer %d at %s: %w", self, peer, addr, err)
		}
	}
}

func (t *TCP) finishDial(conn net.Conn, self, peer cube.NodeID, port int, addr string, deadline time.Time) (*link, error) {
	conn.SetDeadline(deadline)
	hello := wire.Hello{Dim: t.opt.Dim, From: self, To: peer, Resilient: t.resilient()}
	if _, err := conn.Write(wire.AppendHello(nil, hello)); err != nil {
		return nil, fmt.Errorf("transport: node %d: handshake write to peer %d: %w", self, peer, err)
	}
	echo, err := wire.ReadHello(conn)
	if err != nil {
		return nil, fmt.Errorf("transport: node %d: handshake reply from peer %d: %w", self, peer, err)
	}
	if echo.Resilient != t.resilient() {
		return nil, fmt.Errorf("transport: node %d: peer %d resilience mode mismatch (peer resilient=%v, local resilient=%v)",
			self, peer, echo.Resilient, t.resilient())
	}
	if echo.Dim != t.opt.Dim || echo.From != peer || echo.To != self {
		return nil, fmt.Errorf("transport: node %d: peer %d answered as node %d of a %d-cube (want node %d of a %d-cube)",
			self, peer, echo.From, echo.Dim, peer, t.opt.Dim)
	}
	conn.SetDeadline(time.Time{})
	return t.newLink(self, peer, port, conn, true, addr), nil
}

// acceptHandshake validates an inbound handshake (already read by the
// accept loop) and echoes it.
func (t *TCP) acceptHandshake(conn net.Conn, hs wire.Hello) (*link, error) {
	if hs.Resilient != t.resilient() {
		return nil, fmt.Errorf("transport: peer %d resilience mode mismatch (peer resilient=%v, local resilient=%v)",
			hs.From, hs.Resilient, t.resilient())
	}
	if hs.Dim != t.opt.Dim {
		return nil, fmt.Errorf("transport: peer %d speaks a %d-cube, this is a %d-cube", hs.From, hs.Dim, t.opt.Dim)
	}
	if hs.To != t.self {
		return nil, fmt.Errorf("transport: handshake for node %d, which is not hosted here", hs.To)
	}
	port := t.c.Port(hs.To, hs.From)
	if port < 0 {
		return nil, fmt.Errorf("transport: handshake from node %d, not a neighbor of %d", hs.From, hs.To)
	}
	if t.linkAt(port) != nil {
		return nil, fmt.Errorf("transport: duplicate connection for link %d<->%d", hs.To, hs.From)
	}
	echo := wire.Hello{Dim: t.opt.Dim, From: hs.To, To: hs.From, Resilient: t.resilient()}
	if _, err := conn.Write(wire.AppendHello(nil, echo)); err != nil {
		return nil, fmt.Errorf("transport: handshake echo to node %d: %w", hs.From, err)
	}
	conn.SetDeadline(time.Time{})
	return t.newLink(hs.To, hs.From, port, conn, false, ""), nil
}

// udsBufBytes is the socket buffer size requested for Unix-domain
// connections. TCP autotunes its windows into the tens of megabytes
// (net.ipv4.tcp_rmem), but unix stream sockets sit at
// net.core.{r,w}mem_default (~208 KiB) forever, so a bulk writer
// blocks and context-switches long before a loopback TCP writer
// would — which also poisons the link estimator: a flush blocked on a
// full buffer looks like per-byte transfer cost. With CAP_NET_ADMIN
// the FORCE setsockopts lift the buffers past net.core.{r,w}mem_max
// to TCP-autotune territory; without it the plain options still get
// us to {r,w}mem_max. The kernel silently caps either request, so
// asking big is safe everywhere.
const udsBufBytes = 32 << 20

// tuneConn applies per-family socket tuning to a freshly established
// cube-link connection.
func tuneConn(conn net.Conn) {
	switch c := conn.(type) {
	case *net.TCPConn:
		// Frames are already coalesced by the write queue; Nagle on top
		// would only add latency.
		c.SetNoDelay(true)
	case *net.UnixConn:
		if !forceUnixBuf(c, udsBufBytes) {
			c.SetReadBuffer(udsBufBytes)
			c.SetWriteBuffer(udsBufBytes)
		}
	}
}

// forceUnixBuf tries SO_{RCV,SND}BUFFORCE (privileged: may exceed
// net.core.{r,w}mem_max) and reports whether both took.
func forceUnixBuf(c *net.UnixConn, n int) bool {
	raw, err := c.SyscallConn()
	if err != nil {
		return false
	}
	ok := false
	raw.Control(func(fd uintptr) {
		if syscall.SetsockoptInt(int(fd), syscall.SOL_SOCKET, syscall.SO_RCVBUFFORCE, n) != nil {
			return
		}
		ok = syscall.SetsockoptInt(int(fd), syscall.SOL_SOCKET, syscall.SO_SNDBUFFORCE, n) == nil
	})
	return ok
}

func (t *TCP) newLink(self, peer cube.NodeID, port int, conn net.Conn, dialer bool, addr string) *link {
	tuneConn(conn)
	l := &link{
		t: t, self: self, peer: peer, port: port,
		conn: conn, gen: 1, dialer: dialer, addr: addr,
		kick:    make(chan struct{}, 1),
		pumped:  make(chan struct{}),
		batchAt: -1,
	}
	if t.resilient() {
		l.r = &relState{nextFlush: 1, nackedAt: ^uint64(0), connected: true}
		l.r.space = sync.NewCond(&l.mu)
		l.lost = make(chan struct{}, 1)
		l.replaced = make(chan struct{}, 1)
		l.ctrl = make([]byte, 0, 32)
		l.ackTimer = time.AfterFunc(time.Hour, l.ackTimerFire)
		l.ackTimer.Stop()
	} else {
		l.cur = getBlock()
	}
	return l
}

// ackTimerFire closes the delayed-ACK window: whatever is unacked now
// rides the next flush.
func (l *link) ackTimerFire() {
	l.mu.Lock()
	r := l.r
	r.ackArmed = false
	kick := r.unacked > 0
	if kick {
		r.needAck = true
	}
	l.mu.Unlock()
	if kick {
		l.kickFlusher()
	}
}

// resumeLoop accepts post-Connect connections: reconnecting peers
// resuming a severed link. It ends when Close closes the listener.
func (t *TCP) resumeLoop() {
	defer t.wg.Done()
	for {
		conn, err := t.ln.Accept()
		if err != nil {
			return
		}
		t.wg.Add(1)
		go func(conn net.Conn) {
			defer t.wg.Done()
			if err := t.handleResume(conn); err != nil {
				conn.Close()
			}
		}(conn)
	}
}

// handleResume validates a resume handshake, echoes our receive
// watermark and installs the connection on the matching link.
func (t *TCP) handleResume(conn net.Conn) error {
	conn.SetDeadline(time.Now().Add(t.opt.HandshakeTimeout))
	hs, err := wire.ReadHello(conn)
	if err != nil {
		return err
	}
	if !hs.Resilient {
		return fmt.Errorf("transport: bad resume handshake from peer %d", hs.From)
	}
	if hs.To != t.self {
		return fmt.Errorf("transport: resume for node %d, which is not hosted here", hs.To)
	}
	if hs.Dim > t.dim() {
		// Grow-attach: the peer speaks a larger cube — a joiner beyond
		// our founding 2^d, or a survivor that widened before us. Only
		// member meshes re-dimension.
		if !t.memberMode() {
			return fmt.Errorf("transport: bad resume handshake from peer %d", hs.From)
		}
		if !t.growFromWire(hs.Dim) {
			return fmt.Errorf("transport: cannot grow to a %d-cube for peer %d", hs.Dim, hs.From)
		}
		t.growAccepts.Add(1)
	} else if hs.Dim < t.dim() && !t.memberMode() {
		return fmt.Errorf("transport: bad resume handshake from peer %d", hs.From)
	}
	// A member-mode peer below our dimension lags a growth event (its
	// link was down when the KindGrow flood went out). Proceed anyway:
	// existing links keep their port geometry at any dimension, and the
	// peer learns the grown dimension from the echo and widens on its
	// side.
	port := t.Cube().Port(hs.To, hs.From)
	if port < 0 {
		return fmt.Errorf("transport: resume from node %d, not a neighbor of %d", hs.From, hs.To)
	}
	l := t.linkAt(port)
	if t.memberMode() {
		// A fresh incarnation of the peer — a joiner filling the hole of a
		// crashed or drained rank — dials with RecvSeq 0 and no shared
		// history. Detect it and replace the link instead of splicing the
		// joiner onto the dead incarnation's replay state.
		if hs.RecvSeq == 0 && l == nil {
			return t.acceptMemberJoin(conn, hs, port)
		}
		if l != nil && hs.RecvSeq == 0 {
			l.mu.Lock()
			hasHistory := l.err != nil || l.retired || (l.r != nil && (l.r.recvSeq > 0 || l.r.sendSeq > 0))
			l.mu.Unlock()
			if hasHistory {
				return t.acceptMemberJoin(conn, hs, port)
			}
		}
	}
	if l == nil || l.r == nil {
		return fmt.Errorf("transport: resume for unknown link %d<->%d", hs.To, hs.From)
	}
	l.mu.Lock()
	recv := l.r.recvSeq
	failed := l.err != nil
	l.mu.Unlock()
	if failed {
		return fmt.Errorf("transport: resume for escalated link %d<->%d", hs.To, hs.From)
	}
	// The echo carries the current dimension: a lagging dialer grows on
	// seeing a larger one.
	echo := wire.Hello{Dim: t.dim(), From: hs.To, To: hs.From, Resilient: true, RecvSeq: recv}
	if _, err := conn.Write(wire.AppendHello(nil, echo)); err != nil {
		return err
	}
	conn.SetDeadline(time.Time{})
	l.install(conn, hs.RecvSeq)
	return nil
}

// install replaces the link's connection after a resume handshake that
// told us the peer received everything up to peerRecv. The old
// connection (if any) is closed first so in-flight writes abort and its
// read pump exits; then, under both locks, the generation advances, the
// replay cursor rewinds to peerRecv+1 and a fresh read pump starts.
func (l *link) install(conn net.Conn, peerRecv uint64) {
	tuneConn(conn)
	l.mu.Lock()
	old, oldPump := l.conn, l.pumped
	l.mu.Unlock()
	if old != nil {
		old.Close()
	}
	<-oldPump
	pumped := make(chan struct{})
	l.wmu.Lock()
	l.mu.Lock()
	r := l.r
	l.conn = conn
	l.gen++
	gen := l.gen
	l.pumped = pumped
	if peerRecv > r.acked {
		l.trimRingLocked(peerRecv)
	}
	r.nextFlush = peerRecv + 1
	if r.nextFlush <= r.acked {
		// The ring only holds frames > acked; replay can start no earlier.
		r.nextFlush = r.acked + 1
	}
	r.connected = true
	r.needAck = true
	select {
	case <-l.lost: // clear a loss doorbell that raced this install
	default:
	}
	r.space.Broadcast()
	l.mu.Unlock()
	l.wmu.Unlock()
	l.t.reconnects.Add(1)
	l.t.wg.Add(1)
	go l.readPump(conn, gen, pumped)
	select {
	case l.replaced <- struct{}{}:
	default:
	}
	l.kickFlusher()
}

// trimRingLocked drops ring frames acknowledged up to and including
// upTo. Caller holds l.mu.
func (l *link) trimRingLocked(upTo uint64) {
	r := l.r
	i := 0
	for i < len(r.ring) && r.ring[i].seq <= upTo {
		r.ring[i].frame = nil
		i++
	}
	r.ring = r.ring[i:]
	r.acked = upTo
}

// Send delivers msg from the hosted rank through the given port: an
// encoded frame is appended to the link's coalescing buffer. Fault
// outcomes apply here, at the transport boundary.
func (t *TCP) Send(from cube.NodeID, port int, msg mpx.Message) error {
	return t.send(from, port, msg, 0)
}

// Forward is Send for a relay passing env.Message on verbatim
// (mpx.forwarder): a plain link's vectored encoder reuses the checksum
// the read pump verified instead of summing the payload again.
func (t *TCP) Forward(from cube.NodeID, port int, env mpx.Envelope) error {
	return t.send(from, port, env.Message, env.BodyCRC)
}

// Settle is the send-completion fence (mpx.settler): it writes out what
// every plain link of the hosted rank id has queued by reference and
// reports whether all of it reached the sockets. Resilient links copied
// each frame into their replay ring when it was sent and need nothing.
// A port without a link (never connected, or a member mesh's hole) and
// a failed link, which never drains its queue, are both false.
func (t *TCP) Settle(id cube.NodeID) bool {
	if id != t.self {
		return false
	}
	for port := t.dim() - 1; port >= 0; port-- {
		l := t.linkAt(port)
		if l == nil || l.r == nil && l.flush() != nil {
			return false
		}
	}
	return true
}

// send is Send with bodyCRC, the verified checksum of a message
// forwarded verbatim (zero for none).
func (t *TCP) send(from cube.NodeID, port int, msg mpx.Message, bodyCRC uint32) error {
	select {
	case <-t.down:
		return mpx.ErrDown
	default:
	}
	if from != t.self {
		return fmt.Errorf("transport: node %d is not hosted by this endpoint", from)
	}
	// One snapshot: in member mode GrowTo re-dimensions the mesh
	// concurrently with sends, so the dimension and the link slot must
	// come from the same critical section.
	t.linkMu.RLock()
	dim := t.opt.Dim
	portOK := port >= 0 && port < dim
	var l *link
	if portOK {
		l = t.links[port]
	}
	t.linkMu.RUnlock()
	if !portOK {
		// A collective layer that learned of a grown view before this
		// endpoint widened its links can address a port the mesh does
		// not have yet; in member mode that is a gap to route around,
		// like any other missing neighbor.
		if t.memberMode() {
			t.memberDrops.Add(1)
			return nil
		}
		return fmt.Errorf("transport: node %d has no port %d in a %d-cube", from, port, dim)
	}
	var out fault.Outcome
	if inj := t.opt.Injector; inj != nil {
		to := from ^ cube.NodeID(1)<<uint(port)
		if inj.NodeDead(from) || inj.NodeDead(to) || inj.LinkDead(from, to) {
			return nil
		}
		out = inj.OnSend(from, to)
		if out.Drop {
			return nil
		}
	}
	if t.memberMode() {
		// Elastic meshes route around missing peers: a send into a dead,
		// drained or never-joined neighbor drops silently — the membership
		// layer has (or will) put the peer's fate into the view, and
		// collectives recover by re-pinning the epoch, not by aborting.
		if l == nil {
			t.memberDrops.Add(1)
			return nil
		}
		err := l.send(msg, bodyCRC, out)
		if err != nil && !errors.Is(err, mpx.ErrDown) {
			t.memberDrops.Add(1)
			return nil
		}
		return err
	}
	if l == nil {
		return fmt.Errorf("transport: node %d has no link on port %d (Connect not run?)", from, port)
	}
	return l.send(msg, bodyCRC, out)
}

// maxPartLen is the largest single part payload: the vectored-write
// decision looks at it rather than the total, because a bundle of many
// small parts is cheaper to copy contiguously than to spread across
// one iovec entry per part.
func maxPartLen(msg mpx.Message) int {
	n := 0
	for _, p := range msg.Parts {
		if len(p.Data) > n {
			n = len(p.Data)
		}
	}
	return n
}

// closeSpanLocked moves the open tail of the current block onto the
// segment queue. Caller holds l.mu.
func (l *link) closeSpanLocked() {
	b := *l.cur
	if len(b) > l.spanFrom {
		l.outSegs = append(l.outSegs, b[l.spanFrom:len(b):len(b)])
		l.spanFrom = len(b)
	}
}

// sealBatchLocked closes an open batch frame: patches its length field
// and appends the CRC trailer (4 bytes the block always reserves).
// Caller holds l.mu.
func (l *link) sealBatchLocked() {
	if l.batchAt < 0 {
		return
	}
	*l.cur = wire.SealBatch(*l.cur, l.batchAt)
	l.batchAt = -1
	l.queued += 4
}

// ensureLocked guarantees the current block has n+4 bytes of spare
// capacity (the +4 keeps the seal of an open batch from ever growing
// the block — queued segments alias it, so growth would orphan them),
// rolling to a fresh pooled block when it does not. Caller holds l.mu;
// n+4 must not exceed blockSize.
func (l *link) ensureLocked(n int) {
	if cap(*l.cur)-len(*l.cur) >= n+4 {
		return
	}
	l.sealBatchLocked()
	l.closeSpanLocked()
	l.outBlks = append(l.outBlks, l.cur)
	l.cur = getBlock()
	l.spanFrom = 0
}

// send queues msg on the link's write queue and wakes (or becomes) the
// flusher; an oversized queue flushes synchronously for backpressure.
//
// Three encode paths, picked per message:
//   - a part >= zcThreshold: vectored — headers into the block, payload
//     bytes queued by reference (no copy; the payload must stay
//     unmodified until flushed, which the collectives guarantee: they
//     never mutate a buffer they handed to Send);
//   - small parts only, but more of them than a block holds: one
//     contiguous frame in a segment of its own;
//   - everything else: appended to an open batch frame in the block (one
//     header + one CRC per batch).
//
// Fault outcomes that damage the wire image (corrupt, duplicate) always
// use the contiguous path so the corruption flips a real encoded byte.
//
// bodyCRC is the checksum already verified over msg when a relay
// forwards it verbatim (zero otherwise); only the vectored path, where
// the payload is worth not summing twice, looks at it.
func (l *link) send(msg mpx.Message, bodyCRC uint32, out fault.Outcome) error {
	if l.r != nil {
		return l.sendResilient(msg, out)
	}
	l.mu.Lock()
	if l.err != nil {
		err := l.err
		l.mu.Unlock()
		return err
	}
	// bulk means the message carries at least one part worth an iovec
	// entry of its own. A bundle of many SMALL parts (a scatter subtree)
	// is not bulk no matter its total: copying it contiguously beats
	// paying per-part iovec overhead in the kernel.
	bulk := maxPartLen(msg) >= zcThreshold
	switch {
	case out.Corrupt || out.Duplicate:
		l.queueFaultyLocked(msg, out)
	case bulk:
		l.sealBatchLocked()
		over := wire.VecOverhead(wire.MaxVersion, msg)
		l.ensureLocked(over)
		l.closeSpanLocked()
		*l.cur, l.outSegs = wire.AppendFrameVecCRC(*l.cur, l.outSegs, wire.MaxVersion, msg, bodyCRC)
		l.spanFrom = len(*l.cur)
		l.queued += over + msg.Size()
		l.qframes++
		l.t.framesSent.Add(1)
	case wire.BatchMsgSize(msg)+wire.BatchOverhead+6 > blockSize:
		// Small parts but a block-exceeding total: encode contiguously
		// into a dedicated owned segment (the copy is the point — one
		// iovec entry instead of hundreds).
		l.sealBatchLocked()
		l.closeSpanLocked()
		buf := wire.AppendFrameV(make([]byte, 0, wire.BatchMsgSize(msg)+6), wire.MaxVersion, msg)
		l.outSegs = append(l.outSegs, buf)
		l.queued += len(buf)
		l.qframes++
		l.t.framesSent.Add(1)
	default:
		need := wire.BatchMsgSize(msg)
		l.ensureLocked(need + wire.BatchOverhead)
		if l.batchAt < 0 {
			*l.cur, l.batchAt = wire.BeginBatch(*l.cur)
			l.queued += wire.BatchOverhead - 4 // CRC counted at seal
			l.qframes++
			l.t.framesSent.Add(1)
		}
		*l.cur = wire.AppendBatchMsg(*l.cur, msg)
		l.queued += need
	}
	big := l.queued >= coalesceLimit
	l.mu.Unlock()
	if big {
		return l.flush()
	}
	// Non-bulk messages flush inline when the writer is idle: the
	// TryLock succeeds exactly when no flush is in progress, so a lone
	// barrier exchange or scatter bundle (both latency chains) hits the
	// socket now instead of paying a flusher wakeup. Bulk sends go
	// through the flusher doorbell instead: its scheduling delay is what
	// lets back-to-back broadcast chunks pile into one writev under
	// load — self-tuning batching either way.
	if !bulk && l.wmu.TryLock() {
		return l.flushWLocked()
	}
	l.kickFlusher()
	return nil
}

// queueFaultyLocked encodes a contiguous frame for a corrupt and/or
// duplicated transmission. Frames that cannot fit a block get a
// dedicated owned segment (no pooling — the fault path is cold).
func (l *link) queueFaultyLocked(msg mpx.Message, out fault.Outcome) {
	need := wire.BatchMsgSize(msg) + 6
	copies := 1
	if out.Duplicate {
		copies = 2
	}
	for i := 0; i < copies; i++ {
		var frame []byte
		if need+4 > blockSize {
			l.sealBatchLocked()
			l.closeSpanLocked()
			frame = wire.AppendFrameV(make([]byte, 0, need), wire.MaxVersion, msg)
			l.outSegs = append(l.outSegs, frame)
		} else {
			l.ensureLocked(need)
			l.sealBatchLocked()
			start := len(*l.cur)
			*l.cur = wire.AppendFrameV(*l.cur, wire.MaxVersion, msg)
			frame = (*l.cur)[start:]
		}
		if i == 0 && out.Corrupt {
			// Damage the frame on the wire: flip one body byte after the CRC
			// was computed. The receiver's checksum rejects the frame — the
			// real detection path, not a simulated one.
			if b := wire.BodyStart(frame); b >= 0 && b < len(frame)-4 {
				frame[b] ^= 0xFF
			}
		}
		l.queued += len(frame)
		l.qframes++
		l.t.framesSent.Add(1)
	}
}

// sendResilient assigns the next sequence number, encodes the frame and
// parks it in the replay ring until acknowledged. A full ring blocks the
// sender until ACK progress, escalation or shutdown — backpressure that
// holds through a connection outage.
func (l *link) sendResilient(msg mpx.Message, out fault.Outcome) error {
	l.mu.Lock()
	r := l.r
	for l.err == nil && !l.retired && !l.t.isDown() && len(r.ring) >= replayWindow {
		r.space.Wait()
	}
	if l.retired {
		// The peer drained: drop silently, like sends to an absent member.
		l.mu.Unlock()
		l.t.memberDrops.Add(1)
		return nil
	}
	if l.err != nil {
		err := l.err
		l.mu.Unlock()
		return err
	}
	if l.t.isDown() {
		l.mu.Unlock()
		return mpx.ErrDown
	}
	r.sendSeq++
	sf := seqFrame{
		seq:     r.sendSeq,
		frame:   wire.AppendSeqFrame(nil, r.sendSeq, msg),
		corrupt: out.Corrupt,
		dup:     out.Duplicate,
	}
	r.ring = append(r.ring, sf)
	l.t.framesSent.Add(1)
	if n := int64(len(r.ring)); n > l.t.replayHW.Load() {
		l.t.noteReplayDepth(n)
	}
	l.mu.Unlock()
	if l.wmu.TryLock() {
		// Writer idle: flush inline instead of paying a wakeup hop.
		l.flushResilientWLocked()
		return nil
	}
	l.kickFlusher()
	return nil
}

// noteReplayDepth raises the replay high-water mark to n if higher.
func (t *TCP) noteReplayDepth(n int64) {
	for {
		cur := t.replayHW.Load()
		if n <= cur || t.replayHW.CompareAndSwap(cur, n) {
			return
		}
	}
}

func (l *link) kickFlusher() {
	select {
	case l.kick <- struct{}{}:
	default:
	}
}

// flush writes the queued segments. Senders keep queueing while a
// previous batch is on the wire — that window is the write coalescing.
func (l *link) flush() error {
	if l.r != nil {
		l.flushResilient()
		return nil
	}
	l.wmu.Lock()
	return l.flushWLocked()
}

// flushWLocked drains the plain-link queue in one vectored write
// (writev): header blocks and referenced payloads go to the kernel as
// an iovec list, never coalesced into a second buffer. Takes wmu held,
// releases it. Retired blocks return to the pool only here — after the
// write that consumed their segments has finished.
func (l *link) flushWLocked() error {
	defer l.wmu.Unlock()
	l.mu.Lock()
	if l.err != nil {
		err := l.err
		l.mu.Unlock()
		return err
	}
	l.sealBatchLocked()
	l.closeSpanLocked()
	l.fsegs, l.outSegs = l.outSegs, l.fsegs[:0]
	l.fblks, l.outBlks = l.outBlks, l.fblks[:0]
	l.queued = 0
	frames := l.qframes
	l.qframes = 0
	conn := l.conn
	l.mu.Unlock()
	if len(l.fsegs) == 0 {
		return nil
	}
	if delay := l.chaosDelay.Load(); delay > 0 {
		time.Sleep(time.Duration(delay))
	}
	total := 0
	for _, s := range l.fsegs {
		total += len(s)
	}
	l.wbufs = l.fsegs
	start := time.Now()
	_, err := l.wbufs.WriteTo(conn)
	dt := time.Since(start)
	// WriteTo consumed wbufs (it advances the slice in place), so release
	// the payload references through our own header and recycle the
	// blocks this write retired.
	for i := range l.fsegs {
		l.fsegs[i] = nil
	}
	l.fsegs = l.fsegs[:0]
	for _, b := range l.fblks {
		blockPool.Put(b)
	}
	l.fblks = l.fblks[:0]
	if err != nil {
		return l.fail(err)
	}
	l.est.Observe(frames, total, dt)
	l.t.bytesSent.Add(int64(total))
	return nil
}

// flushResilient writes every unflushed ring frame plus any pending
// ACK/NACK to the current connection. Write errors sever the connection
// (handing it to the supervisor) instead of failing the link; the
// unflushed frames stay in the ring and are replayed after resume.
func (l *link) flushResilient() {
	l.wmu.Lock()
	l.flushResilientWLocked()
}

// flushResilientWLocked does the work of flushResilient with wmu
// already held; it releases wmu. The write is vectored: segments
// reference the ring's owned frame encodings directly (no coalescing
// copy — the ring never mutates a frame after creation, and trimming
// only drops references, so the segments stay valid outside the lock).
// ACK batching happens here: a pending ACK always piggybacks, and any
// outgoing data drains the delayed-ACK window opportunistically.
func (l *link) flushResilientWLocked() {
	defer l.wmu.Unlock()
	l.mu.Lock()
	r := l.r
	if l.err != nil || !r.connected || l.conn == nil {
		l.mu.Unlock()
		return
	}
	segs := l.fsegs[:0]
	retrans, acks, nacks, batched := 0, 0, 0, 0
	for i := range r.ring {
		sf := &r.ring[i]
		if sf.seq < r.nextFlush {
			continue
		}
		first := sf.seq > r.maxSent
		if !first {
			retrans++
		}
		if first && sf.corrupt {
			// Damage only this transmission — an owned copy, so the ring
			// keeps the clean encoding and the NACK-triggered retransmit
			// heals the frame. Cold path: fault injection only.
			bad := append([]byte(nil), sf.frame...)
			if b := wire.BodyStart(bad); b >= 0 && b < len(bad)-4 {
				bad[b] ^= 0xFF
			}
			segs = append(segs, bad)
		} else {
			segs = append(segs, sf.frame)
		}
		if first && sf.dup {
			segs = append(segs, sf.frame)
		}
	}
	if r.sendSeq > r.maxSent {
		r.maxSent = r.sendSeq
	}
	r.nextFlush = r.sendSeq + 1
	// Control frames ride in the fixed-capacity ctrl scratch; appends
	// stay within its capacity, so earlier segments cannot dangle.
	ctrl := l.ctrl[:0]
	if r.needNack {
		at := len(ctrl)
		ctrl = wire.AppendNack(ctrl, r.recvSeq)
		segs = append(segs, ctrl[at:len(ctrl):len(ctrl)])
		r.needNack = false
		nacks++
	}
	if r.needAck || (len(segs) > 0 && r.unacked > 0) {
		at := len(ctrl)
		ctrl = wire.AppendAck(ctrl, r.recvSeq)
		segs = append(segs, ctrl[at:len(ctrl):len(ctrl)])
		r.needAck = false
		acks++
		if r.unacked > 1 {
			batched = r.unacked - 1
		}
		r.unacked = 0
	}
	conn, gen := l.conn, l.gen
	l.mu.Unlock()
	l.fsegs = segs
	if retrans > 0 {
		l.t.retransmits.Add(int64(retrans))
	}
	if acks > 0 {
		l.t.acksSent.Add(int64(acks))
	}
	if nacks > 0 {
		l.t.nacksSent.Add(int64(nacks))
	}
	if batched > 0 {
		l.t.acksBatched.Add(int64(batched))
	}
	if len(segs) == 0 {
		return
	}
	if delay := l.chaosDelay.Load(); delay > 0 {
		time.Sleep(time.Duration(delay))
	}
	total := 0
	for _, s := range segs {
		total += len(s)
	}
	// Each resilient segment is one complete frame (ring data frames and
	// control appends alike), so len(segs) is the frame count the cost
	// estimator wants.
	frames := len(segs)
	l.wbufs = segs
	start := time.Now()
	_, err := l.wbufs.WriteTo(conn)
	dt := time.Since(start)
	for i := range l.fsegs {
		l.fsegs[i] = nil
	}
	l.fsegs = l.fsegs[:0]
	if err != nil {
		l.disconnect(gen, err)
		return
	}
	l.est.Observe(frames, total, dt)
	l.t.bytesSent.Add(int64(total))
}

// fail records the first escalated failure on this link (sticky) as a
// PeerError and wakes any sender blocked on the replay window.
func (l *link) fail(err error) error {
	l.mu.Lock()
	if l.err == nil {
		l.err = &mpx.PeerError{Self: l.self, Peer: l.peer, Err: err}
	}
	err = l.err
	if l.r != nil {
		l.r.space.Broadcast()
	}
	l.mu.Unlock()
	return err
}

// disconnect severs the link's connection generation gen without
// failing the link: the supervisor is signalled to heal it. Stale
// generations (a pump whose connection was already replaced) no-op.
func (l *link) disconnect(gen int, cause error) {
	l.mu.Lock()
	if l.gen != gen || l.err != nil || l.retired || l.r == nil || !l.r.connected {
		l.mu.Unlock()
		return
	}
	l.r.connected = false
	l.r.lastCause = cause
	// Signal under mu so install's drain (also under mu) can never leave
	// a stale doorbell behind.
	select {
	case l.lost <- struct{}{}:
	default:
	}
	l.mu.Unlock()
}

// flusher drains the coalescing buffer until shutdown.
func (l *link) flusher() {
	defer l.t.wg.Done()
	for {
		select {
		case <-l.kick:
			l.flush() // failures are sticky in l.err
		case <-l.t.down:
			return
		}
	}
}

// supervise heals connection losses on a resilient link: each `lost`
// signal triggers one reestablish cycle; a cycle that exhausts the
// reconnect budget escalates to the sticky PeerError and shuts the
// transport down.
func (l *link) supervise() {
	defer l.t.wg.Done()
	for {
		select {
		case <-l.t.down:
			return
		case <-l.lost:
		}
		if err := l.reestablish(); err != nil {
			if !errors.Is(err, errSupervisorDown) {
				ferr := l.fail(err)
				if l.t.memberMode() {
					// Elastic mesh: the peer is dead, not the mesh. Report
					// it to the membership layer and keep serving the
					// surviving links.
					l.t.memberDown(l, ferr)
				} else {
					l.t.Close()
				}
			}
			return
		}
	}
}

// errSupervisorDown aborts a reestablish cycle because the transport is
// shutting down — not a link failure.
var errSupervisorDown = errors.New("transport: shutting down")

// reestablish heals one outage. The dialing side redials with jittered
// exponential backoff under the attempts/budget caps; the accepting
// side waits for the peer's redial (installed by resumeLoop) under the
// same budget. Either path returns nil once a connection is installed.
func (l *link) reestablish() error {
	ro := l.t.opt.Resilience
	deadline := time.Now().Add(ro.Budget)
	if !l.dialer {
		return l.awaitResume(deadline)
	}
	rng := rand.New(rand.NewSource(int64(l.self)<<32 | int64(l.peer)))
	backoff := ro.BaseBackoff
	timer := time.NewTimer(time.Hour)
	if !timer.Stop() {
		<-timer.C
	}
	defer timer.Stop()
	var lastErr error
	for attempt := 1; ; attempt++ {
		conn, err := dialAddr(l.addr, time.Until(deadline))
		if err == nil {
			peerRecv, herr := l.resumeHandshake(conn, deadline)
			if herr == nil {
				l.install(conn, peerRecv)
				return nil
			}
			conn.Close()
			err = herr
		}
		lastErr = err
		if l.t.isDown() {
			return errSupervisorDown
		}
		if attempt >= ro.MaxAttempts || !time.Now().Before(deadline) {
			break
		}
		// Jittered exponential backoff: sleep in [0.5,1.5)x backoff,
		// clipped to the remaining budget.
		sleep := backoff/2 + time.Duration(rng.Int63n(int64(backoff)))
		if rem := time.Until(deadline); sleep > rem {
			sleep = rem
		}
		if sleep < time.Millisecond {
			sleep = time.Millisecond
		}
		timer.Reset(sleep)
		select {
		case <-l.t.down:
			return errSupervisorDown
		case <-timer.C:
		}
		if backoff < ro.MaxBackoff {
			backoff *= 2
			if backoff > ro.MaxBackoff {
				backoff = ro.MaxBackoff
			}
		}
	}
	cause := l.outageCause(lastErr)
	return fmt.Errorf("connection lost and reconnect budget exhausted (%d attempts over %v): %w",
		ro.MaxAttempts, ro.Budget, cause)
}

// awaitResume is the accepting side of reestablish: resumeLoop installs
// the peer's redial and signals `replaced`; if the budget elapses first
// the outage escalates.
func (l *link) awaitResume(deadline time.Time) error {
	timer := time.NewTimer(time.Until(deadline))
	defer timer.Stop()
	for {
		select {
		case <-l.t.down:
			return errSupervisorDown
		case <-l.replaced:
			// A doorbell can be stale (an earlier install); trust only the
			// link's actual state.
			l.mu.Lock()
			ok := l.r.connected
			l.mu.Unlock()
			if ok {
				return nil
			}
		case <-timer.C:
			l.mu.Lock()
			ok := l.r.connected
			l.mu.Unlock()
			if ok {
				return nil
			}
			return fmt.Errorf("connection lost and peer did not reconnect within %v: %w",
				l.t.opt.Resilience.Budget, l.outageCause(nil))
		}
	}
}

// outageCause picks the most informative underlying error for an
// escalation message.
func (l *link) outageCause(dialErr error) error {
	l.mu.Lock()
	cause := l.r.lastCause
	l.mu.Unlock()
	if dialErr != nil {
		cause = dialErr
	}
	if cause == nil {
		cause = errors.New("connection severed")
	}
	return cause
}

// resumeHandshake runs the dialing side of a resume: send our receive
// watermark, read the peer's. Returns the peer's RecvSeq (our replay
// point).
func (l *link) resumeHandshake(conn net.Conn, deadline time.Time) (uint64, error) {
	conn.SetDeadline(deadline)
	l.mu.Lock()
	recv := l.r.recvSeq
	l.mu.Unlock()
	hello := wire.Hello{Dim: l.t.dim(), From: l.self, To: l.peer, Resilient: true, RecvSeq: recv}
	if _, err := conn.Write(wire.AppendHello(nil, hello)); err != nil {
		return 0, fmt.Errorf("resume handshake write: %w", err)
	}
	echo, err := wire.ReadHello(conn)
	if err != nil {
		return 0, fmt.Errorf("resume handshake reply: %w", err)
	}
	if echo.Resilient && echo.From == l.peer && echo.To == l.self &&
		echo.Dim > l.t.dim() && l.t.memberMode() {
		// The peer grew while this link was down: its echo carries the
		// mesh's new dimension. Widen before resuming — the link itself
		// is dimension-agnostic (its port never changes).
		l.t.growFromWire(echo.Dim)
	}
	if !echo.Resilient || echo.Dim != l.t.dim() || echo.From != l.peer || echo.To != l.self {
		return 0, fmt.Errorf("resume handshake: peer answered as node %d of a %d-cube (resilient=%v)",
			echo.From, echo.Dim, echo.Resilient)
	}
	conn.SetDeadline(time.Time{})
	return echo.RecvSeq, nil
}

// countReader counts raw bytes flowing off a connection (below the
// bufio layer, so read-ahead counts when it happens, which is what
// "wire bytes received" means).
type countReader struct {
	r io.Reader
	n *atomic.Int64
}

func (c countReader) Read(p []byte) (int, error) {
	n, err := c.r.Read(p)
	c.n.Add(int64(n))
	return n, err
}

// readPump decodes inbound frames into the hosted rank's inbox. A
// checksum-rejected frame is counted and dropped (the stream stays
// aligned); on a resilient link it additionally requests a retransmit
// (NACK). A BYE frame ends the pump quietly — the peer shut down in
// good order. Any other stream failure is a lost connection: on a plain
// link it is recorded as a PeerError and the whole transport shuts down
// so the hosted rank aborts instead of waiting forever; on a resilient
// link it severs only this connection generation and wakes the
// supervisor.
//
// Frames are read into a receive record (recvRecord). A data or batch
// frame read whole, whatever its size, is delivered under the record's
// leases; a streamed frame, a control frame or an ack leaves the record
// with the pump for the next read. A pump
// takes a record when a frame starts to arrive and gives it back when
// its link goes quiet, so an idle link holds none.
func (l *link) readPump(conn net.Conn, gen int, pumped chan<- struct{}) {
	defer l.t.wg.Done()
	defer close(pumped)
	br := bufio.NewReaderSize(countReader{conn, &l.t.bytesRecv}, 16<<10)
	r := wire.NewReader(br)
	r.Land(l.land)
	var rec *recvRecord
	for {
		if br.Buffered() == 0 {
			if rec != nil {
				l.t.putRecord(rec)
				rec = nil
			}
			br.Peek(1) // a failure is the read's to report
		}
		if rec == nil {
			rec = l.t.takeRecord()
		}
		// The record's part tables: a streamed frame is decoded into a
		// table of its own and hands that out with it; the record keeps
		// these.
		parts, msgs := rec.fr.Msg.Parts, rec.fr.Msgs
		body, inBody, err := r.ReadInto(&rec.fr, rec.body)
		rec.body = body
		fr := rec.fr
		if !inBody {
			rec.fr.Msg.Parts, rec.fr.Msgs = parts, msgs
		}
		switch {
		case err == nil:
			l.t.framesRecv.Add(1)
		case errors.Is(err, wire.ErrChecksum):
			l.t.crcDropped.Add(1)
			if l.r != nil {
				l.noteGap()
				continue
			}
			continue
		case errors.Is(err, wire.ErrBye):
			l.peerBye()
			return
		default:
			select {
			case <-l.t.down:
				// Shutdown raced the read: not a peer failure.
			default:
				if err == io.EOF {
					err = errors.New("connection closed without shutdown announcement (peer crashed?)")
				}
				if l.r != nil {
					l.disconnect(gen, err)
				} else {
					l.fail(err)
					l.t.Close()
				}
			}
			return
		}
		var msg mpx.Message
		switch fr.Kind {
		case wire.KindData:
			if l.r != nil {
				// A plain data frame on a resilient link is a protocol
				// violation a reconnect cannot heal.
				l.fail(errors.New("plain data frame on a resilient link"))
				l.t.Close()
				return
			}
			msg = fr.Msg
		case wire.KindBatch:
			if l.r != nil {
				// The resilient protocol sequences individual frames; a
				// batch cannot carry a sequence number, so its presence is
				// the same unhealable violation as a plain data frame.
				l.fail(errors.New("batch frame on a resilient link"))
				l.t.Close()
				return
			}
			var leases []mpx.Lease
			if inBody && len(fr.Msgs) > 0 {
				leases, rec = rec.lease(len(fr.Msgs)), nil
			}
			for i, m := range fr.Msgs {
				var lease *mpx.Lease
				if leases != nil {
					lease = &leases[i]
				}
				if !l.deliver(m, 0, lease) {
					return
				}
			}
			continue
		case wire.KindSeqData:
			if l.r == nil {
				l.fail(errors.New("sequenced frame on a plain link"))
				l.t.Close()
				return
			}
			if !l.admitSeq(fr.Seq) {
				continue
			}
			msg = fr.Msg
		case wire.KindAck:
			l.onAck(fr.Seq)
			continue
		case wire.KindNack:
			l.onNack(fr.Seq)
			continue
		case wire.KindJoin, wire.KindDrain, wire.KindView:
			// Membership control frames ride outside the replay protocol:
			// the view flood is idempotent and loss-tolerant, so they need
			// no sequencing. Ignored outside member mode.
			l.t.dispatchControl(l.peer, fr.Kind, fr.Body)
			continue
		case wire.KindGrow:
			// A neighbor widened the mesh: grow to match and re-flood so
			// the event reaches every survivor (the flood terminates
			// because GrowTo is idempotent — only an actual widening
			// propagates). Ignored outside member mode.
			if dim, err := wire.DecodeGrow(fr.Body); err == nil && l.t.memberMode() {
				l.t.growFromWire(dim)
			}
			continue
		case wire.KindAttach:
			// A joiner's transport-level announcement after a grow-attach.
			// The membership layer admits the rank into the view (the
			// frame is idempotent with the KindJoin announce that follows).
			l.t.attachesRecv.Add(1)
			l.t.dispatchControl(l.peer, fr.Kind, fr.Body)
			continue
		default:
			continue
		}
		var lease *mpx.Lease
		if inBody {
			lease, rec = &rec.lease(1)[0], nil
		}
		if !l.deliver(msg, fr.BodyCRC, lease) {
			return
		}
	}
}

// recvRecord is what the read pump decodes a frame into, kept for reuse:
// the body buffer, which the parts of every data or batch frame read
// whole alias, the decoded Frame, whose part tables the delivered
// messages alias too, and a lease per message (mpx.Lease). live counts
// the messages not yet released; the last Release puts the record back
// on its endpoint's free list (Recycle). Every collective releases what
// it receives (DESIGN.md §18, "Who owns the result"), and so do the
// sites that drop an envelope nobody read; a message that is never
// released — a raw Node.Recv consumer's, or one its communicator
// forfeits — leaves its record to the garbage collector.
type recvRecord struct {
	t      *TCP
	body   []byte
	fr     wire.Frame
	live   atomic.Int32
	leases []mpx.Lease
	kept   int // bytes, while on the free list
}

// recvKeep bounds what an endpoint's free list of receive records keeps
// alive, in bytes, and recvKeepBytes what one record may hold and still
// be kept: a record over it (a body that large, or the part tables of a
// great many parts) is left to the garbage collector, and so is one
// that the list has no room for. A rank holds the records of its last
// two collectives' results and forwards (two calls, by call parity) and
// gives back the rest as soon as it has read them. An all-node
// collective delivers N−1 messages a call, so its ranks circulate 2N
// records or more: the bound is on their bytes, not their number.
const (
	recvKeep      = 512 << 10
	recvKeepBytes = 64 << 10
)

// takeRecord pops a free receive record, or makes one.
func (t *TCP) takeRecord() *recvRecord {
	t.recvMu.Lock()
	defer t.recvMu.Unlock()
	n := len(t.recvFree)
	if n == 0 {
		return &recvRecord{t: t}
	}
	rec := t.recvFree[n-1]
	t.recvFree[n-1] = nil
	t.recvFree = t.recvFree[:n-1]
	t.recvKept -= rec.kept
	return rec
}

// lease arms the record's first n leases, one per message about to be
// delivered from it, and returns them.
func (rec *recvRecord) lease(n int) []mpx.Lease {
	for len(rec.leases) < n {
		rec.leases = append(rec.leases, mpx.Lease{Owner: rec})
	}
	leases := rec.leases[:n]
	for i := range leases {
		leases[i].Arm()
	}
	rec.live.Store(int32(n))
	return leases
}

// Recycle is the leases' owner hook: the record goes back on the free
// list when its last message is released.
func (rec *recvRecord) Recycle() {
	if rec.live.Add(-1) == 0 {
		rec.t.putRecord(rec)
	}
}

// putRecord puts a record back on the free list, if it is small enough
// to keep and the list has room.
func (t *TCP) putRecord(rec *recvRecord) {
	rec.kept = rec.bytes()
	if rec.kept > recvKeepBytes {
		return
	}
	t.recvMu.Lock()
	if t.recvKept+rec.kept <= recvKeep {
		t.recvFree = append(t.recvFree, rec)
		t.recvKept += rec.kept
	}
	t.recvMu.Unlock()
}

// bytes is what the record keeps alive: its body and its part tables.
func (rec *recvRecord) bytes() int {
	const part, msg = int(unsafe.Sizeof(mpx.Part{})), int(unsafe.Sizeof(mpx.Message{}))
	n := cap(rec.body) + part*cap(rec.fr.Msg.Parts) + msg*cap(rec.fr.Msgs)
	for _, m := range rec.fr.Msgs[:cap(rec.fr.Msgs)] {
		n += part * cap(m.Parts)
	}
	return n
}

// land is the read pump's posted-receive hook (wire.Landing): it asks
// the hosted rank's consumer where a part about to be read belongs, and
// only for a frame the pump will deliver. On a resilient link that is
// the next in-order sequence number and nothing else — a duplicate or a
// frame behind a gap is read into scratch and discarded as before — so
// that a landing slice is written by the one delivery it was handed out
// for, and by that frame's retransmit after a checksum drop. Plain
// links deliver every frame they accept.
func (l *link) land(seq uint64, tag, nparts, offset, n int) []byte {
	if l.r != nil {
		l.mu.Lock()
		next := l.r.recvSeq + 1
		l.mu.Unlock()
		if seq != next {
			return nil
		}
	}
	return l.t.inbox.Land(l.peer, tag, nparts, offset, n)
}

// deliver hands one decoded message to the hosted rank's inbox,
// crediting its payload to the goodput counter; bodyCRC is the frame
// checksum verified over exactly msg, if the reader recorded one, and
// lease the message's share of its receive record, if it has one.
// Returns false when the transport shut down instead.
func (l *link) deliver(msg mpx.Message, bodyCRC uint32, lease *mpx.Lease) bool {
	n := int64(msg.Size())
	if !l.t.inbox.Deliver(mpx.Envelope{Message: msg, Port: l.port, From: l.peer, BodyCRC: bodyCRC, Lease: lease}) {
		return false
	}
	l.t.credit(n)
	return true
}

// admitSeq decides whether a sequenced frame is the next in-order
// delivery. Duplicates (replays the peer had to resend) are dropped but
// re-acknowledged immediately — the peer is clearly missing our ACK; a
// gap (a frame lost to corruption) requests one retransmit per stalled
// position. In-order frames do NOT kick an ACK of their own: the
// delayed-ACK window acknowledges them in bulk (ackEvery frames or
// ackDelay, whichever first), and outgoing data drains the window
// early by piggybacking a cumulative ACK.
func (l *link) admitSeq(seq uint64) bool {
	l.mu.Lock()
	r := l.r
	switch {
	case seq <= r.recvSeq:
		r.needAck = true
		l.mu.Unlock()
		l.t.dupsDropped.Add(1)
		l.kickFlusher()
		return false
	case seq != r.recvSeq+1:
		doNack := r.nackedAt != r.recvSeq
		if doNack {
			r.needNack = true
			r.nackedAt = r.recvSeq
		}
		l.mu.Unlock()
		if doNack {
			l.kickFlusher()
		}
		return false
	}
	r.recvSeq++
	r.unacked++
	force := r.unacked >= ackEvery
	arm := !force && !r.ackArmed
	if force {
		r.needAck = true
	}
	if arm {
		r.ackArmed = true
	}
	l.mu.Unlock()
	if force {
		l.kickFlusher()
	} else if arm {
		l.ackTimer.Reset(ackDelay)
	}
	return true
}

// noteGap requests a retransmit after a CRC-rejected frame (its
// sequence number is unreadable, so the request names our watermark).
func (l *link) noteGap() {
	l.mu.Lock()
	doNack := l.r.nackedAt != l.r.recvSeq
	if doNack {
		l.r.needNack = true
		l.r.nackedAt = l.r.recvSeq
	}
	l.mu.Unlock()
	if doNack {
		l.kickFlusher()
	}
}

// onAck advances the cumulative acknowledgement: acknowledged frames
// leave the replay ring and blocked senders wake.
func (l *link) onAck(cum uint64) {
	l.mu.Lock()
	r := l.r
	if cum > r.acked {
		l.trimRingLocked(cum)
		if r.nextFlush <= cum {
			r.nextFlush = cum + 1
		}
		r.space.Broadcast()
	}
	l.mu.Unlock()
}

// onNack rewinds the flush cursor so the next flush retransmits
// everything after the peer's watermark.
func (l *link) onNack(from uint64) {
	l.mu.Lock()
	r := l.r
	if from < r.acked {
		from = r.acked
	}
	if r.nextFlush > from+1 {
		r.nextFlush = from + 1
	}
	l.mu.Unlock()
	l.kickFlusher()
}

// PeerError reports the first connection-level failure recorded on one
// of node id's links (implements mpx.peerErrorer).
func (t *TCP) PeerError(id cube.NodeID) error {
	if id != t.self {
		return nil
	}
	for d := 0; d < t.dim(); d++ {
		if l := t.linkAt(d); l != nil {
			l.mu.Lock()
			err := l.err
			l.mu.Unlock()
			if err != nil {
				return err
			}
		}
	}
	return nil
}

// FirstPeerError reports the first connection-level failure recorded on
// any link (implements mpx.firstPeerErrorer) — it lets a rank stalled
// as collateral of a neighbor's dead link still name the dead peer.
func (t *TCP) FirstPeerError() error {
	for _, l := range t.allLinks() {
		l.mu.Lock()
		err := l.err
		l.mu.Unlock()
		if err != nil {
			return err
		}
	}
	return nil
}

// Close shuts the transport down: the hosted rank's inbox closes,
// telling its attached consumer; every link gets a bounded final flush of
// pending frames plus a BYE announcement, then its connection is
// closed; the listener stops; pumps, flushers and supervisors drain
// out. Idempotent, safe to call from pump goroutines.
//
// An orderly close of resilient links first lingers, for at most
// closeFlushTimeout, until every peer has acknowledged what it was
// sent. The final flush alone reaches only a connected link, and only
// with frames never written before: the last frames of a program,
// written to a connection that died before the peer read them, would
// otherwise leave with their owner. During the linger the supervisors
// and flushers still run, so such a link heals and replays.
//
// A dirty close — any link already failed — skips the linger and the
// BYE on every link: peers must observe a connection LOSS, not an
// orderly goodbye, so the failure cascades (their supervisors redial
// the closed listener, exhaust the budget and escalate naming this
// endpoint) instead of stranding them blocked on traffic that will
// never come.
func (t *TCP) Close() error {
	t.downOnce.Do(func() {
		if t.resilient() && !t.closingDirty() {
			deadline := time.Now().Add(closeFlushTimeout)
			for _, l := range t.allLinks() {
				l.awaitAcked(deadline)
			}
		}
		close(t.down)
		t.inbox.Close()
		t.ln.Close()
		dirty := t.closingDirty()
		for _, l := range t.allLinks() {
			l.shutdown(dirty)
		}
		if t.udsDir != "" {
			// The *net.UnixListener unlinked its socket on Close; drop the
			// directory that held it.
			os.RemoveAll(t.udsDir)
		}
	})
	return nil
}

// closingDirty reports whether a Close now must look like a crash to
// the peers: Abort asked for that, or a link has failed. In member mode
// a failed link means a PEER died, not us: our own close is still
// orderly, and surviving neighbors must see the BYE so they retire the
// link instead of escalating.
func (t *TCP) closingDirty() bool {
	return t.dirty.Load() || (!t.memberMode() && t.FirstPeerError() != nil)
}

// awaitAcked waits until the peer has acknowledged every frame in the
// replay ring, or there is no point: the link failed, the peer said
// BYE, or deadline passed.
func (l *link) awaitAcked(deadline time.Time) {
	wake := time.AfterFunc(time.Until(deadline), func() {
		l.mu.Lock()
		l.r.space.Broadcast()
		l.mu.Unlock()
	})
	defer wake.Stop()
	l.mu.Lock()
	for len(l.r.ring) > 0 && l.err == nil && !l.bye && time.Now().Before(deadline) {
		l.r.space.Wait()
	}
	l.mu.Unlock()
}

// shutdown flushes what it can, announces BYE (unless the transport is
// closing dirty) and closes the connection.
func (l *link) shutdown(dirty bool) {
	l.mu.Lock()
	conn := l.conn
	if l.r != nil {
		// Wake senders blocked on the replay window; they observe t.down.
		l.r.space.Broadcast()
	}
	l.mu.Unlock()
	if l.ackTimer != nil {
		l.ackTimer.Stop()
	}
	if conn == nil {
		return
	}
	// Bound the final write AND force any in-flight conn.Write (a
	// flusher stuck on a stalled peer) to return so wmu frees up.
	conn.SetWriteDeadline(time.Now().Add(closeFlushTimeout))
	l.wmu.Lock()
	l.mu.Lock()
	var segs [][]byte
	broken := l.err != nil
	if l.r != nil {
		for i := range l.r.ring {
			if sf := &l.r.ring[i]; sf.seq >= l.r.nextFlush {
				segs = append(segs, sf.frame)
			}
		}
		if l.r.needAck || l.r.unacked > 0 {
			l.ctrl = wire.AppendAck(l.ctrl[:0], l.r.recvSeq)
			segs = append(segs, l.ctrl)
		}
		segs = append(segs, wire.AppendBye(nil))
		broken = broken || !l.r.connected
	} else {
		l.sealBatchLocked()
		l.ensureLocked(2)
		*l.cur = wire.AppendBye(*l.cur)
		l.closeSpanLocked()
		segs = l.outSegs
	}
	conn = l.conn
	l.mu.Unlock()
	if !broken && !dirty {
		l.wbufs = segs
		l.wbufs.WriteTo(conn) // best effort; the conn is closing anyway
	}
	conn.Close()
	l.wmu.Unlock()
}
