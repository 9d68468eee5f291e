// Package comm is an MPI-style communicator for the Boolean-cube
// runtime: user code runs as one program per node and calls collective
// operations from inside, exactly as it would against a message-passing
// library on the iPSC. The collectives are the paper's: binomial-tree
// broadcast (SBT), multi-tree broadcast (MSBT), balanced-tree
// personalized communication (BST scatter/gather), plus SBT reduction
// and all-reduce, prefix scan, and all-gather/all-to-all over N
// concurrent balanced trees.
//
// Collective calls must be made by every node in the same order (the MPI
// rule); each call is sequence-stamped, and a mismatched message is
// reported as corruption rather than mis-delivered. Every communicator
// attaches an unbounded tag-matched mailbox to its node's inbox — the
// delivering goroutine files each message straight into it — so a slow
// participant can never deadlock a fast neighbor. The mailbox files the
// current collective's messages in a table indexed by subtag and keeps
// a map only for the rest: early arrivals and stragglers.
//
// On machines with injected faults (RunFaulty), the fault-tolerant
// collectives in ft.go add detection and recovery: per-receive timeouts
// with bounded retry/backoff, a liveness mask learned from a heartbeat
// round, payload checksums, and the redundant multi-tree broadcast that
// exploits the edge-disjointness of the paper's ERSBTs.
package comm

import (
	"cmp"
	"fmt"
	"slices"
	"sync"
	"time"

	"repro/internal/bst"
	"repro/internal/cube"
	"repro/internal/fault"
	"repro/internal/mpx"
	"repro/internal/msbt"
	"repro/internal/sbt"
	"repro/internal/svc"
	"repro/internal/transport"
)

// Comm is the per-node communicator handle.
type Comm struct {
	nd  *mpx.Node
	n   int
	seq int // collective sequence number; all nodes advance in lockstep

	// base is the encoded (tenant, job) half of every tag this
	// communicator sends (an encoded svc.Tag). Standalone communicators (Run,
	// RunTCPWith, ...) use base 0 — the legacy tag space — while job-attached
	// communicators carry their job's slice.
	base int

	// deadline, when nonzero, bounds every blocking receive inside the
	// plain collectives (see SetDeadline).
	deadline time.Duration

	// routes caches, per tree root, this rank's place in that root's BST
	// (see route). all is what AllGather and AllToAll keep between calls
	// (see allNode), kids the SBT children Bcast, Reduce and AllReduce
	// refill. All are touched only from the rank's own goroutine, like seq.
	routes []*rootRoute
	all    *allNode
	kids   []cube.NodeID

	// AllReduce's and Scan's sent parts, double-buffered by call parity
	// (dxCalls&1): AllReduce's fold goes up in part 0 and the root's result
	// down in part 1, Scan step d's message is part d; Data is the
	// snapshot sent. In-flight envelopes (and, in process, the forwards
	// down the tree) and writev queues hold sent parts by reference, and a
	// rank may lag a whole collective behind. Two calls is provably enough
	// distance: no rank completes one of these collectives before every
	// rank has entered it (the result comes down only once the root has
	// heard from every rank; a Scan's total folds every input), so before
	// call k+2 touches the parity-k set every rank has finished call k.
	// dxScratch holds a call's private operands (see scratch), never sent.
	// Touched only from the rank's own goroutine, like seq.
	dxCalls   int
	dxSent    [2][]mpx.Part
	dxScratch []byte

	mu      sync.Mutex
	cond    *sync.Cond
	mailbox mailbox // its current collective is tagFor's, kept in step by next and reset
	stopped bool

	// zone is BcastMSBT's posted receive (landing.go), made by the first
	// call off the root. The pointer and what it points to are guarded by
	// mu, but for the two fields zone marks as the rank's own.
	zone *zone

	// leases are the receive leases of the envelopes whose bytes a result
	// or a queued forward of the rank's last two collectives aliases: the
	// one before last's are leases[:split], the last's the rest. Call
	// k+2's entry gives call k's back behind the send fence (enter).
	// Envelopes a collective only reads are given back at once and never
	// held here. scatter is what Scatter keeps between calls. Touched only
	// from the rank's own goroutine, like seq; a job's end empties leases
	// (jobProgram), and reset leaves both alone.
	leases  []*mpx.Lease
	split   int
	scatter *scatterState

	// sink and closed are the mailbox's consumer (deliver and stop), made
	// once so that a job communicator attaches to each job's stream
	// without allocating (see reset).
	sink   func(mpx.Envelope)
	closed func()
}

// newComm builds a communicator over nd whose tags live in the
// (tenant, job) slice encoded by base and attaches its mailbox to the
// envelope stream: attach is the node's inbox (nd.Attach) for a
// standalone communicator, the job's dispatcher hook for a job's.
func newComm(nd *mpx.Node, n, base int, attach func(mpx.Consumer)) *Comm {
	c := &Comm{nd: nd, n: n, base: base, mailbox: mailbox{cur: base}}
	c.cond = sync.NewCond(&c.mu)
	c.sink, c.closed = c.deliver, c.stop
	attach(mpx.Consumer{Sink: c.sink, Closed: c.closed, Land: c.land})
	return c
}

// reset readies a job communicator for the next job its worker runs,
// under that job's base, as if it were new: sequence, deadline and stop
// are cleared and the mailbox emptied. It keeps what is the rank's
// alone — the struct, its cond and consumer, routes, kids, the scratch,
// the held leases and Scatter's buffers — and drops whatever the last
// job may still have lent by reference: the parity sets, the all-node
// state and the landing zone.
// The parity argument (see dxSent) is about one communicator's calls;
// a peer's worker may still be reading the last job's message while
// this one runs any number of later jobs. The caller closed the last
// job's stream first, so nothing is delivered into the mailbox until
// the next Attach.
func (c *Comm) reset(base int) {
	c.seq, c.base, c.deadline = 0, base, 0
	c.dxCalls, c.dxSent, c.all, c.zone = 0, [2][]mpx.Part{}, nil, nil
	c.mu.Lock()
	c.stopped = false
	c.mailbox.reset(base)
	c.mu.Unlock()
}

// deadlineError reports a collective receive that outlived the deadline
// set with SetDeadline: the awaited peer is silent but no transport
// failure was recorded — a hang turned into a deterministic, named
// failure.
type deadlineError struct {
	// Rank is the waiting node; Op names what it was waiting for.
	Rank cube.NodeID
	Op   string
	// Wait is the deadline that expired.
	Wait time.Duration
}

func (e *deadlineError) Error() string {
	return fmt.Sprintf("comm: node %d: collective deadline (%v) expired waiting for %s", e.Rank, e.Wait, e.Op)
}

// rootError reports a rooted collective (Bcast, BcastMSBT, Scatter,
// Gather, Reduce, BcastFT, ScatterFT) called with a root outside the
// cube. Every rank returns it at entry, before sending anything or
// advancing the collective sequence, so the communicator's next
// collective runs as if the call had not been made.
type rootError struct {
	Op   string
	Root cube.NodeID
	Size int
}

func (e *rootError) Error() string {
	return fmt.Sprintf("comm: %s: root %d outside the %d ranks", e.Op, e.Root, e.Size)
}

// checkRoot is every rooted collective's entry check.
func (c *Comm) checkRoot(op string, root cube.NodeID) error {
	if int(root) < c.Size() {
		return nil
	}
	return &rootError{Op: op, Root: root, Size: c.Size()}
}

// SetDeadline bounds every blocking receive inside the plain
// collectives (Bcast, Scatter, Gather, Barrier, ...): a rank stuck on a
// silent — not severed, just silent — peer fails with a deadline error
// after d instead of blocking forever. Zero restores the default
// (block indefinitely; transport failures still abort). Set it between
// collectives, not concurrently with one; it does not apply to the
// fault-tolerant collectives, which bound their own waits (ftTimeout).
func (c *Comm) SetDeadline(d time.Duration) { c.deadline = d }

// Rank returns this node's address.
func (c *Comm) Rank() cube.NodeID { return c.nd.ID }

// Profile returns the transport's live link-cost fit, the (τ, t_c) pair
// of the paper's cost model, and whether the transport measures one at
// all.
func (c *Comm) Profile() (mpx.LinkProfile, bool) { return c.nd.Profile() }

// Dim returns the cube dimension.
func (c *Comm) Dim() int { return c.n }

// Size returns the number of nodes.
func (c *Comm) Size() int { return 1 << uint(c.n) }

// Run executes program on every node of an n-cube and waits for all
// programs to finish, returning the first error.
func Run(n int, program func(c *Comm) error) error {
	return RunFaulty(n, nil, program)
}

// RunFaulty is Run on a machine with injected faults: dead ranks never
// run their program, and messages suffer whatever the injector decides.
// Programs should use the fault-tolerant collectives (BcastFT, ScatterFT,
// ProbeLiveness) — the plain collectives assume full participation and
// will abort when a needed peer is dead. A nil injector is exactly Run.
func RunFaulty(n int, inj fault.Injector, program func(c *Comm) error) error {
	// Comm's collectives bundle a whole subtree (up to N/2 destinations)
	// into each message, so DepthForScatter with that bundling bounds the
	// in-flight count; an attached mailbox takes deliveries without bound,
	// so depth only matters to raw channel consumers.
	return RunOn(mpx.NewWithInjector(n, CollectiveDepth(n), inj), program)
}

// CollectiveDepth is the inbox depth Comm's collectives assume: scatter
// bundles a whole subtree (up to N/2 destinations) into each message.
// Machines built elsewhere (e.g. over TCP transports) should size their
// inboxes with it before handing them to RunOn.
func CollectiveDepth(n int) int {
	return mpx.DepthForScatter(n, 1<<uint(n)/2)
}

// RunOn executes program wrapped in a communicator on every node hosted
// by m's transport, then shuts the machine down. A single-process cube
// is one RunOn over an in-process machine (what Run does); a cube spread
// over several OS processes is one RunOn per process, each over a
// machine built on a connected TCP transport (internal/transport).
func RunOn(m *mpx.Machine, program func(c *Comm) error) error {
	n := m.Cube().Dim()
	defer m.Shutdown()
	// The error that starts the abort is recorded before the shutdown it
	// causes, so a collateral rank's "machine stopped" — which can reach
	// Machine.Run's channel first — never stands in for it.
	var once sync.Once
	var first error
	err := m.Run(func(nd *mpx.Node) error {
		c := newComm(nd, n, 0, nd.Attach)
		defer c.stop()
		err := program(c)
		if err != nil {
			once.Do(func() { first = fmt.Errorf("node %d: %w", nd.ID, err) })
			// MPI semantics: an erroring rank aborts the job, releasing
			// ranks blocked in collectives instead of deadlocking them.
			m.Shutdown()
		}
		return err
	})
	if first != nil {
		return first
	}
	return err
}

// TCPRunOptions tunes RunTCPWith; the zero value is plain loopback TCP.
type TCPRunOptions struct {
	// Resilience configures self-healing links on every endpoint.
	Resilience transport.ResilienceOptions
	// Chaos, when non-nil, starts one chaos agent per endpoint (seeded
	// Seed, Seed+1, ...) after the mesh connects and stops them when the
	// run ends.
	Chaos *transport.ChaosOptions
	// StatsSink, when non-nil, receives the transport counters summed
	// across all endpoints after the run finishes — the delivered-payload
	// numbers benchmarks derive goodput from.
	StatsSink func(mpx.TransportStats)
	// Network picks the socket family for every endpoint: "tcp"
	// (default, loopback) or "unix" (Unix-domain sockets; see
	// transport.TCPOptions.Network).
	Network string
}

// RunTCPWith is Run with every cube link a loopback socket (TCP, or
// Unix-domain with Network "unix"): one endpoint and machine per node,
// the single-process twin of a `hypercomm launch` deployment. opt adds
// self-healing links and chaos.
func RunTCPWith(n int, opt TCPRunOptions, program func(c *Comm) error) error {
	size := 1 << uint(n)
	trs, err := transport.Loopback(n, func(o *transport.TCPOptions) {
		o.Depth, o.Resilience, o.Network = CollectiveDepth(n), opt.Resilience, opt.Network
	})
	if err != nil {
		return err
	}
	defer closeAll(trs)
	var agents []*transport.Chaos
	if opt.Chaos != nil {
		for i, tr := range trs {
			co := *opt.Chaos
			co.Seed += int64(i)
			agents = append(agents, tr.StartChaos(co))
		}
	}
	errs := make(chan error, size)
	for _, tr := range trs {
		go func(tr *transport.TCP) {
			errs <- RunOn(mpx.NewWithTransport(tr, nil), program)
		}(tr)
	}
	var first error
	for i := 0; i < size; i++ {
		if err := <-errs; err != nil && first == nil {
			first = err
			// Abort the job: shut every endpoint down so ranks blocked
			// in collectives unblock instead of deadlocking the run.
			for _, tr := range trs {
				tr.Close()
			}
		}
	}
	for _, a := range agents {
		a.Stop()
	}
	if opt.StatsSink != nil {
		var sum mpx.TransportStats
		for _, tr := range trs {
			sum.Add(tr.Stats())
		}
		opt.StatsSink(sum)
	}
	return first
}

func closeAll(trs []*transport.TCP) {
	for _, tr := range trs {
		tr.Close()
	}
}

// deliver files one envelope into the tag-matched mailbox and wakes the
// rank. It is the attached sink, run by the delivering goroutine (the
// sending rank in process, a link's read pump on sockets) under the
// inbox lock: it only takes mu and never blocks or sends. It drops what
// reaches a stopped communicator, and any tag a fault-tolerant
// collective gave up on (severed tree, timed-out heartbeat), so that a
// straggler can never pass for corruption of a later collective; a
// dropped envelope's lease is given back on the spot.
func (c *Comm) deliver(env mpx.Envelope) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.stopped || !c.mailbox.put(env) {
		env.Lease.Release()
		return
	}
	if z := c.zone; z != nil {
		z.shut(env.Tag)
	}
	c.cond.Broadcast()
}

// stop fails blocked receives with stoppedErr and drops later
// deliveries; it is also the attach hook's closed callback.
func (c *Comm) stop() {
	c.mu.Lock()
	c.stopped = true
	c.cond.Broadcast()
	c.mu.Unlock()
}

// anyTag asks recvTag for the current collective's next message under
// any subtag, in arrival order — what the all-node collectives and
// BcastFT take, whose messages arrive from many trees in any order.
const anyTag = -1

// recvTag blocks until a message with the given tag (or anyTag) is
// available, failing with a *deadlineError once the communicator's
// deadline (SetDeadline), if set, has passed.
func (c *Comm) recvTag(tag int) (mpx.Envelope, error) {
	env, ok, err := c.recvTagWait(tag, c.deadline)
	if err == nil && !ok {
		err = c.deadlineErr(waitingFor(tag), c.deadline)
	}
	return env, err
}

// recvTagWait is every blocking receive: d, when nonzero, bounds the
// wait, and ok == false reports that it expired (the message may still
// arrive later; abandon the tag if giving up). A queued message carrying
// the same subtag but a PAST collective sequence is a corrupted
// collective stream (some rank is running collectives out of order) and
// fails hard with full provenance: sender rank, raw tag, and expected
// vs. actual sequence. Future-sequence messages are normal — a neighbor
// may legitimately run ahead — and stragglers from abandoned
// fault-tolerant collectives never reach the mailbox (see deliver).
func (c *Comm) recvTagWait(tag int, d time.Duration) (mpx.Envelope, bool, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	var until time.Time
	if d > 0 {
		until = time.Now().Add(d)
		timer := time.AfterFunc(d, func() {
			c.mu.Lock()
			c.cond.Broadcast()
			c.mu.Unlock()
		})
		defer timer.Stop()
	}
	for {
		if tag == anyTag {
			if env, ok := c.mailbox.popAny(); ok {
				return env, true, nil
			}
		} else if env, ok := c.mailbox.pop(tag); ok {
			return env, true, nil
		} else if err := c.staleLocked(tag); err != nil {
			return mpx.Envelope{}, false, err
		}
		if c.stopped {
			return mpx.Envelope{}, false, c.stoppedErr(waitingFor(tag))
		}
		if d > 0 && !time.Now().Before(until) {
			return mpx.Envelope{}, false, nil
		}
		c.cond.Wait()
	}
}

// waitingFor names what a receive for tag waits for, in its errors.
func waitingFor(tag int) string {
	if tag == anyTag {
		return "collective traffic"
	}
	return fmt.Sprintf("tag %d", tag)
}

// deadlineErr explains an expired collective deadline. A connection
// loss anywhere on the machine is the better diagnosis — it names the
// dead peer — so it takes precedence over the bare timeout.
func (c *Comm) deadlineErr(waitingFor string, d time.Duration) error {
	if perr := c.nd.AnyPeerError(); perr != nil {
		return fmt.Errorf("comm: node %d: deadline (%v) expired waiting for %s after a connection loss: %w",
			c.nd.ID, d, waitingFor, perr)
	}
	return &deadlineError{Rank: c.nd.ID, Op: waitingFor, Wait: d}
}

// stoppedErr explains why the machine stopped underneath a blocked
// receive. A transport-level connection failure — a crashed peer
// process, a severed socket — is surfaced as such, wrapping the
// *mpx.PeerError that names the dead neighbor; that is a different
// diagnosis from a collective sequence mismatch (see staleLocked) and
// from an ordinary shutdown caused by some rank erroring out. The scan
// is machine-wide (AnyPeerError), not just this rank's own links:
// every rank stalled as collateral of one dead link gets an error that
// errors.As can unwrap to the *mpx.PeerError, not a bare shutdown.
func (c *Comm) stoppedErr(waitingFor string) error {
	perr := c.nd.PeerError()
	if perr == nil {
		perr = c.nd.AnyPeerError()
	}
	if perr != nil {
		return fmt.Errorf("comm: node %d: connection lost while waiting for %s: %w", c.nd.ID, waitingFor, perr)
	}
	return fmt.Errorf("comm: node %d: machine stopped while waiting for %s", c.nd.ID, waitingFor)
}

// staleLocked reports a queued message (mu held) whose subtag matches
// tag but whose collective sequence is in the past — corruption of the
// lockstep collective stream. The error carries everything a fault
// experiment needs to debug it.
func (c *Comm) staleLocked(tag int) error {
	env, k, ok := c.mailbox.stale(tag)
	if !ok {
		return nil
	}
	return fmt.Errorf("comm: node %d: corrupt collective stream: message from rank %d with tag %#x (subtag %d) carries sequence %d, expected sequence %d",
		c.nd.ID, env.From, k, svc.StreamSub(k), svc.StreamSeq(k), svc.StreamSeq(tag))
}

// tagFor builds this collective's message tag for subtag sub: the
// communicator's (tenant, job) base ORed with the svc codec's
// (sequence, subtag) stream half. Subtags are small (tree index,
// dimension, or rank+1); the 16-bit subtag field has ample headroom.
func (c *Comm) tagFor(sub int) int { return c.base | svc.StreamTag(c.seq, sub) }

// next advances the collective sequence (call exactly once per collective,
// on every node). The bump happens under the mailbox lock — deliver
// files arrivals by the mailbox's current collective — and moves the
// mailbox along with it.
func (c *Comm) next() {
	c.mu.Lock()
	c.seq++
	c.mailbox.advance(c.tagFor(0))
	c.mu.Unlock()
}

// send wraps SendTo with the current collective's tag.
func (c *Comm) send(to cube.NodeID, sub int, parts []mpx.Part) {
	c.nd.SendTo(to, mpx.Message{Tag: c.tagFor(sub), Parts: parts})
}

// enter starts a collective. The caller's claim on what the collective
// before last returned ended with this call, so its held leases go back
// (giveBack), and fenced reports that the send fence ran for them. A
// call that fails its root check returns before it, as if it had not
// been made.
func (c *Comm) enter() (fenced bool) {
	fenced = c.giveBack(c.split)
	c.split = len(c.leases)
	return fenced
}

// hold keeps a received envelope's lease with the current call's
// leases: its bytes are in the result, or in a forward that may still be
// queued. A nil lease — every in-process delivery, a streamed frame — is
// not kept, so nothing here allocates in process.
func (c *Comm) hold(l *mpx.Lease) {
	if l != nil {
		c.leases = append(c.leases, l)
	}
}

// holdForward keeps a lease whose bytes only this call's forwards alias,
// not its result: it goes back at the next call's entry, with the call
// before last's.
func (c *Comm) holdForward(l *mpx.Lease) {
	if l != nil {
		c.leases = slices.Insert(c.leases, c.split, l)
		c.split++
	}
}

// giveBack releases the first n held leases to the transport once
// nothing can read them: the forwards that alias their envelopes, which
// a socket link may have queued by reference, are written out by the
// send-completion fence first (mpx.Node.Settle, as BcastMSBT's post runs
// it). Where the fence cannot vouch for them — a transport without one,
// a failed link — or the communicator is stopped, they are forfeited to
// the garbage collector instead. It reports whether the fence ran and
// held.
func (c *Comm) giveBack(n int) (fenced bool) {
	if n == 0 {
		return false
	}
	if fenced = c.nd.Settle(); fenced {
		c.mu.Lock()
		stopped := c.stopped
		c.mu.Unlock()
		if !stopped {
			release(c.leases[:n])
		}
	}
	c.forfeit(0, n)
	return fenced
}

// release gives leases back to their transports at once.
func release(leases []*mpx.Lease) {
	for _, l := range leases {
		l.Release()
	}
}

// forfeit drops held leases [i, j) without releasing them: their
// envelopes go to the garbage collector with their receive buffers. A
// collective's error exit forfeits what the call held.
func (c *Comm) forfeit(i, j int) {
	k := i + copy(c.leases[i:], c.leases[j:])
	clear(c.leases[k:]) // do not pin the records
	c.leases = c.leases[:k]
}

// forfeitOnError is a collective's deferred error exit (see forfeit).
func (c *Comm) forfeitOnError(err *error) {
	if *err != nil {
		c.forfeit(c.split, len(c.leases))
	}
}

// Bcast distributes data from root to every node along the spanning
// binomial tree; every rank returns the payload (the root passes its own
// data, other ranks pass nil).
//
// The result is read-only. Off the root it is the received message's
// own buffer, and on every rank the forwards down the tree carry the
// same bytes by reference: they may still be queued on a link's flusher,
// or unread in an in-process child's mailbox, when the call returns. A
// caller that wants to modify the payload copies it first; the root must
// likewise leave data alone until the collective has completed
// everywhere. Off the root the result is valid until this
// communicator's second collective after this one, like every
// collective's (DESIGN.md §18, "Who owns the result").
func (c *Comm) Bcast(root cube.NodeID, data []byte) ([]byte, error) {
	if err := c.checkRoot("bcast", root); err != nil {
		return nil, err
	}
	c.enter()
	defer c.next()
	c.kids = sbt.AppendChildren(c.kids[:0], c.n, c.Rank(), root)
	return c.bcastDown(root, c.kids, data)
}

// bcastDown is the way down a tree rooted at root (Bcast, ViewComm.Bcast):
// off the root data arrives on subtag 0, and every rank sends it on to
// its kids.
func (c *Comm) bcastDown(root cube.NodeID, kids []cube.NodeID, data []byte) ([]byte, error) {
	if c.Rank() != root {
		env, err := c.recvTag(c.tagFor(0))
		if err != nil {
			return nil, err
		}
		data = env.Parts[0].Data
		c.hold(env.Lease)
	}
	for _, ch := range kids {
		c.send(ch, 0, []mpx.Part{{Dest: root, Data: data}})
	}
	return data, nil
}

// BcastMSBT distributes data from root down the n edge-disjoint ERSBTs
// (chunk j through tree j, one message per tree), reassembling at every
// rank.
//
// Off the root the call posts a receive (landing.go, DESIGN.md §18): on
// a socket transport a whole-segment chunk is read from the socket
// straight into its place in the buffer this call returns, and is
// forwarded down its tree from there, under the checksum it arrived
// with.
//
// The result is read-only, and off the root it is valid until this
// communicator's second collective after this one, like every
// collective's, or its next BcastMSBT if that comes first: that call
// lands into the same buffer when it is large enough. Copy it to keep
// it. (That call first makes sure every forward aliasing the buffer has
// been written out; see zone.) A chunk that did not land is forwarded
// from the frame it arrived in, which is held like Bcast's.
// The root gets its own data back, which is sent by reference: leave it
// alone until the collective has completed everywhere, as with Bcast.
// The pieces received must tile the payload exactly; anything else is an
// error naming the gap or overlap.
func (c *Comm) BcastMSBT(root cube.NodeID, data []byte) (_ []byte, err error) {
	if err := c.checkRoot("bcastmsbt", root); err != nil {
		return nil, err
	}
	c.enter()
	defer c.next()
	if c.Rank() == root {
		for j := 0; j < c.n; j++ {
			lo, hi := chunkBound(len(data), c.n, j), chunkBound(len(data), c.n, j+1)
			c.send(msbt.RootOf(j, root), j+1, []mpx.Part{{Dest: root, Offset: lo, Data: data[lo:hi]}})
		}
		return data, nil
	}
	// An error exit gives up this sequence's tree tags, as the FT
	// collectives do: a chunk still on its way is dropped on delivery
	// instead of being read by the next call as a corrupt stream.
	defer func() {
		if err != nil {
			for j := 1; j <= c.n; j++ {
				c.abandon(c.tagFor(j))
			}
			c.forfeit(c.split, len(c.leases))
		}
	}()
	// Length is unknown off-root: collect every tree's chunk, landed in
	// place where the link could be told in time, then finish with
	// whatever is not.
	z := c.post(root)
	err = c.collectMSBT(root, z)
	out := c.unpost()
	chunks := z.chunks
	defer clear(chunks) // do not pin the payloads
	if err != nil {
		return nil, err
	}
	// The chunks must tile [0, total): a hole would hand the caller
	// whatever the recycled buffer held before. Empty chunks sort ahead
	// of the one that starts where they sit.
	slices.SortFunc(chunks, func(a, b msbtChunk) int {
		return cmp.Or(cmp.Compare(a.off, b.off), cmp.Compare(len(a.data), len(b.data)))
	})
	total, end := 0, 0
	for _, ck := range chunks {
		total += len(ck.data)
	}
	for _, ck := range chunks {
		if ck.off != end {
			what := "gap"
			if ck.off < end {
				what = "overlap"
			}
			return nil, fmt.Errorf("comm: bcastmsbt at rank %d: %s between byte %d, where the chunks before it end, and chunk [%d,%d): the chunks do not tile the %d-byte payload",
				c.Rank(), what, end, ck.off, ck.off+len(ck.data), total)
		}
		end += len(ck.data)
	}
	if cap(out) < total {
		out = make([]byte, total, total+c.n) // land's slack: the next call may land
	}
	out = out[:total]
	for _, ck := range chunks {
		if len(ck.data) > 0 && &out[ck.off] != &ck.data[0] {
			copy(out[ck.off:], ck.data)
		}
	}
	z.kept = out
	return out, nil
}

// msbtChunk is one received piece of a BcastMSBT payload.
type msbtChunk struct {
	off  int
	data []byte
}

// collectMSBT receives every tree's message into z.chunks, forwarding
// each down its tree as it arrives.
func (c *Comm) collectMSBT(root cube.NodeID, z *zone) error {
	z.chunks = z.chunks[:0]
	for j := 0; j < c.n; j++ {
		env, err := c.recvTag(c.tagFor(j + 1))
		if err != nil {
			return err
		}
		if p, ok := msbt.Parent(c.n, j, c.Rank(), root); !ok || env.From != p {
			return fmt.Errorf("comm: bcastmsbt chunk %d from %d, want tree parent", j, env.From)
		}
		// Same tag, same parts: the forward is the frame that came in,
		// checksum included — out of the result, where a chunk that
		// arrived in scratch is copied first.
		c.unscratch(z, j, env.Parts)
		z.kids = msbt.AppendChildren(z.kids[:0], c.n, j, c.Rank(), root)
		for _, ch := range z.kids {
			c.nd.ForwardTo(ch, env)
		}
		for _, p := range env.Parts {
			z.chunks = append(z.chunks, msbtChunk{p.Offset, p.Data})
		}
		c.hold(env.Lease)
	}
	return nil
}

// chunkBound is where chunk j of n nearly equal contiguous chunks of a
// length-l payload starts (chunk j ends where chunk j+1 starts).
func chunkBound(l, n, j int) int { return j * l / n }

// Scatter delivers data[i] from root to rank i along the balanced
// spanning tree (the paper's personalized communication). Only the root's
// data argument is consulted; every rank returns its own payload.
//
// Each subtree's data travels as one message, a bundle laid out by the
// contract on rootRoute; a relay forwards sub-slices of the bundle it
// received, so the parts a rank sees are read-only views of the root's.
//
// The result is read-only. Off the root it is valid until this
// communicator's second collective after this one, so it may be passed
// as the next call's input; copy it to keep it longer. In process it
// aliases the root's data; on sockets it is a copy in a buffer of the
// communicator's, and the receive buffer the bundle arrived in goes
// back to the transport at the next call (DESIGN.md §18, "Who owns the
// result"). The root gets its own data[root] back.
func (c *Comm) Scatter(root cube.NodeID, data [][]byte) ([]byte, error) {
	if err := c.checkRoot("scatter", root); err != nil {
		return nil, err
	}
	fenced := c.enter()
	defer c.next()
	rt := c.route(root)
	if c.Rank() == root {
		if len(data) != c.Size() {
			return nil, fmt.Errorf("comm: scatter needs %d payloads, got %d", c.Size(), len(data))
		}
		c.relay(rt, bundle(make([]mpx.Part, 0, len(rt.want)), rt.want, data), 0)
		return data[root], nil
	}
	env, err := c.recvTag(c.tagFor(0))
	if err != nil {
		return nil, err
	}
	if err := c.checkBundle(rt, env.Parts, "scatter"); err != nil {
		return nil, err
	}
	c.relay(rt, env.Parts, 0)
	if env.Lease == nil {
		return env.Parts[0].Data, nil
	}
	// Only the forwards alias the bundle's record now, so it goes back at
	// the next call; the result lasts two calls, like every result, in a
	// buffer of the communicator's, reused two Scatters later behind the
	// fence.
	c.holdForward(env.Lease)
	s := c.scatter
	if s == nil {
		s = new(scatterState)
		c.scatter = s
	}
	p := s.calls & 1
	s.calls++
	if !fenced && !c.nd.Settle() {
		s.own[p] = nil
	}
	s.own[p] = append(s.own[p][:0], env.Parts[0].Data...)
	return s.own[p], nil
}

// scatterState is what Scatter keeps between calls off the root on a
// socket transport: the buffers its results are copied into out of their
// receive records, double-buffered by call parity and reused only where
// the send fence vouches that no link still reads them
// (mpx.Node.Settle).
type scatterState struct {
	own   [2][]byte
	calls int
}

// bundle cuts a tree root's whole bundle — a part for every node, in the
// tree's preorder — out of the root's per-rank payloads and appends it
// to parts.
func bundle(parts []mpx.Part, preorder []cube.NodeID, data [][]byte) []mpx.Part {
	for _, d := range preorder {
		parts = append(parts, mpx.Part{Dest: d, Data: data[d]})
	}
	return parts
}

// rootRoute is this rank's place in the BST rooted at one rank, and with
// it the layout of every bundle Scatter and AllToAll send down that tree.
// The bundle a rank receives holds exactly one part per node of its
// subtree, in the tree's preorder with children visited in port order:
// part i is for want[i], so part 0 is the rank's own and child i's whole
// bundle is the contiguous run [bound[i], bound[i+1]). A tree's root
// holds the same thing, cut once from its caller's payloads. Relaying is
// therefore slicing: nothing is counted, bucketed or copied at any hop.
type rootRoute struct {
	children []cube.NodeID // in port order
	want     []cube.NodeID // this rank's subtree in preorder (a shared view)
	bound    []int         // len(children)+1 run bounds; bound[0] == 1
}

// route returns the (lazily built, per-communicator) rootRoute for the
// BST rooted at r, backed by the process-wide canonical tree cache.
func (c *Comm) route(r cube.NodeID) *rootRoute {
	if c.routes == nil {
		c.routes = make([]*rootRoute, c.Size())
	}
	if rt := c.routes[r]; rt != nil {
		return rt
	}
	tr := bst.Cached(c.n, r)
	me := c.Rank()
	rt := &rootRoute{children: tr.Children(me), want: tr.SubtreeNodes(me)}
	rt.bound = make([]int, len(rt.children)+1)
	rt.bound[0] = 1
	for i, ch := range rt.children {
		rt.bound[i+1] = rt.bound[i] + tr.SubtreeSize(ch)
	}
	c.routes[r] = rt
	return rt
}

// checkBundle holds an arriving bundle to rt's layout, part for part. A
// part for a node outside this rank's subtree, a missing or repeated
// part, this rank's own part anywhere but first and children's runs out
// of port order all fail here, before anything is forwarded; the error
// names the first offending destination.
func (c *Comm) checkBundle(rt *rootRoute, parts []mpx.Part, op string) error {
	n := min(len(parts), len(rt.want))
	for i, pt := range parts[:n] {
		if pt.Dest != rt.want[i] {
			return fmt.Errorf("comm: %s bundle at rank %d: part %d is for %d, want %d (its subtree in preorder)",
				op, c.Rank(), i, pt.Dest, rt.want[i])
		}
	}
	if len(parts) > n {
		return fmt.Errorf("comm: %s bundle at rank %d: part %d, for %d, is past the %d of its subtree",
			op, c.Rank(), n, parts[n].Dest, n)
	}
	if len(rt.want) > n {
		return fmt.Errorf("comm: %s bundle at rank %d: ends after %d of %d parts, before the one for %d",
			op, c.Rank(), n, len(rt.want), rt.want[n])
	}
	return nil
}

// forward sends child i of rt its run of a bundle laid out as rt.want —
// a sub-slice, which the send may hold by reference.
func (c *Comm) forward(rt *rootRoute, parts []mpx.Part, i, sub int) {
	c.send(rt.children[i], sub, parts[rt.bound[i]:rt.bound[i+1]])
}

// relay forwards every child's run on arrival (Scatter, AllToAll).
func (c *Comm) relay(rt *rootRoute, parts []mpx.Part, sub int) {
	for i := range rt.children {
		c.forward(rt, parts, i, sub)
	}
}

// Gather collects every rank's payload at root along the balanced
// spanning tree; the root returns all payloads indexed by rank, others
// return nil. The root's table is new every call. Its entries are
// read-only; those that came over a socket are the root's own copies,
// and in process they are the senders' slices.
func (c *Comm) Gather(root cube.NodeID, mine []byte) ([][]byte, error) {
	if err := c.checkRoot("gather", root); err != nil {
		return nil, err
	}
	c.enter()
	defer c.next()
	p, ok := bst.Parent(c.n, c.Rank(), root)
	return c.gatherUp(p, ok, len(bst.Children(c.n, c.Rank(), root)), mine)
}

// gatherUp is the way up a tree (Gather, ViewComm.Gather): the kids'
// parts come up on subtag 0 and go on to parent (ok false at the root,
// which files them by rank) with this rank's own. A relay's forward
// aliases what it received, which it holds; the root copies what came
// in receive records out of them and gives them back at once.
func (c *Comm) gatherUp(parent cube.NodeID, ok bool, kids int, mine []byte) (_ [][]byte, err error) {
	defer c.forfeitOnError(&err)
	parts := []mpx.Part{{Dest: c.Rank(), Data: mine}}
	for range kids {
		env, err := c.recvTag(c.tagFor(0))
		if err != nil {
			return nil, err
		}
		parts = append(parts, env.Parts...)
		c.hold(env.Lease)
	}
	if ok {
		c.send(parent, 0, parts)
		return nil, nil
	}
	if len(c.leases) > c.split {
		copyOut(parts[1:])
		release(c.leases[c.split:])
		c.forfeit(c.split, len(c.leases))
	}
	out := make([][]byte, c.Size())
	for _, pt := range parts {
		out[pt.Dest] = pt.Data
	}
	return out, nil
}

// copyOut moves the parts' payloads into one new buffer of their own.
func copyOut(parts []mpx.Part) {
	n := 0
	for _, pt := range parts {
		n += len(pt.Data)
	}
	buf := make([]byte, 0, n)
	for i, pt := range parts {
		at := len(buf)
		buf = append(buf, pt.Data...)
		parts[i].Data = buf[at:len(buf):len(buf)]
	}
}

// Reduce folds every rank's contribution to the root along the spanning
// binomial tree with the associative op; the root returns the result,
// others return nil. op folds b into a and returns the result; it may
// not keep b, which is a received message's buffer and is given back
// to the transport as soon as op returns.
func (c *Comm) Reduce(root cube.NodeID, mine []byte, op func(a, b []byte) []byte) ([]byte, error) {
	if err := c.checkRoot("reduce", root); err != nil {
		return nil, err
	}
	c.enter()
	defer c.next()
	c.kids = sbt.AppendChildren(c.kids[:0], c.n, c.Rank(), root)
	acc, err := c.reduceUp(len(c.kids), append([]byte(nil), mine...), op)
	if p, ok := sbt.Parent(c.n, c.Rank(), root); ok && err == nil {
		// A non-root returns at once, so acc, fresh, is sent as is.
		c.send(p, 0, []mpx.Part{{Dest: root, Data: acc}})
		return nil, nil
	}
	return acc, err
}

// reduceUp is the way up a tree (Reduce, both AllReduces): it folds into
// acc the contributions of this rank's kids children, up on subtag 0,
// and gives each envelope back once op has read it.
func (c *Comm) reduceUp(kids int, acc []byte, op func(a, b []byte) []byte) ([]byte, error) {
	for range kids {
		env, err := c.recvTag(c.tagFor(0))
		if err != nil {
			return nil, err
		}
		acc = op(acc, env.Parts[0].Data)
		env.Lease.Release()
	}
	return acc, nil
}

// AllReduce folds every rank's contribution and returns the result on
// every rank: a reduce up the spanning binomial tree rooted at rank 0,
// then a broadcast of the result back down it — 2(N−1) messages, where a
// dimension exchange sends N·log N. op must be associative and
// commutative, and may not keep b (see Reduce). The result is the
// caller's, and a warm call allocates nothing else: the accumulator is
// scratch, the sends ride the parity sets (see the dxSent field).
func (c *Comm) AllReduce(mine []byte, op func(a, b []byte) []byte) ([]byte, error) {
	c.enter()
	defer c.next()
	p, ok := sbt.Parent(c.n, c.Rank(), 0)
	c.kids = sbt.AppendChildren(c.kids[:0], c.n, c.Rank(), 0)
	return c.allReduce(0, p, ok, c.kids, mine, op)
}

// allReduce is AllReduce over a tree rooted at root where this rank has
// parent (ok false at the root) and kids: the fold goes up on subtag 0,
// the root sends the result down on subtag 1, and every other rank
// forwards the envelope it received to its kids.
func (c *Comm) allReduce(root, parent cube.NodeID, ok bool, kids []cube.NodeID, mine []byte, op func(a, b []byte) []byte) ([]byte, error) {
	set := c.exchangeSet()
	acc, err := c.reduceUp(len(kids), c.scratch(mine), op)
	if err != nil {
		return nil, err
	}
	if !ok {
		set[1] = mpx.Part{Dest: root, Data: append(set[1].Data[:0], acc...)}
		for _, ch := range kids {
			c.send(ch, 1, set[1:2])
		}
		// The result must outlive the scratch, which the next call reuses.
		return append([]byte(nil), acc...), nil
	}
	set[0] = mpx.Part{Dest: root, Data: append(set[0].Data[:0], acc...)}
	c.send(parent, 0, set[0:1])
	env, err := c.recvTag(c.tagFor(1))
	if err != nil {
		return nil, err
	}
	for _, ch := range kids {
		c.nd.ForwardTo(ch, env)
	}
	c.hold(env.Lease)
	return append([]byte(nil), env.Parts[0].Data...), nil
}

// Scan returns the inclusive prefix combine(x_0, ..., x_rank) on every
// rank, by dimension exchange, which prefix order needs. op must be
// associative (need not be commutative), and may not keep b (see
// Reduce). Like AllReduce, a warm call allocates only the result it
// returns.
func (c *Comm) Scan(mine []byte, op func(a, b []byte) []byte) ([]byte, error) {
	c.enter()
	defer c.next()
	set := c.exchangeSet()
	prefix, total := c.scratch(mine), c.scratch(mine)
	for d := 0; d < c.n; d++ {
		env, err := c.exchange(set, d, total)
		if err != nil {
			return nil, err
		}
		// op folds into its first argument, which must not be the
		// neighbor's snapshot: where that comes first, a copy does.
		other := env.Parts[0].Data
		if c.Rank()&(1<<uint(d)) != 0 {
			prefix = op(c.scratch(other), prefix)
			total = op(c.scratch(other), total)
		} else {
			total = op(total, other)
		}
		env.Lease.Release()
	}
	return append([]byte(nil), prefix...), nil
}

// Barrier blocks until every rank has entered it (an AllReduce of empty
// payloads: up the tree and back down).
func (c *Comm) Barrier() error {
	_, err := c.AllReduce([]byte{}, func(a, b []byte) []byte { return a })
	return err
}

// exchangeSet starts an AllReduce or Scan call: it returns the call's
// parity set of sent parts (max(n, 2)) and empties the scratch.
func (c *Comm) exchangeSet() []mpx.Part {
	p := c.dxCalls & 1
	c.dxCalls++
	if len(c.dxSent[p]) < max(c.n, 2) { // first use, or the cube has grown (elastic.go)
		c.dxSent[p] = make([]mpx.Part, max(c.n, 2))
	}
	c.dxScratch = c.dxScratch[:0]
	return c.dxSent[p]
}

// exchange is dimension-exchange step d: it sends a snapshot of b to the
// dim-d neighbor in set's part d and returns the envelope of the
// neighbor's snapshot, which is read-only.
func (c *Comm) exchange(set []mpx.Part, d int, b []byte) (mpx.Envelope, error) {
	set[d] = mpx.Part{Dest: c.Rank(), Data: append(set[d].Data[:0], b...)}
	c.nd.Send(d, mpx.Message{Tag: c.tagFor(d), Parts: set[d : d+1]})
	return c.recvTag(c.tagFor(d))
}

// scratch copies b into the call's private scratch, a bump region that
// exchangeSet empties. The copy's capacity ends at its length, so an op
// that appends to it reallocates instead of running into the next copy;
// copies handed out before the scratch grows keep the old array.
func (c *Comm) scratch(b []byte) []byte {
	n := len(c.dxScratch)
	c.dxScratch = append(c.dxScratch, b...)
	return c.dxScratch[n:len(c.dxScratch):len(c.dxScratch)]
}

// AllGather returns every rank's payload on every rank, running N
// concurrent balanced-spanning-tree broadcasts (one rooted at each rank).
// A rank sends its own payload to its tree's children first, then
// forwards every other payload down that payload's tree the moment it
// arrives (subtag r+1 is the tree rooted at rank r).
//
// The table returned belongs to the communicator, and like every
// collective's result it is valid until this communicator's second
// collective after this one; the second AllGather after it refills it.
// Its entries are read-only, like Bcast's result: the forwards alias
// them.
func (c *Comm) AllGather(mine []byte) (_ [][]byte, err error) {
	c.enter()
	defer c.next()
	defer c.forfeitOnError(&err)
	a, own, p := c.allNode()
	defer clear(a.held)
	me := c.Rank()
	out := a.table(&a.gathered, p)
	out[me] = mine
	own = append(own, mpx.Part{Dest: me, Data: mine})
	for _, ch := range c.route(me).children {
		c.send(ch, int(me)+1, own)
	}
	for seen := 1; seen < c.Size(); seen++ {
		env, err := c.recvTag(anyTag)
		if err != nil {
			return nil, err
		}
		r, err := c.source(env, "allgather")
		if err != nil {
			return nil, err
		}
		if a.held[r] != nil {
			return nil, dupErr("allgather", int(r))
		}
		a.held[r], out[r] = env.Parts, env.Parts[0].Data
		c.hold(env.Lease)
		for _, ch := range c.route(r).children {
			c.send(ch, int(r)+1, env.Parts)
		}
	}
	return out, nil
}

// allNode is what AllGather and AllToAll keep between calls. The first
// of them makes it, and it is made again when the cube grows
// (elastic.go).
//
// own holds this rank's own-tree parts, double-buffered by call parity
// (calls&1, one count for both collectives): AllToAll's whole bundle,
// or AllGather's one part. Sent parts are held by reference in process
// and by ranks sharing an endpoint, and every rank forwards runs of
// them on down the tree, so they are reused two calls later and no
// sooner. Two calls is enough: before call k+2 reuses the parity-k
// array, this rank has completed call k+1, which took a message from
// every other rank's tree; each rank started its tree only after it had
// finished call k, so every envelope of call k has been consumed. held
// files each source's arriving parts for the duplicate check (and
// AllToAll's relaying) and is all nil between calls. gathered and
// scattered are the tables the collectives return, double-buffered by
// the same parity so that a table outlives the communicator's next call,
// and made on first use (table).
type allNode struct {
	calls               int
	own                 [2][]mpx.Part
	held                [][]mpx.Part
	gathered, scattered [2][][]byte
}

// allNode returns the communicator's all-node state, this call's
// own-tree array, empty, to append the parts to, and the call's parity,
// which picks its result table.
func (c *Comm) allNode() (*allNode, []mpx.Part, int) {
	N := c.Size()
	a := c.all
	if a == nil || len(a.held) != N {
		a = &allNode{
			own:  [2][]mpx.Part{make([]mpx.Part, 0, N), make([]mpx.Part, 0, N)},
			held: make([][]mpx.Part, N),
		}
		c.all = a
		// Room for a call's arrivals and the next one's early ones, now
		// rather than at the ready queue's high-water mark in a later call.
		c.mu.Lock()
		c.mailbox.ready = slices.Grow(c.mailbox.ready, 2*N)
		c.mu.Unlock()
	}
	p := a.calls & 1
	a.calls++
	return a, a.own[p], p
}

// table returns ts's result table for parity p, made on first use.
func (a *allNode) table(ts *[2][][]byte, p int) [][]byte {
	if ts[p] == nil {
		ts[p] = make([][]byte, len(a.held))
	}
	return ts[p]
}

// source names the tree an all-node envelope travels: subtag r+1 is the
// BST rooted at rank r. A subtag naming no other rank — some rank ran a
// different collective at this sequence number — fails like the second
// message of one tree, which the callers check for.
func (c *Comm) source(env mpx.Envelope, op string) (cube.NodeID, error) {
	r := svc.StreamSub(env.Tag) - 1
	if r < 0 || r >= c.Size() || cube.NodeID(r) == c.Rank() {
		return 0, dupErr(op, r)
	}
	return cube.NodeID(r), nil
}

func dupErr(op string, r int) error {
	return fmt.Errorf("comm: duplicate %s payload from %d", op, r)
}

// AllToAll delivers mine[d] to rank d for every pair, over N concurrent
// balanced-tree scatters. Returns got[r] = payload received from rank r.
// Like AllGather, a rank relays its own tree's bundle first and every
// other bundle on arrival; bundles follow Scatter's layout (see
// rootRoute), so each child's run goes out as a sub-slice.
//
// The table returned belongs to the communicator, and like every
// collective's result it is valid until this communicator's second
// collective after this one; the second AllToAll after it refills it.
// Its entries are read-only views of the senders' payloads, as
// Scatter's result is, and on sockets of the receive buffers they
// arrived in, given back behind the same fence: copy an entry to keep
// it longer.
func (c *Comm) AllToAll(mine [][]byte) (_ [][]byte, err error) {
	c.enter()
	defer c.next()
	if len(mine) != c.Size() {
		return nil, fmt.Errorf("comm: alltoall needs %d payloads, got %d", c.Size(), len(mine))
	}
	defer c.forfeitOnError(&err)
	a, own, p := c.allNode()
	held := a.held
	defer clear(held)
	me := c.Rank()
	rt := c.route(me)
	held[me] = bundle(own, rt.want, mine)
	out := a.table(&a.scattered, p)
	out[me] = mine[me]
	c.relay(rt, held[me], int(me)+1)
	for n := 1; n < c.Size(); n++ {
		r, err := c.recvBundle(held, out)
		if err != nil {
			return nil, err
		}
		c.relay(c.route(r), held[r], int(r)+1)
	}
	return out, nil
}

// recvBundle receives the next all-to-all bundle from any tree, checks
// it against that tree's layout and files it: the whole bundle in
// held[r], to forward runs of, and its first part in out[r].
func (c *Comm) recvBundle(held [][]mpx.Part, out [][]byte) (cube.NodeID, error) {
	env, err := c.recvTag(anyTag)
	if err != nil {
		return 0, err
	}
	r, err := c.source(env, "alltoall")
	if err != nil {
		return 0, err
	}
	if held[r] != nil {
		return 0, dupErr("alltoall", int(r))
	}
	if err := c.checkBundle(c.route(r), env.Parts, "alltoall"); err != nil {
		return 0, err
	}
	held[r], out[r] = env.Parts, env.Parts[0].Data
	c.hold(env.Lease)
	return r, nil
}
