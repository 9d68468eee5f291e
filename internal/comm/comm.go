// Package comm is an MPI-style communicator for the Boolean-cube
// runtime: user code runs as one program per node and calls collective
// operations from inside, exactly as it would against a message-passing
// library on the iPSC. The collectives are the paper's: binomial-tree
// broadcast (SBT), multi-tree broadcast (MSBT), balanced-tree
// personalized communication (BST scatter/gather), plus tree reduction,
// dimension-exchange all-reduce, prefix scan, and all-gather/all-to-all
// over N concurrent balanced trees.
//
// Collective calls must be made by every node in the same order (the MPI
// rule); each call is sequence-stamped, and a mismatched message is
// reported as corruption rather than mis-delivered. Every communicator
// attaches an unbounded tag-matched mailbox to its node's inbox — the
// delivering goroutine files each message straight into it — so a slow
// participant can never deadlock a fast neighbor.
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
	// communicator sends (svc.Base); key is its svc.JobKey. Standalone
	// communicators (Run, RunTCP, ...) use base 0 — the legacy tag
	// space — while job-attached communicators carry their job's slice.
	base int
	key  int

	// deadline, when nonzero, bounds every blocking receive inside the
	// plain collectives (see SetDeadline).
	deadline time.Duration

	// routes caches, per tree root, this rank's place in that root's BST
	// (see route). held is AllToAll's per-source table of whole bundles,
	// made by the first call and all nil between calls. Both are touched
	// only from the rank's own goroutine, like seq.
	routes []*rootRoute
	held   [][]mpx.Part

	// AllReduce's dimension-exchange send buffers, double-buffered by
	// call parity (arCalls&1). A sent buffer is held by reference by
	// in-flight envelopes (in-process delivery) and pending writev
	// queues (sockets), and a neighbor may lag a whole collective
	// behind, so same-call or next-call reuse would corrupt its unread
	// inbox. Two calls is provably enough distance: before call k+2
	// touches parity-k buffers, this rank has completed call k+1, which
	// required every neighbor to finish call k — consuming every
	// parity-k envelope this rank sent. arAcc is the private
	// accumulator seed per parity, never sent. Touched only from the
	// rank's own goroutine, like seq.
	arCalls int
	arBufs  [2][][]byte
	arAcc   [2][]byte

	mu        sync.Mutex
	cond      *sync.Cond
	mailbox   map[int][]mpx.Envelope // tag -> queued envelopes
	free      [][]mpx.Envelope       // drained queues, recycled by deliver
	abandoned map[int]bool           // tags given up on by FT collectives
	stopped   bool

	// ready is a FIFO of mailbox tags with queued envelopes belonging to
	// the CURRENT collective sequence, one entry per envelope, in arrival
	// order. recvTagAnyRoot pops ready[readyHead] — O(1) per wakeup instead
	// of rescanning the whole mailbox map in nondeterministic order — and
	// rewinds to the front of the array once the queue drains, so deliver's
	// append keeps reusing one backing array.
	// deliver appends matching arrivals; next() reseeds it from the mailbox
	// for envelopes that arrived early (a neighbor running ahead).
	// Entries can go stale when another receive path drains the same tag;
	// the pop validates against the mailbox before trusting one.
	ready     []int
	readyHead int

	// interrupt, when non-nil, fails every blocking receive immediately —
	// the elastic runtime sets it (with a *member.ViewChangedError) when
	// the membership view advances under an epoch-pinned collective.
	// Guarded by mu.
	interrupt error

	// zone is BcastMSBT's posted receive (landing.go), made by the first
	// call off the root. The pointer and what it points to are guarded by
	// mu, but for the two fields zone marks as the rank's own.
	zone *zone
}

// newComm builds a communicator over nd whose tags live in the
// (tenant, job) slice encoded by base and attaches its mailbox to the
// envelope stream: attach is the node's inbox (nd.Attach) for a
// standalone communicator, the job's dispatcher hook for a job's.
func newComm(nd *mpx.Node, n, base int, attach func(mpx.Consumer)) *Comm {
	c := &Comm{
		nd: nd, n: n, base: base, key: svc.JobKeyOf(base),
		mailbox:   map[int][]mpx.Envelope{},
		abandoned: map[int]bool{},
	}
	c.cond = sync.NewCond(&c.mu)
	attach(mpx.Consumer{Sink: c.deliver, Closed: c.stop, Land: c.land})
	return c
}

// DeadlineError reports a collective receive that outlived the deadline
// set with SetDeadline: the awaited peer is silent but no transport
// failure was recorded — a hang turned into a deterministic, named
// failure.
type DeadlineError struct {
	// Rank is the waiting node; Op names what it was waiting for.
	Rank cube.NodeID
	Op   string
	// Wait is the deadline that expired.
	Wait time.Duration
}

func (e *DeadlineError) Error() string {
	return fmt.Sprintf("comm: node %d: collective deadline (%v) expired waiting for %s", e.Rank, e.Wait, e.Op)
}

// RootError reports a rooted collective (Bcast, BcastMSBT, Scatter,
// Gather, Reduce, BcastFT, ScatterFT) called with a root outside the
// cube. Every rank returns it at entry, before sending anything or
// advancing the collective sequence, so the communicator's next
// collective runs as if the call had not been made.
type RootError struct {
	Op   string
	Root cube.NodeID
	Size int
}

func (e *RootError) Error() string {
	return fmt.Sprintf("comm: %s: root %d outside the %d ranks", e.Op, e.Root, e.Size)
}

// checkRoot is every rooted collective's entry check.
func (c *Comm) checkRoot(op string, root cube.NodeID) error {
	if int(root) < c.Size() {
		return nil
	}
	return &RootError{Op: op, Root: root, Size: c.Size()}
}

// SetDeadline bounds every blocking receive inside the plain
// collectives (Bcast, Scatter, Gather, Barrier, ...): a rank stuck on a
// silent — not severed, just silent — peer fails with a *DeadlineError
// after d instead of blocking forever. Zero restores the default
// (block indefinitely; transport failures still abort). Set it between
// collectives, not concurrently with one; it does not apply to the
// fault-tolerant collectives, which take explicit FTOptions timeouts.
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

// TCPRunOptions tunes RunTCPWith beyond the plain RunTCP defaults.
type TCPRunOptions struct {
	// Resilience configures self-healing links on every endpoint.
	Resilience transport.ResilienceOptions
	// Chaos, when non-nil, starts one chaos agent per endpoint (seeded
	// Seed, Seed+1, ...) after the mesh connects and stops them when the
	// run ends.
	Chaos *transport.ChaosOptions
	// Deadline, when nonzero, is set on every rank's communicator
	// (Comm.SetDeadline) before the program runs.
	Deadline time.Duration
	// StatsSink, when non-nil, receives the transport counters summed
	// across all endpoints after the run finishes — the delivered-payload
	// numbers benchmarks derive goodput from.
	StatsSink func(mpx.TransportStats)
	// Network picks the socket family for every endpoint: "tcp"
	// (default, loopback) or "unix" (Unix-domain sockets; see
	// transport.NewUDS).
	Network string
}

// RunTCP is Run with every cube link carried over a loopback TCP
// socket: one transport endpoint per node, connected into a full cube
// mesh, one machine per endpoint — the single-process twin of a
// multi-process `hypercomm launch` deployment. Collective programs run
// unchanged; only the transport underneath differs.
func RunTCP(n int, program func(c *Comm) error) error {
	return RunTCPWith(n, TCPRunOptions{}, program)
}

// RunUDS is RunTCP with every cube link carried over a Unix-domain
// socket instead of loopback TCP: the same wire protocol and framing,
// minus the TCP/IP stack — the transport `hypercomm serve` picks
// automatically for same-host deployments.
func RunUDS(n int, program func(c *Comm) error) error {
	return RunTCPWith(n, TCPRunOptions{Network: "unix"}, program)
}

// RunUDSWith is RunTCPWith over Unix-domain sockets.
func RunUDSWith(n int, opt TCPRunOptions, program func(c *Comm) error) error {
	opt.Network = "unix"
	return RunTCPWith(n, opt, program)
}

// RunTCPWith is RunTCP with self-healing links, chaos injection and
// per-collective deadlines available — the in-process harness the
// robustness tests drive.
func RunTCPWith(n int, opt TCPRunOptions, program func(c *Comm) error) error {
	size := 1 << uint(n)
	trs, err := loopbackMesh(n, opt, nil)
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
	run := program
	if opt.Deadline > 0 {
		run = func(c *Comm) error {
			c.SetDeadline(opt.Deadline)
			return program(c)
		}
	}
	errs := make(chan error, size)
	for _, tr := range trs {
		go func(tr *transport.TCP) {
			errs <- RunOn(mpx.NewWithTransport(tr, nil), run)
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

// loopbackMesh binds one endpoint per rank of an n-cube on loopback
// sockets, configured from opt (cls, when non-nil, meters payload per
// job), and connects the mesh; on error nothing is left open.
func loopbackMesh(n int, opt TCPRunOptions, cls mpx.JobClassifier) ([]*transport.TCP, error) {
	size := 1 << uint(n)
	trs := make([]*transport.TCP, 0, size)
	peers := make([]string, size)
	fail := func(err error) ([]*transport.TCP, error) {
		closeAll(trs)
		return nil, err
	}
	for i := range peers {
		tr, err := transport.NewTCP(transport.TCPOptions{
			Dim: n, Locals: []cube.NodeID{cube.NodeID(i)}, Depth: CollectiveDepth(n),
			Resilience: opt.Resilience, Network: opt.Network, Classifier: cls,
		})
		if err != nil {
			return fail(err)
		}
		trs = append(trs, tr)
		peers[i] = tr.Addr()
	}
	var wg sync.WaitGroup
	connErrs := make([]error, size)
	for i, tr := range trs {
		wg.Add(1)
		go func(i int, tr *transport.TCP) {
			defer wg.Done()
			connErrs[i] = tr.Connect(peers)
		}(i, tr)
	}
	wg.Wait()
	for _, err := range connErrs {
		if err != nil {
			return fail(err)
		}
	}
	return trs, nil
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
// straggler can never pass for corruption of a later collective.
func (c *Comm) deliver(env mpx.Envelope) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.stopped || c.abandoned[env.Tag] {
		return
	}
	if z := c.zone; z != nil {
		z.shut(env.Tag)
	}
	q, ok := c.mailbox[env.Tag]
	if n := len(c.free); !ok && n > 0 {
		q, c.free = c.free[n-1], c.free[:n-1]
	}
	c.mailbox[env.Tag] = append(q, env)
	if svc.JobKeyOf(env.Tag) == c.key && svc.StreamSeq(env.Tag) == c.seq {
		c.ready = append(c.ready, env.Tag)
	}
	c.cond.Broadcast()
}

// popLocked takes the oldest envelope queued under tag (mu held). A
// drained queue's slice joins the free list, so the usual one message
// per tag allocates nothing once warm.
func (c *Comm) popLocked(tag int) (mpx.Envelope, bool) {
	q := c.mailbox[tag]
	if len(q) == 0 {
		return mpx.Envelope{}, false
	}
	env := q[0]
	q[0] = mpx.Envelope{} // do not pin the payload
	if len(q) > 1 {
		c.mailbox[tag] = q[1:]
	} else {
		delete(c.mailbox, tag)
		c.free = append(c.free, q[:0])
	}
	return env, true
}

// stop fails blocked receives with stoppedErr and drops later
// deliveries; it is also the attach hook's closed callback.
func (c *Comm) stop() {
	c.mu.Lock()
	c.stopped = true
	c.cond.Broadcast()
	c.mu.Unlock()
}

// recvTag blocks until a message with the given tag is available. A
// queued message carrying the same subtag but a PAST collective sequence
// is a corrupted collective stream (some rank is running collectives out
// of order) and fails hard with full provenance: sender rank, raw tag,
// and expected vs. actual sequence. Future-sequence messages are normal —
// a neighbor may legitimately run ahead — and stragglers from abandoned
// fault-tolerant collectives never reach the mailbox (see deliver).
func (c *Comm) recvTag(tag int) (mpx.Envelope, error) {
	if d := c.deadline; d > 0 {
		env, ok, err := c.recvTagWait(tag, d)
		if err != nil {
			return env, err
		}
		if !ok {
			return env, c.deadlineErr(fmt.Sprintf("tag %d", tag), d)
		}
		return env, nil
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	for {
		if env, ok := c.popLocked(tag); ok {
			return env, nil
		}
		if err := c.staleLocked(tag); err != nil {
			return mpx.Envelope{}, err
		}
		if err := c.interrupt; err != nil {
			// The view changed under an epoch-pinned collective: fail now
			// rather than block on peers that have moved to a new epoch.
			return mpx.Envelope{}, err
		}
		if c.stopped {
			return mpx.Envelope{}, c.stoppedErr(fmt.Sprintf("tag %d", tag))
		}
		c.cond.Wait()
	}
}

// deadlineErr explains an expired collective deadline. A connection
// loss anywhere on the machine is the better diagnosis — it names the
// dead peer — so it takes precedence over the bare timeout.
func (c *Comm) deadlineErr(waitingFor string, d time.Duration) error {
	if perr := c.nd.AnyPeerError(); perr != nil {
		return fmt.Errorf("comm: node %d: deadline (%v) expired waiting for %s after a connection loss: %w",
			c.nd.ID, d, waitingFor, perr)
	}
	return &DeadlineError{Rank: c.nd.ID, Op: waitingFor, Wait: d}
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

// staleLocked scans the mailbox (mu held) for a message whose subtag
// matches tag but whose collective sequence is in the past — corruption
// of the lockstep collective stream. The error carries everything a fault
// experiment needs to debug it.
func (c *Comm) staleLocked(tag int) error {
	sub, seq := svc.StreamSub(tag), svc.StreamSeq(tag)
	for k, q := range c.mailbox {
		if len(q) > 0 && svc.JobKeyOf(k) == c.key && svc.StreamSub(k) == sub && svc.StreamSeq(k) < seq {
			env := q[0]
			return fmt.Errorf("comm: node %d: corrupt collective stream: message from rank %d with tag %#x (subtag %d) carries sequence %d, expected sequence %d",
				c.nd.ID, env.From, k, sub, svc.StreamSeq(k), seq)
		}
	}
	return nil
}

// tagFor builds this collective's message tag for subtag sub: the
// communicator's (tenant, job) base ORed with the svc codec's
// (sequence, subtag) stream half. Subtags are small (tree index,
// dimension, or rank+1); svc.MaxSub of headroom is ample.
func (c *Comm) tagFor(sub int) int { return c.base | svc.StreamTag(c.seq, sub) }

// next advances the collective sequence (call exactly once per collective,
// on every node). The bump happens under the mailbox lock — deliver
// compares arrival tags against seq — and reseeds the ready queue with
// envelopes of the new sequence that arrived early.
func (c *Comm) next() {
	c.mu.Lock()
	c.seq++
	c.reseedLocked()
	c.mu.Unlock()
}

// reseedLocked rebuilds the ready queue for the current sequence from
// the mailbox: one scan per collective, so the per-wakeup receive path
// stays O(1). Early arrivals lose their exact arrival order here (the
// map does not remember it); everything arriving after this point is
// appended by deliver in true order.
func (c *Comm) reseedLocked() {
	c.ready, c.readyHead = c.ready[:0], 0
	for tag, q := range c.mailbox {
		if svc.JobKeyOf(tag) == c.key && svc.StreamSeq(tag) == c.seq {
			for range q {
				c.ready = append(c.ready, tag)
			}
		}
	}
}

// send wraps SendTo with the current collective's tag.
func (c *Comm) send(to cube.NodeID, sub int, parts []mpx.Part) {
	c.nd.SendTo(to, mpx.Message{Tag: c.tagFor(sub), Parts: parts})
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
// everywhere.
func (c *Comm) Bcast(root cube.NodeID, data []byte) ([]byte, error) {
	if err := c.checkRoot("bcast", root); err != nil {
		return nil, err
	}
	defer c.next()
	if c.Rank() != root {
		env, err := c.recvTag(c.tagFor(0))
		if err != nil {
			return nil, err
		}
		data = env.Parts[0].Data
	}
	for _, ch := range sbt.Children(c.n, c.Rank(), root) {
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
// The result is read-only, and off the root it is valid only until this
// communicator's next BcastMSBT, which lands into the same buffer when
// it is large enough: copy it to keep it. (That call first makes sure
// every forward aliasing the buffer has been written out; see zone.)
// The root gets its own data back, which is sent by reference: leave it
// alone until the collective has completed everywhere, as with Bcast.
// The pieces received must tile the payload exactly; anything else is an
// error naming the gap or overlap.
func (c *Comm) BcastMSBT(root cube.NodeID, data []byte) (_ []byte, err error) {
	if err := c.checkRoot("bcastmsbt", root); err != nil {
		return nil, err
	}
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
func (c *Comm) Scatter(root cube.NodeID, data [][]byte) ([]byte, error) {
	if err := c.checkRoot("scatter", root); err != nil {
		return nil, err
	}
	defer c.next()
	rt := c.route(root)
	var parts []mpx.Part
	if c.Rank() == root {
		if len(data) != c.Size() {
			return nil, fmt.Errorf("comm: scatter needs %d payloads, got %d", c.Size(), len(data))
		}
		parts = bundle(rt.want, data)
	} else {
		env, err := c.recvTag(c.tagFor(0))
		if err != nil {
			return nil, err
		}
		if err := c.checkBundle(rt, env.Parts, "scatter"); err != nil {
			return nil, err
		}
		parts = env.Parts
	}
	c.relay(rt, parts, 0)
	return parts[0].Data, nil
}

// bundle cuts a tree root's whole bundle — a part for every node, in the
// tree's preorder — out of the root's per-rank payloads.
func bundle(preorder []cube.NodeID, data [][]byte) []mpx.Part {
	parts := make([]mpx.Part, len(preorder))
	for i, d := range preorder {
		parts[i] = mpx.Part{Dest: d, Data: data[d]}
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
// return nil.
func (c *Comm) Gather(root cube.NodeID, mine []byte) ([][]byte, error) {
	if err := c.checkRoot("gather", root); err != nil {
		return nil, err
	}
	defer c.next()
	me := c.Rank()
	parts := []mpx.Part{{Dest: me, Data: mine}}
	for range bst.Children(c.n, me, root) {
		env, err := c.recvTag(c.tagFor(0))
		if err != nil {
			return nil, err
		}
		parts = append(parts, env.Parts...)
	}
	if p, ok := bst.Parent(c.n, me, root); ok {
		c.send(p, 0, parts)
		return nil, nil
	}
	out := make([][]byte, c.Size())
	for _, pt := range parts {
		out[pt.Dest] = pt.Data
	}
	return out, nil
}

// Reduce folds every rank's contribution to the root along the spanning
// binomial tree with the associative op; the root returns the result,
// others return nil.
func (c *Comm) Reduce(root cube.NodeID, mine []byte, op func(a, b []byte) []byte) ([]byte, error) {
	if err := c.checkRoot("reduce", root); err != nil {
		return nil, err
	}
	defer c.next()
	me := c.Rank()
	acc := append([]byte(nil), mine...)
	for range sbt.Children(c.n, me, root) {
		env, err := c.recvTag(c.tagFor(0))
		if err != nil {
			return nil, err
		}
		acc = op(acc, env.Parts[0].Data)
	}
	if p, ok := sbt.Parent(c.n, me, root); ok {
		c.send(p, 0, []mpx.Part{{Dest: root, Data: acc}})
		return nil, nil
	}
	return acc, nil
}

// AllReduce folds every rank's contribution and returns the result on
// every rank, by dimension exchange in log N full-duplex steps. op must
// be associative and commutative.
//
// The exchange is inherently link-conflict-free — step d uses every
// directed dim-d link exactly once, so all 2^d "sources" already run
// disjoint and there is no send order to choose. Its
// hot-path cost was allocation instead: the send must not alias the
// accumulator (in-process envelopes and socket writev queues hold sent
// buffers by reference, and op mutates its first argument), and the old
// code paid a fresh payload-sized snapshot per step. The snapshots now
// come from the communicator's parity-alternating buffer sets (see the
// arBufs field), so a warm call's dimension loop allocates no payload
// buffers at all — only the returned result is fresh.
func (c *Comm) AllReduce(mine []byte, op func(a, b []byte) []byte) ([]byte, error) {
	defer c.next()
	parity := c.arCalls & 1
	c.arCalls++
	set := c.arBufs[parity]
	if len(set) < c.n {
		set = make([][]byte, c.n)
		c.arBufs[parity] = set
	}
	acc := append(c.arAcc[parity][:0], mine...)
	c.arAcc[parity] = acc // keep grown capacity even if op rebinds acc
	for d := 0; d < c.n; d++ {
		snap := append(set[d][:0], acc...)
		set[d] = snap
		c.nd.Send(d, mpx.Message{Tag: c.tagFor(d), Parts: []mpx.Part{{Dest: c.Rank(), Data: snap}}})
		env, err := c.recvTag(c.tagFor(d))
		if err != nil {
			return nil, err
		}
		acc = op(acc, env.Parts[0].Data)
	}
	// The result must outlive the pooled buffers: acc usually IS
	// arAcc[parity] (op folding in place), which call k+2 will overwrite.
	return append([]byte(nil), acc...), nil
}

// Scan returns the inclusive prefix combine(x_0, ..., x_rank) on every
// rank. op must be associative (need not be commutative).
func (c *Comm) Scan(mine []byte, op func(a, b []byte) []byte) ([]byte, error) {
	defer c.next()
	prefix := append([]byte(nil), mine...)
	total := append([]byte(nil), mine...)
	for d := 0; d < c.n; d++ {
		snap := append([]byte(nil), total...)
		c.nd.Send(d, mpx.Message{Tag: c.tagFor(d), Parts: []mpx.Part{{Dest: c.Rank(), Data: snap}}})
		env, err := c.recvTag(c.tagFor(d))
		if err != nil {
			return nil, err
		}
		other := env.Parts[0].Data
		if c.Rank()&(1<<uint(d)) != 0 {
			prefix = op(append([]byte(nil), other...), prefix)
			total = op(append([]byte(nil), other...), total)
		} else {
			total = op(total, other)
		}
	}
	return prefix, nil
}

// Barrier blocks until every rank has entered it (an AllReduce of empty
// payloads).
func (c *Comm) Barrier() error {
	_, err := c.AllReduce([]byte{}, func(a, b []byte) []byte { return a })
	return err
}

// AllGather returns every rank's payload on every rank, running N
// concurrent balanced-spanning-tree broadcasts (one rooted at each rank).
// A rank sends its own payload to its tree's children first, then
// forwards every other payload down that payload's tree the moment it
// arrives (subtag r+1 is the tree rooted at rank r).
func (c *Comm) AllGather(mine []byte) ([][]byte, error) {
	defer c.next()
	me := c.Rank()
	out := make([][]byte, c.Size())
	out[me] = mine
	for _, ch := range bst.Children(c.n, me, me) {
		c.send(ch, int(me)+1, []mpx.Part{{Dest: me, Data: mine}})
	}
	for seen := 0; seen < c.Size()-1; seen++ {
		env, err := c.recvTagAnyRoot()
		if err != nil {
			return nil, err
		}
		r, err := c.source(env, "allgather")
		if err != nil {
			return nil, err
		}
		if out[r] != nil {
			return nil, dupErr("allgather", int(r))
		}
		out[r] = env.Parts[0].Data
		for _, ch := range c.route(r).children {
			c.send(ch, int(r)+1, env.Parts)
		}
	}
	return out, nil
}

// recvTagAnyRoot receives the next message belonging to the CURRENT
// collective sequence regardless of subtag — used by the all-node
// collectives, whose messages arrive from all N trees in any order.
func (c *Comm) recvTagAnyRoot() (mpx.Envelope, error) {
	if d := c.deadline; d > 0 {
		env, ok, err := c.recvSeqAnyWait(d)
		if err != nil {
			return env, err
		}
		if !ok {
			return env, c.deadlineErr("all-node collective traffic", d)
		}
		return env, nil
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	for {
		for c.readyHead < len(c.ready) {
			tag := c.ready[c.readyHead]
			if c.readyHead++; c.readyHead == len(c.ready) {
				c.ready, c.readyHead = c.ready[:0], 0
			}
			// Validate: another receive path (an FT collective's scan, a
			// recvTag on the same tag) may have drained this entry already.
			if svc.StreamSeq(tag) != c.seq {
				continue
			}
			if env, ok := c.popLocked(tag); ok {
				return env, nil
			}
		}
		if err := c.interrupt; err != nil {
			return mpx.Envelope{}, err
		}
		if c.stopped {
			return mpx.Envelope{}, c.stoppedErr("all-node collective traffic")
		}
		c.cond.Wait()
	}
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
func (c *Comm) AllToAll(mine [][]byte) ([][]byte, error) {
	defer c.next()
	if len(mine) != c.Size() {
		return nil, fmt.Errorf("comm: alltoall needs %d payloads, got %d", c.Size(), len(mine))
	}
	if len(c.held) != c.Size() { // first call, or the cube has grown (elastic.go)
		c.held = make([][]mpx.Part, c.Size())
	}
	held := c.held
	defer clear(held)
	me := c.Rank()
	held[me] = bundle(c.route(me).want, mine)
	out := make([][]byte, c.Size())
	out[me] = mine[me]
	c.relay(c.route(me), held[me], int(me)+1)
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
	env, err := c.recvTagAnyRoot()
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
	return r, nil
}
