// Elastic membership: communicator support for meshes whose population
// changes at runtime. An Elastic endpoint wires one rank's transport
// (member mode), its membership manager, and a reactive tree repairer
// into a single handle; programs run against a Session and pin the
// current view into a ViewComm before each batch of collectives. When
// the view changes under a pinned collective — a crash detected, a
// drain announced, a joiner admitted — the collective either completes
// on the old view or fails with a *member.ViewChangedError carrying the
// new epoch, and RetryOnViewChange re-pins and reruns it.
//
// Tag discipline: every epoch owns a (tenant, job) slice of the tag
// space — tenant ElasticTenant, job = epoch mod (MaxJob+1) — and the
// collective sequence restarts at zero on every epoch change. Two ranks
// momentarily on different epochs therefore cannot mis-deliver into
// each other's collectives: the straggler's messages sit in the mailbox
// under a key nobody reads until its sender catches up, and the stale
// slice is dropped at the next rebase.
package comm

import (
	"errors"
	"fmt"
	"sync"
	"time"

	"repro/internal/cube"
	"repro/internal/fault"
	"repro/internal/member"
	"repro/internal/mpx"
	"repro/internal/sbt"
	"repro/internal/svc"
	"repro/internal/transport"
)

// ElasticTenant is the reserved tenant id for epoch-scoped collective
// tags. The svc runtime hands out tenant ids from zero, so the topmost
// tenant never collides with a hosted job.
const ElasticTenant = svc.MaxTenant

// elasticBase encodes the (tenant, job) tag base of one membership
// epoch. Epochs are folded mod MaxJob+1: an alias needs 4096 view
// changes between two live epochs, far beyond any plausible overlap.
func elasticBase(epoch uint64) int {
	b, err := svc.Base(ElasticTenant, int(epoch%uint64(svc.MaxJob+1)))
	if err != nil {
		panic(err) // unreachable: both fields are in range by construction
	}
	return b
}

// DefaultElasticResilience is the link self-healing configuration an
// Elastic endpoint uses when the caller does not supply one: a few
// quick reconnect attempts, then escalation to the membership layer
// (which records the peer dead) rather than transport shutdown.
func DefaultElasticResilience() transport.ResilienceOptions {
	return transport.ResilienceOptions{
		Enabled:     true,
		MaxAttempts: 5,
		Budget:      2 * time.Second,
		BaseBackoff: 5 * time.Millisecond,
		MaxBackoff:  100 * time.Millisecond,
	}
}

// ElasticOptions configures one elastic-mesh endpoint.
type ElasticOptions struct {
	// Dim is the cube dimension; Self the (single) hosted rank.
	Dim  int
	Self cube.NodeID
	// Join marks a late joiner: the endpoint starts from an empty view
	// and attaches with Elastic.Join instead of Elastic.Connect.
	Join bool
	// Network picks the socket family ("tcp" default, or "unix").
	Network string
	// Listen fixes the listen address (empty = pick one: an ephemeral
	// port on tcp, a fresh socket path on unix).
	Listen string
	// Resilience tunes link self-healing; the zero value means
	// DefaultElasticResilience. The budget doubles as the crash
	// detection latency: a peer is declared dead when it exhausts this.
	Resilience transport.ResilienceOptions
	// HandshakeTimeout bounds Connect/Join dials (0 = transport default).
	HandshakeTimeout time.Duration
	// Logf, when non-nil, receives membership diagnostics.
	Logf func(format string, args ...any)
}

// Elastic is one rank of an elastic mesh: a member-mode transport, its
// membership manager, and the reactive tree repairer the view
// collectives route over.
type Elastic struct {
	self cube.NodeID
	tr   *transport.TCP
	mgr  *member.Manager

	mu     sync.Mutex
	dim    int             // current cube dimension; grows with the view
	re     *fault.Reactive // tree repairer at dim; rebuilt on growth
	cur    *Comm           // the running Session's communicator; nil between Runs
	pinned uint64          // epoch the current ViewComm is pinned to; 0 = unpinned
}

// NewElastic builds one elastic endpoint. The transport listens
// immediately (Addr is valid) but attaches only on Connect or Join.
func NewElastic(opt ElasticOptions) (*Elastic, error) {
	if opt.Dim <= 0 {
		return nil, fmt.Errorf("comm: elastic endpoint needs a positive dimension, got %d", opt.Dim)
	}
	res := opt.Resilience
	if !res.Enabled {
		res = DefaultElasticResilience()
	}
	hooks := &transport.MemberHooks{}
	tr, err := transport.NewTCP(transport.TCPOptions{
		Dim: opt.Dim, Locals: []cube.NodeID{opt.Self},
		Listen:           opt.Listen,
		Depth:            CollectiveDepth(opt.Dim),
		HandshakeTimeout: opt.HandshakeTimeout,
		Resilience:       res,
		Network:          opt.Network,
		Member:           hooks,
	})
	if err != nil {
		return nil, err
	}
	mgr := member.New(member.Config{
		Self: opt.Self, Dim: opt.Dim, Join: opt.Join,
		Send: func(to cube.NodeID, kind byte, body []byte) error {
			return tr.SendControl(opt.Self, to, kind, body)
		},
		Logf: opt.Logf,
	})
	hooks.OnPeerDown = mgr.OnPeerDown
	hooks.OnControl = mgr.OnControl
	e := &Elastic{
		dim: opt.Dim, self: opt.Self, tr: tr, mgr: mgr,
		re: newRepairer(opt.Dim),
	}
	mgr.Subscribe(e.onView)
	// Bind the starting view so trees exist before the first change.
	e.re.Rebind(mgr.Epoch(), mgr.View().Live())
	return e, nil
}

// newRepairer builds a reactive tree repairer for a dim-cube over SBT
// base trees.
func newRepairer(dim int) *fault.Reactive {
	return fault.NewReactive(dim, func(root cube.NodeID) fault.ParentFunc {
		return func(i cube.NodeID) (cube.NodeID, bool) { return sbt.Parent(dim, i, root) }
	})
}

// reactive snapshots the current tree repairer (swapped on growth).
func (e *Elastic) reactive() *fault.Reactive {
	e.mu.Lock()
	re := e.re
	e.mu.Unlock()
	return re
}

// dimNow snapshots the current cube dimension (grows with the view).
func (e *Elastic) dimNow() int {
	e.mu.Lock()
	d := e.dim
	e.mu.Unlock()
	return d
}

// ensureDim widens the endpoint to a grown view's dimension: the
// transport re-dimensions its link mesh online (idempotent when a
// grow-attach handshake or KindGrow flood already widened it) and the
// tree repairer is rebuilt at the new dimension, so repaired trees span
// the grown cube. A no-op at or below the current dimension.
func (e *Elastic) ensureDim(dim int) {
	e.mu.Lock()
	if dim > e.dim {
		e.dim = dim
		e.re = newRepairer(dim)
	}
	e.mu.Unlock()
	// Outside e.mu: GrowTo takes the transport's own lock.
	e.tr.GrowTo(dim)
}

// onView tracks every view change: widen to a grown view's dimension,
// rebind the tree repairer, and if a collective is pinned to an older
// epoch, interrupt it. Runs on transport goroutines (read pumps,
// supervisors) — must not block.
func (e *Elastic) onView(v member.View) {
	ep := v.Epoch()
	if v.Dim > e.dimNow() {
		e.ensureDim(v.Dim)
	}
	e.reactive().Rebind(ep, v.Live())
	e.mu.Lock()
	c, pinned := e.cur, e.pinned
	e.mu.Unlock()
	if c != nil && pinned != 0 && ep > pinned {
		c.setInterrupt(&member.ViewChangedError{Epoch: ep, Op: "collective"})
	}
}

// Addr returns the endpoint's listen address (for peers' Connect/Join).
func (e *Elastic) Addr() string { return e.tr.Addr() }

// Rank returns the hosted rank.
func (e *Elastic) Rank() cube.NodeID { return e.self }

// Manager exposes the membership manager (views, epochs, waits).
func (e *Elastic) Manager() *member.Manager { return e.mgr }

// Transport exposes the underlying transport (stats, chaos agents).
func (e *Elastic) Transport() *transport.TCP { return e.tr }

// Connect attaches a founding member to the full mesh; peers is indexed
// by rank. Every founding endpoint must call it concurrently.
func (e *Elastic) Connect(peers []string) error { return e.tr.Connect(peers) }

// Join attaches a late joiner: dial every reachable neighbor (empty
// addresses mark known holes), announce the join through the membership
// layer, and wait for admission.
func (e *Elastic) Join(peers []string, timeout time.Duration) error {
	if err := e.tr.JoinMesh(peers); err != nil {
		return err
	}
	e.mgr.AnnounceJoin()
	if !e.mgr.WaitAlive(timeout) {
		return fmt.Errorf("comm: joiner %d not admitted within %v", e.self, timeout)
	}
	return nil
}

// Drain announces a graceful leave (peers record Drained, not Dead) and
// gives the announcement a moment to flush before closing. The caller's
// running program, if any, fails with a shutdown error — by design: a
// draining rank stops participating.
func (e *Elastic) Drain(settle time.Duration) error {
	e.mgr.Drain()
	time.Sleep(settle)
	return e.tr.Close()
}

// Crash kills the endpoint without any announcement: peers see a lost
// connection and their supervisors burn the resilience budget before
// declaring this rank dead — exactly a process crash, minus the SIGKILL.
func (e *Elastic) Crash() error { return e.tr.Abort() }

// Close shuts the endpoint down cleanly (BYE on every link).
func (e *Elastic) Close() error { return e.tr.Close() }

// Run executes program against a Session for the hosted rank. It
// returns when the program does; the transport stays open (so a
// finished program can be followed by Drain or Close, or by another Run,
// whose communicator takes the inbox over).
func (e *Elastic) Run(program func(s *Session) error) error {
	m := mpx.NewWithTransport(e.tr, nil)
	return m.Run(func(nd *mpx.Node) error {
		c := newComm(nd, e.dimNow(), elasticBase(e.mgr.Epoch()), nd.Attach)
		defer c.stop()
		e.mu.Lock()
		e.cur = c
		e.mu.Unlock()
		defer func() {
			e.mu.Lock()
			e.cur = nil
			e.pinned = 0
			e.mu.Unlock()
		}()
		return program(&Session{e: e, c: c})
	})
}

// Session is a rank's handle inside Elastic.Run: it pins membership
// views into ViewComms and reruns view-sensitive work.
type Session struct {
	e *Elastic
	c *Comm
}

// Rank returns the hosted rank.
func (s *Session) Rank() cube.NodeID { return s.c.Rank() }

// Epoch returns the manager's current epoch (advances under the caller
// at any time; pin a view to hold one still).
func (s *Session) Epoch() uint64 { return s.e.mgr.Epoch() }

// Manager exposes the membership manager.
func (s *Session) Manager() *member.Manager { return s.e.mgr }

// Pin snapshots the current membership view into a ViewComm. On an
// epoch change since the last pin, the communicator rebases into the
// new epoch's tag slice (collective sequence restarts at zero; the
// previous epoch's queued stragglers are dropped); re-pinning the same
// epoch keeps the sequence running — ranks re-pinning between
// collectives of a stable view stay in lockstep.
func (s *Session) Pin() (*ViewComm, error) {
	for {
		v := s.e.mgr.View()
		ep := v.Epoch()
		me := s.c.Rank()
		if !v.Alive(me) {
			return nil, fmt.Errorf("comm: rank %d is not alive in view %s", me, v)
		}
		// A view that outgrew this endpoint re-dimensions it before the
		// pin: transport links widen online and the repairer is rebuilt
		// at the new dimension (both idempotent when onView already did
		// it), then the communicator itself. n and routes are touched
		// only from the rank's own goroutine — which is the one pinning.
		if v.Dim > s.c.n {
			s.e.ensureDim(v.Dim)
			s.c.n = v.Dim
			s.c.routes = nil
		}
		root, ok := v.LowestLive()
		if !ok || int(root) >= s.c.Size() {
			return nil, fmt.Errorf("comm: view %s has no live root inside the %d-cube", v, s.c.n)
		}
		s.e.reactive().Rebind(ep, v.Live())
		s.e.mu.Lock()
		s.e.pinned = ep
		s.e.mu.Unlock()
		if base := elasticBase(ep); base != s.c.base {
			s.c.rebase(base)
		}
		// A view change between the snapshot above and here would leave a
		// pin the interrupt path may have already missed; re-check and
		// loop rather than hand out a stale ViewComm.
		if s.e.mgr.Epoch() != ep {
			continue
		}
		return &ViewComm{s: s, view: v, epoch: ep, root: root}, nil
	}
}

// RetryOnViewChange runs fn against a freshly pinned view, re-pinning
// and rerunning whenever fn fails with a *member.ViewChangedError —
// the membership changed under it. fn must be restartable: a retried
// attempt reruns from the top on the new view, and peers that completed
// the previous attempt on the old view will see the rerun too (root
// payloads should carry enough identity for receivers to deduplicate).
// attempts <= 0 retries without bound; otherwise the last view-change
// error is returned once attempts are exhausted. Any other error — and
// a Pin failure, such as this rank no longer being in the view — is
// returned immediately.
func (s *Session) RetryOnViewChange(attempts int, fn func(vc *ViewComm) error) error {
	var last error
	for i := 0; attempts <= 0 || i < attempts; i++ {
		vc, err := s.Pin()
		if err != nil {
			return err
		}
		err = fn(vc)
		var vce *member.ViewChangedError
		if !errors.As(err, &vce) {
			return err
		}
		last = err
	}
	return last
}

// ViewComm is a communicator pinned to one membership epoch: its
// collectives run over the repaired spanning tree of the view's live
// ranks, rooted at the lowest live rank. A view change in flight makes
// them fail with a *member.ViewChangedError instead of blocking on
// ranks that moved on. Ranks the view grew beyond the founding cube
// participate like any other once they grow-attach to the transport
// mesh: pinning a grown view re-dimensions the endpoint online (links
// widen, trees rebuild at the new dimension) with no restart — until a
// joiner's attach reaches this endpoint, sends toward it drop silently
// and the repaired tree simply routes around the hole.
type ViewComm struct {
	s     *Session
	view  member.View
	epoch uint64
	root  cube.NodeID
}

// Epoch returns the pinned epoch.
func (v *ViewComm) Epoch() uint64 { return v.epoch }

// View returns the pinned view snapshot.
func (v *ViewComm) View() member.View { return v.view }

// Rank returns this rank.
func (v *ViewComm) Rank() cube.NodeID { return v.s.c.Rank() }

// Root returns the view's collective root (lowest live rank).
func (v *ViewComm) Root() cube.NodeID { return v.root }

// Size returns the cube size (the payload-index space; dead ranks leave
// nil holes in Gather's result).
func (v *ViewComm) Size() int { return v.s.c.Size() }

// tree resolves the repaired tree for the pinned epoch, translating a
// stale-epoch refusal into the typed view-change error.
func (v *ViewComm) tree(op string) (*fault.Tree, error) {
	re := v.s.e.reactive()
	t, err := re.Tree(v.epoch, v.root)
	if err != nil {
		if cur := re.Epoch(); cur != v.epoch {
			return nil, &member.ViewChangedError{Epoch: cur, Op: op}
		}
		return nil, err
	}
	if !t.Contains(v.Rank()) {
		return nil, fmt.Errorf("comm: rank %d unreachable in the repaired tree of epoch %d", v.Rank(), v.epoch)
	}
	return t, nil
}

// Bcast distributes data from the view root to every live rank along
// the repaired tree; every rank returns the payload (the root passes
// its own data, other ranks pass nil).
func (v *ViewComm) Bcast(data []byte) ([]byte, error) {
	c := v.s.c
	defer c.next()
	t, err := v.tree("bcast")
	if err != nil {
		return nil, err
	}
	return c.bcastDown(v.root, t.Children(c.Rank()), data)
}

// Gather collects every live rank's payload at the view root, leaf-up
// along the repaired tree; the root returns payloads indexed by rank
// (nil at dead ranks), others return nil.
func (v *ViewComm) Gather(mine []byte) ([][]byte, error) {
	c := v.s.c
	defer c.next()
	t, err := v.tree("gather")
	if err != nil {
		return nil, err
	}
	p, ok := t.Parent(c.Rank())
	return c.gatherUp(p, ok, len(t.Children(c.Rank())), mine)
}

// AllReduce folds every live rank's contribution with op and returns
// the result on every live rank: Comm.AllReduce's reduction up the tree
// and broadcast back down, over the repaired tree of the view's live
// ranks from the view root. op must be associative and commutative. The
// result is fresh, and a warm call allocates nothing else.
func (v *ViewComm) AllReduce(mine []byte, op func(a, b []byte) []byte) ([]byte, error) {
	c := v.s.c
	defer c.next()
	t, err := v.tree("allreduce")
	if err != nil {
		return nil, err
	}
	p, ok := t.Parent(c.Rank())
	return c.allReduce(v.root, p, ok, t.Children(c.Rank()), mine, op)
}

// Barrier blocks until every live rank of the pinned view has entered
// it (an AllReduce of empty payloads).
func (v *ViewComm) Barrier() error {
	_, err := v.AllReduce(nil, func(a, _ []byte) []byte { return a })
	return err
}

// setInterrupt fails every blocking receive on the communicator with
// err (a view-change notice) and wakes the waiters.
func (c *Comm) setInterrupt(err error) {
	c.mu.Lock()
	c.interrupt = err
	c.cond.Broadcast()
	c.mu.Unlock()
}

// rebase moves the communicator into the tag slice of a new membership
// epoch: the collective sequence restarts at zero, any pending
// interrupt is cleared, and the previous epoch's queued stragglers are
// dropped. Messages queued under OTHER keys — epochs this rank skipped,
// or a peer running ahead — are kept: a fast peer's early traffic must
// survive until this rank catches up. (Slices of epochs nobody ever
// rebases into can linger until shutdown; churn counts are small enough
// that this stays bounded in practice.)
func (c *Comm) rebase(base int) {
	c.mu.Lock()
	oldKey := svc.JobKeyOf(c.base)
	c.base, c.seq, c.interrupt = base, 0, nil
	c.mailbox.advance(c.tagFor(0))
	if svc.JobKeyOf(base) != oldKey {
		c.mailbox.drop(oldKey)
	}
	c.mu.Unlock()
}
