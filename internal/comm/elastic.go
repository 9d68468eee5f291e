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
// Tag discipline: a pinned view is a job. A Session feeds its node's
// inbox to an svc.Dispatcher with one key per epoch (see elasticBase).
// Pin opens the view's key on a communicator at sequence zero and closes
// the keys it leaves, dropping their stragglers; traffic under a key not
// pinned yet waits for it. A view change aborts the pinned key, failing
// its collective with a *member.ViewChangedError; the abort names the
// key, so a late one for a key already closed does nothing.
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

// elasticTenant is the reserved tenant id for epoch-scoped collective
// tags. The svc runtime hands out tenant ids from zero, so the topmost
// tenant never collides with a hosted job.
const elasticTenant = svc.MaxTenant

// elasticBase encodes the (tenant, job) tag base of one membership
// epoch, folded onto job IDs 1..MaxJob like the dispatcher's tombstone
// ring. It names an epoch, not a view: View.Epoch is a sum, and ranks
// holding different views can share it — and so a key and a sequence.
func elasticBase(epoch uint64) int {
	return svc.Tag{Tenant: elasticTenant, Job: 1 + int(epoch%svc.MaxJob)}.MustEncode()
}

// elasticKey is the dispatcher key of epoch's tag base.
func elasticKey(epoch uint64) int { return svc.JobKeyOf(elasticBase(epoch)) }

// defaultElasticResilience is the link self-healing configuration an
// Elastic endpoint uses when the caller does not supply one: a few
// quick reconnect attempts, then escalation to the membership layer
// (which records the peer dead) rather than transport shutdown.
func defaultElasticResilience() transport.ResilienceOptions {
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
	// defaultElasticResilience. The budget doubles as the crash
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

	// leaving holds a token while Drain announces the leave: a program
	// whose Pin sees its rank drained may return and Close before the
	// announcement is out, so Close waits for the token (for a bound).
	leaving chan struct{}

	mu   sync.Mutex
	dim  int             // current cube dimension; grows with the view
	re   *fault.Reactive // tree repairer at dim; rebuilt on growth
	sess *Session        // the last Run's Session; nil before the first

	// viewHook, when set, runs in onView between reading the open epoch
	// and aborting its key (tests park it there to force the race).
	viewHook func(epoch uint64)
}

// NewElastic builds one elastic endpoint. The transport listens
// immediately (Addr is valid) but attaches only on Connect or Join.
func NewElastic(opt ElasticOptions) (*Elastic, error) {
	if opt.Dim <= 0 {
		return nil, fmt.Errorf("comm: elastic endpoint needs a positive dimension, got %d", opt.Dim)
	}
	res := opt.Resilience
	if !res.Enabled {
		res = defaultElasticResilience()
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
		re: newRepairer(opt.Dim), leaving: make(chan struct{}, 1),
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
// rebind the tree repairer, and abort the Session's open key if its
// epoch is older (if Pin has moved on meanwhile, the key is closed and
// the abort does nothing). Runs on transport goroutines — must not block.
func (e *Elastic) onView(v member.View) {
	ep := v.Epoch()
	if v.Dim > e.dimNow() {
		e.ensureDim(v.Dim)
	}
	e.reactive().Rebind(ep, v.Live())
	e.mu.Lock()
	s, hook := e.sess, e.viewHook
	var open uint64
	if s != nil {
		open = s.open
	}
	e.mu.Unlock()
	if open == 0 || ep <= open {
		return
	}
	if hook != nil {
		hook(ep)
	}
	s.d.Abort(elasticKey(open))
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
// running program, if any, stops — by design: a draining rank is out of
// the view, so its collective fails and its next Pin refuses.
func (e *Elastic) Drain(settle time.Duration) error {
	e.leaving <- struct{}{}
	e.mgr.Drain()
	<-e.leaving
	time.Sleep(settle)
	return e.tr.Close()
}

// Crash kills the endpoint without any announcement: peers see a lost
// connection and their supervisors burn the resilience budget before
// declaring this rank dead — exactly a process crash, minus the SIGKILL.
func (e *Elastic) Crash() error { return e.tr.Abort() }

// Close shuts the endpoint down cleanly (BYE on every link), after the
// announcement of a Drain in progress.
func (e *Elastic) Close() error {
	select {
	case e.leaving <- struct{}{}:
		<-e.leaving
	case <-time.After(time.Second):
	}
	return e.tr.Close()
}

// Run executes program against a Session for the hosted rank: the
// node's inbox feeds the Session's dispatcher, and the first Pin makes
// the communicator. It returns when the program does; the transport
// stays open (so a finished program can be followed by Drain or Close,
// or by another Run, whose dispatcher takes the inbox over).
func (e *Elastic) Run(program func(s *Session) error) error {
	return mpx.NewWithTransport(e.tr, nil).Run(func(nd *mpx.Node) error { return e.runOn(nd, program) })
}

// runOn is Run's body on the hosted rank's node.
func (e *Elastic) runOn(nd *mpx.Node, program func(s *Session) error) error {
	s := &Session{e: e, nd: nd, d: svc.NewDispatcher()}
	nd.Attach(mpx.Consumer{Sink: s.d.Deliver, Closed: s.d.Down})
	e.mu.Lock()
	e.sess = s // kept after Run: aborts on its dispatcher then reach no one
	e.mu.Unlock()
	defer func() {
		if s.c != nil {
			s.c.stop()
		}
	}()
	return program(s)
}

// Session is a rank's handle inside Elastic.Run: it pins membership
// views into ViewComms and reruns view-sensitive work.
type Session struct {
	e  *Elastic
	nd *mpx.Node
	d  *svc.Dispatcher // the node's inbox, demultiplexed by epoch key

	c    *Comm  // the open key's communicator, made by the first Pin
	open uint64 // the open key's epoch (0: none); written under e.mu
}

// Rank returns the hosted rank.
func (s *Session) Rank() cube.NodeID { return s.e.self }

// Epoch returns the manager's current epoch (advances under the caller
// at any time; pin a view to hold one still).
func (s *Session) Epoch() uint64 { return s.e.mgr.Epoch() }

// Manager exposes the membership manager.
func (s *Session) Manager() *member.Manager { return s.e.mgr }

// Pin snapshots the current membership view into a ViewComm. On an
// epoch change since the last pin, the view's key becomes the open key
// (see enter): the collective sequence restarts at zero. Re-pinning the
// same epoch keeps the communicator and its sequence — ranks re-pinning
// between collectives of a stable view stay in lockstep.
func (s *Session) Pin() (*ViewComm, error) {
	for {
		v := s.e.mgr.View()
		ep := v.Epoch()
		if me := s.e.self; !v.Alive(me) {
			return nil, fmt.Errorf("comm: rank %d is not alive in view %s", me, v)
		}
		if s.c == nil {
			s.c = newComm(s.nd, s.e.dimNow(), elasticBase(ep), func(mpx.Consumer) {}) // opened by enter
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
		if ep != s.open {
			s.enter(ep)
		}
		// A view change between the snapshot above and here may have
		// aborted the key this pin left rather than the one it opened;
		// re-check and loop rather than hand out a stale ViewComm.
		if s.e.mgr.Epoch() != ep {
			continue
		}
		return &ViewComm{s: s, view: v, epoch: ep, root: root}, nil
	}
}

// enter makes epoch's key the open key, as an svc worker moves to its
// next job: close the key it leaves and those of the epochs skipped
// (their stragglers drop), reset the communicator to the new base at
// sequence zero, and open the key, flushing what arrived early.
func (s *Session) enter(epoch uint64) {
	for x := s.open; x != 0 && x < epoch; x++ {
		s.d.CloseJob(elasticKey(x))
	}
	s.c.reset(elasticBase(epoch))
	s.e.mu.Lock()
	s.open = epoch
	s.e.mu.Unlock()
	s.d.Open(elasticKey(epoch), s.c.sink, s.c.closed)
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
// ranks, rooted at the lowest live rank. A view change in flight aborts
// the epoch's key, and they fail with a *member.ViewChangedError
// instead of blocking on ranks that moved on. Ranks the view grew beyond
// the founding cube participate like any other once they grow-attach to
// the transport mesh: pinning a grown view re-dimensions the endpoint
// online (links widen, trees rebuild at the new dimension) with no
// restart — until a joiner's attach reaches this endpoint, sends toward
// it drop silently and the repaired tree simply routes around the hole.
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

// result reports a collective's failure on a view that has changed
// since the pin as the view change, which aborted the epoch's key.
func (v *ViewComm) result(op string, err error) error {
	if ep := v.s.e.mgr.Epoch(); err != nil && ep != v.epoch {
		return &member.ViewChangedError{Epoch: ep, Op: op}
	}
	return err
}

// Bcast distributes data from the view root to every live rank along
// the repaired tree; every rank returns the payload (the root passes
// its own data, other ranks pass nil). The result is read-only and, as
// Comm.Bcast's, valid until the session communicator's second
// collective after this one.
func (v *ViewComm) Bcast(data []byte) ([]byte, error) {
	c := v.s.c
	c.enter()
	defer c.next()
	t, err := v.tree("bcast")
	if err != nil {
		return nil, err
	}
	out, err := c.bcastDown(v.root, t.Children(c.Rank()), data)
	return out, v.result("bcast", err)
}

// Gather collects every live rank's payload at the view root, leaf-up
// along the repaired tree; the root returns payloads indexed by rank
// (nil at dead ranks), others return nil.
func (v *ViewComm) Gather(mine []byte) ([][]byte, error) {
	c := v.s.c
	c.enter()
	defer c.next()
	t, err := v.tree("gather")
	if err != nil {
		return nil, err
	}
	p, ok := t.Parent(c.Rank())
	out, err := c.gatherUp(p, ok, len(t.Children(c.Rank())), mine)
	return out, v.result("gather", err)
}

// AllReduce folds every live rank's contribution with op and returns
// the result on every live rank: Comm.AllReduce's reduction up the tree
// and broadcast back down, over the repaired tree of the view's live
// ranks from the view root. op must be associative and commutative. The
// result is fresh, and a warm call allocates nothing else.
func (v *ViewComm) AllReduce(mine []byte, op func(a, b []byte) []byte) ([]byte, error) {
	c := v.s.c
	c.enter()
	defer c.next()
	t, err := v.tree("allreduce")
	if err != nil {
		return nil, err
	}
	p, ok := t.Parent(c.Rank())
	out, err := c.allReduce(v.root, p, ok, t.Children(c.Rank()), mine, op)
	return out, v.result("allreduce", err)
}

// Barrier blocks until every live rank of the pinned view has entered
// it (an AllReduce of empty payloads).
func (v *ViewComm) Barrier() error {
	_, err := v.AllReduce(nil, func(a, _ []byte) []byte { return a })
	return err
}
