package svc

import (
	"errors"
	"fmt"
	"sync"
	"time"

	"repro/internal/cube"
	"repro/internal/member"
	"repro/internal/mpx"
)

// Options tunes the runtime's admission control.
type Options struct {
	// TenantInFlight bounds how many of one tenant's jobs may run
	// concurrently on each node (the per-tenant window). Within the
	// window a tenant's jobs start strictly in submission order (FIFO
	// within tenant). Default 2.
	TenantInFlight int

	// TenantQueue bounds a tenant's outstanding submissions (queued +
	// running); Submit blocks past it — the per-tenant backpressure
	// that keeps one chatty tenant from ballooning the queue. Default
	// 64; negative means unlimited.
	TenantQueue int

	// Global, when positive, additionally caps jobs in flight per node
	// across ALL tenants. A timing-dependent global gate could admit
	// different job sets on different processes and deadlock a
	// distributed mesh, so a global cap switches admission to strict
	// submission order (deterministic everywhere); leave it 0 to let
	// tenants interleave freely under their per-tenant windows.
	Global int
}

func (o Options) withDefaults() Options {
	if o.TenantInFlight <= 0 {
		o.TenantInFlight = 2
	}
	if o.TenantQueue == 0 {
		o.TenantQueue = 64
	}
	return o
}

// Program is one node's share of a collective job. The runtime invokes
// it once per hosted node, concurrently with other jobs on the same
// node; implementations communicate only through tags derived from
// jc.Base so concurrent jobs never cross streams.
type Program func(jc *JobContext) error

// JobContext is what a job program gets on each node: the node handle,
// the job's identity and tag base, and the hook that attaches a consumer
// for exactly this job's envelopes (fed by the node's dispatcher).
type JobContext struct {
	Node   *mpx.Node
	Dim    int
	Tenant int
	Job    int

	// Base is the job's encoded (tenant, job) tag bits; OR it with
	// StreamTag on every send (comm's job communicators do).
	Base int

	// Attach opens the job's envelope stream on this node: early arrivals
	// are flushed into sink, later ones filed into it by the delivering
	// goroutine (sink must not block or send); closed — possibly more
	// than once — reports the stream ending early (job aborted, machine
	// down). A Mailbox's Put and Close make it a blocking Recv.
	Attach func(sink func(mpx.Envelope), closed func())
}

// Handle tracks one submitted job. Wait blocks until the job finished
// on every node this runtime hosts (an in-process machine hosts the
// whole cube; in a multi-process deployment each process observes its
// own completion — the submission sequence must match across processes).
type Handle struct {
	Tenant, Job int
	SubmittedAt time.Time

	// DoneAt is valid after Wait/Done.
	DoneAt time.Time

	done chan struct{}
	once sync.Once
	err  error
}

// Done is closed when the job completed (or failed) locally.
func (h *Handle) Done() <-chan struct{} { return h.done }

// Wait blocks for completion and returns the job's first error.
func (h *Handle) Wait() error {
	<-h.done
	return h.err
}

// Err returns the job's error; call it only after Done/Wait.
func (h *Handle) Err() error { return h.err }

func (h *Handle) finish(err error) {
	h.once.Do(func() {
		h.err = err
		h.DoneAt = time.Now()
		close(h.done)
	})
}

// ErrDraining is returned by Submit after Drain began.
var ErrDraining = errors.New("svc: runtime is draining")

// job is the runtime's internal record of one submission.
type job struct {
	tenant, id int
	key, base  int
	prog       Program
	h          *Handle
	remaining  int // local node executions outstanding
	started    int // local node executions claimed by a scheduler
	err        error
}

type tenantState struct {
	queue       []*job // submission order; per-node cursors index it
	seq         int    // total submissions (job IDs derive from it)
	outstanding int    // submitted minus locally completed
}

// nodeState is one hosted node's scheduling position. All nodeStates
// are guarded by the runtime's single mutex — admission is a
// coordination problem, not a throughput problem (jobs are).
type nodeState struct {
	cursor     map[int]int // tenant -> next queue index to start
	inflight   map[int]int // tenant -> started-not-finished here
	running    int         // sum of inflight: jobs this node is executing
	rrPos      int         // round-robin position in rt.rr
	nextGlobal int         // next rt.order index (Global > 0 mode)
}

// Runtime is the multi-tenant collective job service over one shared
// machine. Build with New, call Start, Submit jobs, then Drain.
//
// Every process hosting part of the mesh must run its own Runtime over
// its own Machine and submit the SAME jobs in the SAME order (the MPI
// lockstep rule lifted from collectives to jobs); per-tenant FIFO
// windows then admit jobs deadlock-free — a job that completed on a
// node needs nothing further from it, so by induction on each tenant's
// queue every job eventually starts everywhere.
type Runtime struct {
	m   *mpx.Machine
	n   int
	opt Options

	mu       sync.Mutex
	cond     *sync.Cond
	tenants  map[int]*tenantState
	rr       []int  // tenants in first-submission order (RR ring)
	order    []*job // global submission order
	disps    map[cube.NodeID]*Dispatcher
	size     int // hosted nodes
	draining bool
	closed   bool // Drain finished its shutdown; machine-down is expected
	fatalErr error
	started  bool

	runErr chan error
}

// New builds a runtime over m (which must not be running anything
// else — the runtime owns every hosted node's inbox).
func New(m *mpx.Machine, opt Options) *Runtime {
	rt := &Runtime{
		m:       m,
		n:       m.Cube().Dim(),
		opt:     opt.withDefaults(),
		tenants: map[int]*tenantState{},
		disps:   map[cube.NodeID]*Dispatcher{},
		size:    len(m.Transport().Locals()),
		runErr:  make(chan error, 1),
	}
	rt.cond = sync.NewCond(&rt.mu)
	return rt
}

// Machine returns the machine the runtime schedules onto.
func (rt *Runtime) Machine() *mpx.Machine { return rt.m }

// Start launches the per-node schedulers and dispatchers. Idempotent.
func (rt *Runtime) Start() {
	rt.mu.Lock()
	if rt.started {
		rt.mu.Unlock()
		return
	}
	rt.started = true
	rt.mu.Unlock()
	go func() { rt.runErr <- rt.m.Run(rt.nodeMain) }()
}

// Submit enqueues prog as one job of tenant, blocking while the
// tenant's queue is at its backpressure bound. Jobs of one tenant start
// in submission order on every node.
func (rt *Runtime) Submit(tenant int, prog Program) (*Handle, error) {
	if tenant < 0 || tenant > MaxTenant {
		return nil, fmt.Errorf("svc: tenant %d out of range [0,%d]", tenant, MaxTenant)
	}
	rt.mu.Lock()
	defer rt.mu.Unlock()
	ts := rt.tenants[tenant]
	if ts == nil {
		ts = &tenantState{}
		rt.tenants[tenant] = ts
		rt.rr = append(rt.rr, tenant)
	}
	for {
		if rt.fatalErr != nil {
			return nil, rt.fatalErr
		}
		if rt.draining {
			return nil, ErrDraining
		}
		if rt.opt.TenantQueue < 0 || ts.outstanding < rt.opt.TenantQueue {
			break
		}
		rt.cond.Wait()
	}
	if ts.outstanding >= MaxJob {
		return nil, fmt.Errorf("svc: tenant %d has %d jobs outstanding; job-ID space exhausted", tenant, ts.outstanding)
	}
	id := 1 + ts.seq%MaxJob // job 0 is the standalone/legacy space
	ts.seq++
	base := Tag{Tenant: tenant, Job: id}.MustEncode()
	j := &job{
		tenant: tenant, id: id,
		key: JobKey(tenant, id), base: base,
		prog:      prog,
		remaining: rt.size,
		h: &Handle{
			Tenant: tenant, Job: id,
			SubmittedAt: time.Now(),
			done:        make(chan struct{}),
		},
	}
	ts.queue = append(ts.queue, j)
	ts.outstanding++
	rt.order = append(rt.order, j)
	rt.cond.Broadcast()
	return j.h, nil
}

// nodeMain is the per-node scheduler: it attaches the node's dispatcher
// to the inbox, then hands every admissible job to one of the node's
// workers until drained.
func (rt *Runtime) nodeMain(nd *mpx.Node) error {
	d := NewDispatcher()
	// No Land: jobs here carry at most a few hundred bytes per part, far
	// below what a link asks about (DESIGN.md §18).
	nd.Attach(mpx.Consumer{Sink: d.Deliver, Closed: func() {
		d.Down()
		rt.noteDown()
	}})
	ns := &nodeState{cursor: map[int]int{}, inflight: map[int]int{}}
	rt.mu.Lock()
	rt.disps[nd.ID] = d
	// jobDone aborts a failed job on the dispatchers registered at that
	// moment; a node that registers later catches up here, or its share
	// of the job would wait for traffic that never comes.
	for _, j := range rt.order {
		if j.err != nil && j.remaining > 0 {
			d.Abort(j.key)
		}
	}
	rt.mu.Unlock()
	// Jobs run on workers that park between jobs instead of on a fresh
	// goroutine each: a worker keeps the stack its first job grew down the
	// send path. A worker is added only while every existing one is busy,
	// so there are never more than the admission windows allow in flight
	// (tenants × TenantInFlight, or Global); all exit here, at Drain.
	work := make(chan *job)
	var workers sync.WaitGroup
	nworkers := 0
	for {
		j, running := rt.nextJob(ns)
		if j == nil {
			break
		}
		if nworkers >= running {
			// Fewer jobs than workers: one is parked, or about to be — it
			// retired its job before nextJob counted this one.
			work <- j
			continue
		}
		nworkers++
		workers.Add(1)
		go func(j *job) {
			defer workers.Done()
			for ; j != nil; j = <-work {
				err := runJob(j, nd, rt.n, d)
				d.CloseJob(j.key)
				rt.jobDone(ns, j, err)
			}
		}(j)
	}
	close(work)
	workers.Wait()
	return nil
}

// runJob executes one node's share of a job, converting panics —
// including the machine-shutdown abort that unwinds a blocked Send —
// into job errors so one bad job cannot take the scheduler down.
func runJob(j *job, nd *mpx.Node, n int, d *Dispatcher) (err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("svc: job (tenant %d, job %d) aborted on node %d: %v", j.tenant, j.id, nd.ID, r)
		}
	}()
	return j.prog(&JobContext{
		Node: nd, Dim: n,
		Tenant: j.tenant, Job: j.id,
		Base:   j.base,
		Attach: func(sink func(mpx.Envelope), closed func()) { d.Open(j.key, sink, closed) },
	})
}

// nextJob blocks until this node may start another job and claims it,
// also returning how many jobs the node is then executing, the claimed
// one included; nil when the runtime drained or died. Admission: FIFO
// within each tenant under its in-flight window; round-robin across
// tenants so no tenant with budget is starved; with a Global cap, strict
// submission order.
func (rt *Runtime) nextJob(ns *nodeState) (j *job, running int) {
	rt.mu.Lock()
	defer rt.mu.Unlock()
	for {
		if rt.fatalErr != nil {
			return nil, 0
		}
		if rt.opt.Global > 0 {
			if ns.nextGlobal < len(rt.order) && ns.running < rt.opt.Global {
				if j := rt.order[ns.nextGlobal]; ns.inflight[j.tenant] < rt.opt.TenantInFlight {
					ns.nextGlobal++
					return ns.claim(j), ns.running
				}
			}
			if rt.draining && ns.nextGlobal == len(rt.order) {
				return nil, 0
			}
		} else {
			if j := rt.pickRR(ns); j != nil {
				return j, ns.running
			}
			if rt.draining && rt.allStarted(ns) {
				return nil, 0
			}
		}
		rt.cond.Wait()
	}
}

// claim records that this node starts j (rt.mu held).
func (ns *nodeState) claim(j *job) *job {
	ns.inflight[j.tenant]++
	ns.running++
	j.started++
	return j
}

// pickRR scans tenants round-robin from the node's cursor and claims
// the first startable job (rt.mu held).
func (rt *Runtime) pickRR(ns *nodeState) *job {
	nt := len(rt.rr)
	for i := 0; i < nt; i++ {
		t := rt.rr[(ns.rrPos+i)%nt]
		ts := rt.tenants[t]
		cur := ns.cursor[t]
		if cur < len(ts.queue) && ns.inflight[t] < rt.opt.TenantInFlight {
			ns.cursor[t] = cur + 1
			ns.rrPos = (ns.rrPos + i + 1) % nt
			return ns.claim(ts.queue[cur])
		}
	}
	return nil
}

// allStarted reports whether this node has started every submitted job
// (rt.mu held).
func (rt *Runtime) allStarted(ns *nodeState) bool {
	for _, t := range rt.rr {
		if ns.cursor[t] < len(rt.tenants[t].queue) {
			return false
		}
	}
	return true
}

// jobDone retires one node's execution of j. The job's first error is
// kept, and a failed job is aborted on every local dispatcher so
// sibling nodes blocked on its traffic unwind instead of hanging.
func (rt *Runtime) jobDone(ns *nodeState, j *job, err error) {
	rt.mu.Lock()
	ns.inflight[j.tenant]--
	ns.running--
	if err != nil && j.err == nil {
		j.err = err
		for _, d := range rt.disps {
			d.Abort(j.key)
		}
	}
	j.remaining--
	var h *Handle
	var jerr error
	if j.remaining == 0 {
		rt.tenants[j.tenant].outstanding--
		h, jerr = j.h, j.err
	}
	rt.cond.Broadcast()
	rt.mu.Unlock()
	if h != nil {
		h.finish(jerr)
	}
}

// NoteViewChange reacts to a membership epoch change (internal/member):
// every job with an execution in flight is aborted with a typed
// *member.ViewChangedError carrying the new epoch — its blocked
// collectives unwind instead of waiting on ranks that left the view,
// and the caller can errors.As the handle's error to retry on the new
// view. The runtime itself keeps serving: queued jobs still start,
// new submissions are still accepted, and tenants whose jobs were not
// in flight never notice. Returns how many jobs were aborted.
func (rt *Runtime) NoteViewChange(epoch uint64) int {
	rt.mu.Lock()
	aborted := 0
	for _, j := range rt.order {
		if j.started == 0 || j.remaining == 0 || j.err != nil {
			continue
		}
		j.err = &member.ViewChangedError{Epoch: epoch, Op: fmt.Sprintf("tenant %d job %d", j.tenant, j.id)}
		for _, d := range rt.disps {
			d.Abort(j.key)
		}
		aborted++
	}
	rt.cond.Broadcast()
	rt.mu.Unlock()
	return aborted
}

// noteDown runs when the machine shut down under a node's inbox. An
// expected shutdown (Drain) is ignored; an unexpected one fails every
// incomplete job with the transport's diagnosis.
func (rt *Runtime) noteDown() {
	rt.mu.Lock()
	if rt.closed {
		rt.mu.Unlock()
		return
	}
	if rt.fatalErr == nil {
		err := rt.m.FirstPeerError()
		if err == nil {
			err = mpx.ErrDown
		}
		rt.fatalErr = fmt.Errorf("svc: machine down: %w", err)
	}
	fatal := rt.fatalErr
	pending := make([]*Handle, 0, len(rt.order))
	for _, j := range rt.order {
		pending = append(pending, j.h)
	}
	rt.cond.Broadcast()
	rt.mu.Unlock()
	for _, h := range pending {
		h.finish(fatal) // no-op on already-finished handles
	}
}

// Drain stops admission, waits for every submitted job to finish
// locally, shuts the machine down, and returns the first error (a job
// error, a node error, or a transport failure).
func (rt *Runtime) Drain() error {
	rt.mu.Lock()
	rt.draining = true
	handles := make([]*Handle, len(rt.order))
	for i, j := range rt.order {
		handles[i] = j.h
	}
	rt.cond.Broadcast()
	rt.mu.Unlock()
	var first error
	for _, h := range handles {
		if err := h.Wait(); err != nil && first == nil {
			first = err
		}
	}
	rt.mu.Lock()
	rt.closed = true
	fatal := rt.fatalErr
	rt.mu.Unlock()
	rt.m.Shutdown()
	if err := <-rt.runErr; err != nil && first == nil {
		first = err
	}
	if fatal != nil && first == nil {
		first = fatal
	}
	return first
}

// StatsClassifier maps a raw message tag to its job key for transports
// counting per-job delivered payload (see mpx.TransportStats); the
// standalone key 0 is reported too, as tenant 0 / job 0.
func StatsClassifier(tag int) (key int, ok bool) { return JobKeyOf(tag), true }
