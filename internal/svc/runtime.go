package svc

import (
	"errors"
	"fmt"
	"slices"
	"sync"
	"time"

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
	// 64.
	TenantQueue int
}

func (o Options) withDefaults() Options {
	if o.TenantInFlight <= 0 {
		o.TenantInFlight = 2
	}
	if o.TenantQueue <= 0 {
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
// for exactly this job's envelopes (fed by the node's dispatcher). The
// runtime makes one per worker and refills it for each job the worker
// runs, so a program must not keep the pointer past its return.
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

	// Kept is state a program may keep for the next job this worker runs
	// on this node (comm's job communicator keeps itself here). The
	// runtime hands it on only after the job's stream closed, so nothing
	// of the old job is delivered into it any more, and clears it when a
	// job panics. Like the rest of the context, it is valid only during
	// the call.
	Kept any
}

// Handle tracks one submitted job. Wait blocks until the job finished
// on every node this runtime hosts (an in-process machine hosts the
// whole cube; in a multi-process deployment each process observes its
// own completion — the submission sequence must match across processes).
type Handle struct {
	Tenant, Job int
	SubmittedAt time.Time

	// DoneAt and Payload are valid after Wait/Done. Payload is the
	// bytes the job's messages delivered to the nodes this runtime
	// hosts; a multi-process deployment sums its processes' handles.
	DoneAt  time.Time
	Payload int64

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

func (h *Handle) finish(err error, payload int64) {
	h.once.Do(func() {
		h.err, h.Payload = err, payload
		h.DoneAt = time.Now()
		close(h.done)
	})
}

// errDraining is returned by Submit after Drain began.
var errDraining = errors.New("svc: runtime is draining")

// job is the runtime's internal record of one submission; Submit hands
// out a pointer to its Handle, made with it.
type job struct {
	tenant, id int
	key, base  int
	prog       Program
	h          Handle
	remaining  int   // local node executions outstanding
	started    int   // local node executions claimed by a worker
	payload    int64 // bytes delivered so far to the nodes that finished it
	err        error
}

type tenantState struct {
	// queue holds the tenant's unfinished jobs in submission order;
	// per-node cursors index it.
	queue       []*job
	seq         int // total submissions (job IDs derive from it)
	outstanding int // submitted minus locally completed
}

// nodeState is one hosted node's scheduling position and its workers.
// All nodeStates are guarded by the runtime's single mutex — admission is
// a coordination problem, not a throughput problem (jobs are).
type nodeState struct {
	nd *mpx.Node
	d  *Dispatcher

	cursor   []int // by tenant: next queue index to start
	inflight []int // by tenant: started-not-finished here
	rrPos    int   // round-robin position in rt.rr

	// Workers run the node's jobs; between jobs they park on idle (over
	// rt.mu). At most one is on its way to claim a job: a parked worker
	// summon signalled (signaled), or a worker that has not yet taken
	// the lock since it started — by summon, or nodeMain itself
	// (starting).
	idle     sync.Cond
	parked   int
	signaled bool
	starting bool
	workers  sync.WaitGroup
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
	cond     *sync.Cond     // Submit's backpressure wait
	tenants  []*tenantState // by tenant; nil until its first submission
	rr       []int          // tenants in first-submission order (RR ring)
	nodes    []*nodeState   // hosted nodes, as their nodeMain registers
	size     int            // hosted nodes
	draining bool
	closed   bool  // Drain finished its shutdown; machine-down is expected
	jobErr   error // the first error a handle reported
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
		tenants: make([]*tenantState, MaxTenant+1),
		size:    len(m.Transport().Locals()),
		runErr:  make(chan error, 1),
	}
	rt.cond = sync.NewCond(&rt.mu)
	return rt
}

// Machine returns the machine the runtime schedules onto.
func (rt *Runtime) Machine() *mpx.Machine { return rt.m }

// Start attaches every hosted node's dispatcher and starts its first
// worker. Idempotent.
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
			return nil, errDraining
		}
		if ts.outstanding < rt.opt.TenantQueue {
			break
		}
		rt.cond.Wait()
	}
	if ts.outstanding >= MaxJob {
		return nil, fmt.Errorf("svc: tenant %d has %d jobs outstanding; job-ID space exhausted", tenant, ts.outstanding)
	}
	id := 1 + ts.seq%MaxJob // job 0 is the standalone/legacy space
	ts.seq++
	j := &job{
		tenant: tenant, id: id,
		key: JobKey(tenant, id), base: Tag{Tenant: tenant, Job: id}.MustEncode(),
		prog:      prog,
		remaining: rt.size,
		h: Handle{
			Tenant: tenant, Job: id,
			SubmittedAt: time.Now(),
			done:        make(chan struct{}),
		},
	}
	ts.queue = append(ts.queue, j)
	ts.outstanding++
	// Where j is startable — next of its tenant, with room in the window —
	// it is the only startable job without a claimer (see next); where an
	// earlier job is startable, that one has a claimer, which summons the
	// next.
	for _, ns := range rt.nodes {
		if ns.cursor[tenant] == len(ts.queue)-1 && ns.inflight[tenant] < rt.opt.TenantInFlight {
			rt.summon(ns)
		}
	}
	return &j.h, nil
}

// live calls f on every unfinished job (rt.mu held).
func (rt *Runtime) live(f func(*job)) {
	for _, t := range rt.rr {
		for _, j := range rt.tenants[t].queue {
			f(j)
		}
	}
}

// nodeMain attaches the node's dispatcher to its inbox and becomes the
// node's first worker; it returns once every worker of the node has
// exited, at Drain or when the machine dies.
func (rt *Runtime) nodeMain(nd *mpx.Node) error {
	d := NewDispatcher()
	// No Land: jobs here carry at most a few hundred bytes per part, far
	// below what a link asks about (DESIGN.md §18).
	nd.Attach(mpx.Consumer{Sink: d.Deliver, Closed: func() {
		d.Down()
		rt.noteDown()
	}})
	ns := &nodeState{
		nd: nd, d: d,
		cursor:   make([]int, MaxTenant+1),
		inflight: make([]int, MaxTenant+1),
		starting: true,
	}
	ns.idle.L = &rt.mu
	rt.mu.Lock()
	rt.nodes = append(rt.nodes, ns)
	// jobDone aborts a failed job on the dispatchers registered at that
	// moment; a node that registers later catches up here, or its share
	// of the job would wait for traffic that never comes.
	rt.live(func(j *job) {
		if j.err != nil && j.remaining > 0 {
			d.Abort(j.key)
		}
	})
	rt.mu.Unlock()
	ns.workers.Add(1)
	rt.work(ns)
	ns.workers.Wait()
	return nil
}

// work is one worker of node ns. Jobs run on workers that park between
// jobs instead of on a fresh goroutine each: a worker keeps the stack its
// first job grew down the send path, and its JobContext, Kept included.
// A worker claims its own jobs — the first on arrival, each next one in
// the lock hold that retires the last — and parks only when nothing is
// startable.
func (rt *Runtime) work(ns *nodeState) {
	defer ns.workers.Done()
	var key int
	jc := &JobContext{
		Node: ns.nd, Dim: rt.n,
		Attach: func(sink func(mpx.Envelope), closed func()) { ns.d.Open(key, sink, closed) },
	}
	rt.mu.Lock()
	ns.starting = false
	j := rt.next(ns)
	rt.mu.Unlock()
	for j != nil {
		key = j.key
		jc.Tenant, jc.Job, jc.Base = j.tenant, j.id, j.base
		err := runJob(j, jc)
		j = rt.jobDone(ns, j, err, ns.d.CloseJob(j.key))
	}
}

// runJob executes one node's share of a job, converting panics —
// including the machine-shutdown abort that unwinds a blocked Send —
// into job errors so one bad job cannot take its worker down. A panic
// may leave whatever the program kept half-way through a job, so Kept
// is cleared.
func runJob(j *job, jc *JobContext) (err error) {
	defer func() {
		if r := recover(); r != nil {
			jc.Kept = nil
			err = fmt.Errorf("svc: job (tenant %d, job %d) aborted on node %d: %v", j.tenant, j.id, jc.Node.ID, r)
		}
	}()
	return j.prog(jc)
}

// next claims node ns's next startable job for the calling worker (rt.mu
// held), parking the worker until there is one; nil once the runtime
// drained or died, when the worker exits. A claim that leaves another job
// startable summons a worker for it, so every startable job has a
// claimer. Admission: FIFO within each tenant under its in-flight window;
// round-robin across tenants so no tenant with budget is starved.
func (rt *Runtime) next(ns *nodeState) *job {
	for {
		if rt.fatalErr != nil {
			return nil
		}
		if j := rt.claim(ns); j != nil {
			if rt.startable(ns) {
				rt.summon(ns)
			}
			return j
		}
		if rt.drained(ns) {
			ns.idle.Broadcast() // the node's parked workers exit too
			return nil
		}
		ns.parked++
		ns.idle.Wait()
		ns.parked--
		ns.signaled = false
	}
}

// summon puts a worker on its way to claim a job startable on ns (rt.mu
// held): the parked one signalled longest ago, or a new one when none is
// parked. Nothing is done while a worker is already on its way — it
// claims the job, and summons again if another is left. A worker starts
// only when every existing one is running a job and a job is startable,
// so a node never has more workers than admission lets jobs run at once
// (tenants × TenantInFlight).
func (rt *Runtime) summon(ns *nodeState) {
	switch {
	case ns.signaled || ns.starting:
	case ns.parked > 0:
		ns.signaled = true
		ns.idle.Signal()
	default:
		ns.starting = true
		ns.workers.Add(1)
		go rt.work(ns)
	}
}

// claim scans tenants round-robin from the node's position and takes the
// first startable job off its tenant's queue, recording that this node
// starts it; nil when none is startable (rt.mu held).
func (rt *Runtime) claim(ns *nodeState) *job {
	nt := len(rt.rr)
	for i := 0; i < nt; i++ {
		t := rt.rr[(ns.rrPos+i)%nt]
		q, cur := rt.tenants[t].queue, ns.cursor[t]
		if cur < len(q) && ns.inflight[t] < rt.opt.TenantInFlight {
			ns.cursor[t] = cur + 1
			ns.rrPos = (ns.rrPos + i + 1) % nt
			ns.inflight[t]++
			q[cur].started++
			return q[cur]
		}
	}
	return nil
}

// startable reports whether ns may start a job now (rt.mu held).
func (rt *Runtime) startable(ns *nodeState) bool {
	for _, t := range rt.rr {
		if ns.cursor[t] < len(rt.tenants[t].queue) && ns.inflight[t] < rt.opt.TenantInFlight {
			return true
		}
	}
	return false
}

// drained reports whether admission stopped and this node has started
// every submitted job (rt.mu held): its workers may exit.
func (rt *Runtime) drained(ns *nodeState) bool {
	if !rt.draining {
		return false
	}
	for _, t := range rt.rr {
		if ns.cursor[t] < len(rt.tenants[t].queue) {
			return false
		}
	}
	return true
}

// jobDone retires one node's execution of j, which delivered payload
// bytes to the node, and, in the same hold of rt.mu, claims the worker's
// next job (see next), parking it if there is none. The job's first
// error is kept, and a failed job is aborted on every local dispatcher so
// sibling nodes blocked on its traffic unwind instead of hanging. A job
// finished on every hosted node leaves its tenant's queue.
func (rt *Runtime) jobDone(ns *nodeState, j *job, err error, payload int64) *job {
	rt.mu.Lock()
	defer rt.mu.Unlock()
	ns.inflight[j.tenant]--
	j.payload += payload
	if err != nil && j.err == nil {
		j.err = err
		for _, o := range rt.nodes {
			o.d.Abort(j.key)
		}
	}
	j.remaining--
	if j.remaining == 0 {
		ts := rt.tenants[j.tenant]
		ts.outstanding--
		rt.cond.Broadcast()
		rt.finish(j, j.err)
		// Every node's cursor is past a finished job: it leaves the queue,
		// and the cursors move down with it.
		i := slices.Index(ts.queue, j)
		ts.queue = slices.Delete(ts.queue, i, i+1)
		for _, o := range rt.nodes {
			o.cursor[j.tenant]--
		}
	}
	return rt.next(ns)
}

// finish completes j's handle with err, once, and keeps the first error
// any handle reported for Drain (rt.mu held).
func (rt *Runtime) finish(j *job, err error) {
	if err != nil && rt.jobErr == nil {
		rt.jobErr = err
	}
	j.h.finish(err, j.payload)
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
	rt.live(func(j *job) { rt.finish(j, rt.fatalErr) }) // once per handle
	rt.wakeAll()
	rt.mu.Unlock()
}

// wakeAll wakes every waiter (rt.mu held): submitters blocked on
// backpressure and every node's parked workers, to see the runtime drain
// or die.
func (rt *Runtime) wakeAll() {
	rt.cond.Broadcast()
	for _, ns := range rt.nodes {
		ns.idle.Broadcast()
	}
}

// StopAdmission makes every later Submit fail with errDraining, and so
// wakes submitters blocked on backpressure; jobs already submitted still
// run. Drain calls it first. Idempotent.
func (rt *Runtime) StopAdmission() {
	rt.mu.Lock()
	rt.draining = true
	rt.wakeAll()
	rt.mu.Unlock()
}

// Drain stops admission, waits for every submitted job to finish
// locally, shuts the machine down, and returns the first error (a job
// error, a node error, or a transport failure).
func (rt *Runtime) Drain() error {
	rt.StopAdmission()
	rt.mu.Lock()
	var live []*Handle
	rt.live(func(j *job) { live = append(live, &j.h) })
	rt.mu.Unlock()
	for _, h := range live {
		h.Wait()
	}
	rt.mu.Lock()
	rt.closed = true
	first, fatal := rt.jobErr, rt.fatalErr
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
