package main

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"math/rand"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/comm"
	"repro/internal/cube"
	"repro/internal/mpx"
	"repro/internal/svc"
)

// The run shape. BENCHMARK.json's run_seconds equals runSeconds, and the
// op counts in the workload table are per slice at that length: a run
// given another -seconds scales them in proportion, so both commits of a
// comparison always do identical work.
const (
	runSeconds = 25

	fullCheckEvery = 8 // full byte-compare on every 8th timed op (and all warm-up)

	svcClients = 8 // closed loop: each client waits for its job before the next
	svcTenants = 4
	// svcTenantCap is a hard cap on jobs per tenant per cluster. Past
	// 4095 a tenant's job IDs wrap onto keys the dispatcher still holds
	// as done, early traffic is dropped and the cluster hangs (README,
	// "What the prototype hit"). Hence a fresh cluster per slice.
	svcTenantCap = 3000
)

type kind int

const (
	bcastMSBT kind = iota
	scatterBST
	allToAll
	svcMix
)

// workload is one fixed set of inputs. network "" is the in-process
// channel transport.
type workload struct {
	name    string
	kind    kind
	dim     int
	network string
	size    int // payload bytes: whole for bcast, per destination or pair otherwise
	slices  int // fresh meshes per run
	ops     int // timed ops per slice at runSeconds
	warm    int // untimed ops per slice, at least one per root
}

var workloads = []*workload{
	{name: "bcast_msbt_1m_tcp_d4", kind: bcastMSBT, dim: 4, network: "tcp", size: 1 << 20, slices: 10, ops: 200, warm: 16},
	{name: "scatter_bst_1k_tcp_d6", kind: scatterBST, dim: 6, network: "tcp", size: 1 << 10, slices: 20, ops: 1000, warm: 64},
	{name: "alltoall_1k_inproc_d6", kind: allToAll, dim: 6, network: "", size: 1 << 10, slices: 20, ops: 220, warm: 8},
	{name: "svc_mix_uds_d4", kind: svcMix, dim: 4, network: "unix", slices: 20, ops: 2400, warm: 48},
}

func (w *workload) ranks() int { return 1 << uint(w.dim) }

// opsFor scales the per-slice op count to a run of the given length.
func (w *workload) opsFor(seconds int) (int, error) {
	ops := max(1, w.ops*seconds/runSeconds)
	if w.kind == svcMix && (w.warm+ops+svcTenants-1)/svcTenants > svcTenantCap {
		return 0, fmt.Errorf("%s: %d jobs per slice is more than %d per tenant on one cluster", w.name, w.warm+ops, svcTenantCap)
	}
	return ops, nil
}

// destBytes is the payload op i delivers to final destinations: what
// goodput and transport.relay_factor count as useful.
func (w *workload) destBytes(seed int64, i int) int {
	n := w.ranks()
	switch w.kind {
	case bcastMSBT, scatterBST:
		return (n - 1) * w.size
	case allToAll:
		return n * (n - 1) * w.size
	}
	s := comm.MixedJobSpec(w.dim, svcTenants, seed, i)
	if s.Kind == comm.JobAllReduce {
		return n * 8
	}
	return (n - 1) * s.Bytes
}

// inputs are a workload's generated inputs: the program sees only these.
// base is what receivers compare against; send holds one private copy per
// rank, into which the op is stamped before the rank sends it.
type inputs struct {
	seed  int64
	base  []byte
	send  [][]byte
	parts [][][]byte // parts[r][d] = send[r][d*size:(d+1)*size]
	roots []int      // op i is rooted at roots[i%len(roots)]

	// corrupt, when set, damages what rank r received in op i before it
	// is checked. The smoke test uses it to show a bad payload is counted.
	corrupt func(r, op int) bool
}

func newInputs(w *workload, seed int64) *inputs {
	n := w.ranks()
	rng := rand.New(rand.NewSource(seed))
	in := &inputs{seed: seed, roots: rng.Perm(n)}
	if w.kind == svcMix {
		return in
	}
	total := w.size
	if w.kind != bcastMSBT {
		total *= n
	}
	in.base = make([]byte, total)
	rng.Read(in.base)
	in.send = make([][]byte, n)
	in.parts = make([][][]byte, n)
	for r := range in.send {
		in.send[r] = append([]byte(nil), in.base...)
		if w.kind == bcastMSBT {
			continue
		}
		in.parts[r] = make([][]byte, n)
		for d := range in.parts[r] {
			in.parts[r][d] = in.send[r][d*w.size : (d+1)*w.size]
		}
	}
	return in
}

func (in *inputs) root(op int) int { return in.roots[op%len(in.roots)] }

const stampLen = 8

func stamp(b []byte, op, sender int) {
	binary.LittleEndian.PutUint32(b, uint32(op))
	binary.LittleEndian.PutUint32(b[4:], uint32(sender))
}

// stamped reports whether b has the given length and carries (op, sender).
func stamped(b []byte, size, op, sender int) bool {
	return len(b) == size &&
		binary.LittleEndian.Uint32(b) == uint32(op) &&
		binary.LittleEndian.Uint32(b[4:]) == uint32(sender)
}

// prepare stamps the op into the buffers rank r sends in it. It runs in
// the barrier action, while every rank is parked: in-process receivers
// hold references into the sender's buffer until they have checked it.
func (in *inputs) prepare(w *workload, r, op int) {
	switch {
	case w.kind == bcastMSBT && r == in.root(op):
		stamp(in.send[r], op, r)
	case w.kind == scatterBST && r == in.root(op), w.kind == allToAll:
		for _, p := range in.parts[r] {
			stamp(p, op, r)
		}
	}
}

// call runs op on rank r and returns what the rank received: one payload,
// or one per sender for the all-to-all. one is the rank's scratch slot,
// so that wrapping a single payload allocates nothing.
func (in *inputs) call(w *workload, c *comm.Comm, r, op int, one *[1][]byte) ([][]byte, error) {
	root := in.root(op)
	var err error
	switch w.kind {
	case bcastMSBT:
		var data []byte
		if r == root {
			data = in.send[r]
		}
		one[0], err = c.BcastMSBT(cube.NodeID(root), data)
	case scatterBST:
		var data [][]byte
		if r == root {
			data = in.parts[r]
		}
		one[0], err = c.Scatter(cube.NodeID(root), data)
	case allToAll:
		return c.AllToAll(in.parts[r])
	}
	return one[:], err
}

// check verifies what rank r received in op: the stamp and the length
// always, every byte when full.
func (in *inputs) check(w *workload, r, op int, got [][]byte, full bool) bool {
	switch w.kind {
	case bcastMSBT:
		return stamped(got[0], w.size, op, in.root(op)) &&
			(!full || bytes.Equal(got[0][stampLen:], in.base[stampLen:]))
	case scatterBST:
		want := in.base[r*w.size : (r+1)*w.size]
		return stamped(got[0], w.size, op, in.root(op)) &&
			(!full || bytes.Equal(got[0][stampLen:], want[stampLen:]))
	}
	if len(got) != w.ranks() {
		return false
	}
	want := in.base[r*w.size : (r+1)*w.size]
	for s, b := range got {
		if !stamped(b, w.size, op, s) || (full && !bytes.Equal(b[stampLen:], want[stampLen:])) {
			return false
		}
	}
	return true
}

// barrier is the bench-owned cyclic barrier that makes a collective
// workload a lockstep closed loop: no rank starts op i+1 before every rank
// has returned from op i. It is not c.Barrier(), so no benchmark traffic
// enters the system. The last rank to arrive runs action while the others
// are still parked, then all are released.
type barrier struct {
	mu      sync.Mutex
	cond    *sync.Cond
	n       int
	waiting int
	gen     int
	broken  bool
	action  func()
}

func newBarrier(n int, action func()) *barrier {
	b := &barrier{n: n, action: action}
	b.cond = sync.NewCond(&b.mu)
	return b
}

// wait parks until all n ranks have arrived; false means the barrier was
// broken by a failing rank.
func (b *barrier) wait() bool {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.broken {
		return false
	}
	b.waiting++
	if b.waiting == b.n {
		b.action()
		b.waiting = 0
		b.gen++
		b.cond.Broadcast()
		return true
	}
	for gen := b.gen; gen == b.gen && !b.broken; {
		b.cond.Wait()
	}
	return !b.broken
}

// abort releases every parked rank; the slice is over.
func (b *barrier) abort() {
	b.mu.Lock()
	b.broken = true
	b.cond.Broadcast()
	b.mu.Unlock()
}

// sliceResult is what one slice (one fresh mesh) measured.
type sliceResult struct {
	setup      time.Duration // launch to first collective returned everywhere
	latMs      []float64     // per timed op: release to last rank returned
	wall       time.Duration // first timed release to last completion
	begin, end snapshot      // around the timed window
	attempted  int
	failed     int
	err        error // first typed error, if the slice broke

	stats   mpx.TransportStats // socket slices: summed over endpoints, warm-up included
	tau, tc float64            // fitted link profile (s/frame, s/byte); 0 when unsettled

	// Traced slices only.
	callMs     []float64 // per rank and op: time inside the collective
	rootCallMs []float64 // the root's
	skewMs     []float64 // per op: last minus first rank return
	goroutines int       // peak runtime.NumGoroutine

	doneAt []time.Duration // svc: completion offsets of the timed jobs
}

func (res *sliceResult) ops() int { return len(res.latMs) }

// sliceState is the shared state of one collective slice. The per-rank
// arrays are written by their rank between barriers and read by the
// barrier action, which runs while every rank is parked.
type sliceState struct {
	w          *workload
	in         *inputs
	rec        *recorder
	warm, ops  int
	launch     time.Time
	k          int       // ops released so far
	t0         time.Time // release of the op in flight
	firstT0    time.Time
	start, end []time.Time
	bad        []bool
	res        sliceResult
}

// onRelease is the barrier action: it closes the op that just completed
// and stamps the release of the next.
func (st *sliceState) onRelease() {
	k := st.k
	if k > 0 {
		last := st.closeOp(k - 1)
		if k == 1 {
			st.res.setup = last.Sub(st.launch)
		}
		if k == st.warm+st.ops && st.ops > 0 {
			st.res.end = takeSnapshot()
			st.res.wall = last.Sub(st.firstT0)
		}
	}
	if st.rec != nil {
		st.res.goroutines = max(st.res.goroutines, runtime.NumGoroutine())
	}
	if k == st.warm && st.ops > 0 {
		runtime.GC()
		st.res.begin = takeSnapshot()
	}
	if k < st.warm+st.ops {
		for r := range st.end {
			st.in.prepare(st.w, r, k)
		}
	}
	st.k++
	st.t0 = time.Now()
	if k == st.warm {
		st.firstT0 = st.t0
	}
}

// closeOp accounts op i and returns when its last rank returned.
func (st *sliceState) closeOp(i int) time.Time {
	first, last := st.end[0], st.end[0]
	bad := false
	for r, e := range st.end {
		if e.Before(first) {
			first = e
		}
		if e.After(last) {
			last = e
		}
		bad = bad || st.bad[r]
		st.bad[r] = false
	}
	st.res.attempted++
	if bad {
		st.res.failed++
	}
	if i < st.warm {
		return last
	}
	st.res.latMs = append(st.res.latMs, ms(last.Sub(st.t0)))
	if st.rec != nil {
		st.res.skewMs = append(st.res.skewMs, ms(last.Sub(first)))
		op := st.rec.add(st.w.name, "op", i, -1, -1, st.t0, last)
		root := st.w.kind != allToAll
		for r := range st.end {
			st.rec.add(st.w.name, "rank.call", i, r, op, st.start[r], st.end[r])
			d := ms(st.end[r].Sub(st.start[r]))
			st.res.callMs = append(st.res.callMs, d)
			if root && r == st.in.root(i) {
				st.res.rootCallMs = append(st.res.rootCallMs, d)
			}
		}
	}
	return last
}

var errSliceBroken = errors.New("bench: slice aborted by a failing rank")

// runCollectiveSlice brings up a fresh mesh on network, runs warm untimed
// and ops timed ops of w in lockstep, tears the mesh down and returns what
// it measured. rec non-nil records spans.
func runCollectiveSlice(w *workload, in *inputs, network string, warm, ops int, rec *recorder) sliceResult {
	n := w.ranks()
	st := &sliceState{
		w: w, in: in, rec: rec, warm: warm, ops: ops,
		start: make([]time.Time, n), end: make([]time.Time, n), bad: make([]bool, n),
	}
	st.res.latMs = make([]float64, 0, ops)
	bar := newBarrier(n, st.onRelease)
	profs := make([]mpx.LinkProfile, n)
	total := warm + ops

	program := func(c *comm.Comm) (err error) {
		r := int(c.Rank())
		finished := false
		// A rank that leaves early, by error or by the runtime's abort
		// panic, must not leave the others parked in the barrier.
		defer func() {
			if !finished {
				bar.abort()
			}
		}()
		var one [1][]byte
		for i := 0; i < total; i++ {
			if !bar.wait() {
				return errSliceBroken
			}
			if rec != nil {
				st.start[r] = time.Now()
			}
			got, err := in.call(w, c, r, i, &one)
			st.end[r] = time.Now()
			if err != nil {
				return err
			}
			if in.corrupt != nil && in.corrupt(r, i) {
				b := append([]byte(nil), got[0]...)
				b[len(b)-1] ^= 0xFF
				got[0] = b
			}
			full := i < warm || (i-warm)%fullCheckEvery == 0
			if !in.check(w, r, i, got, full) {
				st.bad[r] = true
			}
		}
		if !bar.wait() { // closes the last op
			return errSliceBroken
		}
		if p, ok := c.Profile(); ok && p.Valid() {
			profs[r] = p
		}
		finished = true
		return nil
	}

	st.launch = time.Now()
	var err error
	if network == "" {
		err = comm.Run(w.dim, program)
	} else {
		err = comm.RunTCPWith(w.dim, comm.TCPRunOptions{
			Network:   network,
			StatsSink: func(s mpx.TransportStats) { st.res.stats = s },
		}, program)
	}
	res := st.res
	if err != nil {
		res.err = err
		// Ops that never completed count as failed.
		res.failed += total - res.attempted
		res.attempted = total
	}
	var nprof float64
	for _, p := range profs {
		if p.Valid() {
			res.tau += p.Tau
			res.tc += p.Tc
			nprof++
		}
	}
	res.tau, res.tc = ratio(res.tau, nprof), ratio(res.tc, nprof)
	return res
}

// runSvcSlice starts a fresh cluster (in-process when network is ""),
// lets svcClients closed-loop clients pull the job mix through it, drains
// it and returns what it measured. An op is a job: SubmitSpec to Wait.
// The jobs verify their own payloads on every rank (comm.JobSpec), so a
// wrong byte comes back as the job's error.
func runSvcSlice(w *workload, in *inputs, network string, warm, ops int, rec *recorder) sliceResult {
	var res sliceResult
	total := warm + ops
	launch := time.Now()
	var cl *comm.Cluster
	if network == "" {
		cl = comm.StartLocalCluster(w.dim, svc.Options{})
	} else {
		var err error
		cl, err = comm.StartCluster(w.dim, svc.Options{}, comm.TCPRunOptions{Network: network})
		if err != nil {
			res.err = err
			res.attempted, res.failed = total, total
			return res
		}
	}

	// clients runs jobs [lo, hi) and returns each job's latency and
	// completion time; a failed job has latency -1.
	clients := func(lo, hi int, timed bool) ([]float64, []time.Time) {
		lat := make([]float64, hi-lo)
		done := make([]time.Time, hi-lo)
		errs := make([]error, hi-lo)
		peaks := make([]int, svcClients)
		var next atomic.Int64
		next.Store(int64(lo))
		var wg sync.WaitGroup
		for c := 0; c < svcClients; c++ {
			wg.Add(1)
			go func(c int) {
				defer wg.Done()
				for {
					i := int(next.Add(1) - 1)
					if i >= hi {
						return
					}
					t0 := time.Now()
					h, err := cl.SubmitSpec(comm.MixedJobSpec(w.dim, svcTenants, in.seed, i))
					t1 := time.Now()
					if err == nil {
						err = h.Wait()
					}
					t2 := time.Now()
					lat[i-lo], done[i-lo], errs[i-lo] = ms(t2.Sub(t0)), t2, err
					if err != nil {
						lat[i-lo] = -1
					}
					if rec != nil && timed {
						op := rec.add(w.name, "op", i, -1, -1, t0, t2)
						rec.add(w.name, "submit", i, -1, op, t0, t1)
						rec.add(w.name, "wait", i, -1, op, t1, t2)
						peaks[c] = max(peaks[c], runtime.NumGoroutine())
					}
				}
			}(c)
		}
		wg.Wait()
		for _, p := range peaks {
			res.goroutines = max(res.goroutines, p)
		}
		for i, err := range errs {
			res.attempted++
			if err != nil {
				res.failed++
				if res.err == nil {
					res.err = fmt.Errorf("job %d: %w", lo+i, err)
				}
			}
		}
		return lat, done
	}

	clients(0, 1, false)
	res.setup = time.Since(launch)
	if warm > 1 {
		clients(1, warm, false)
	}
	if ops > 0 {
		runtime.GC()
		res.begin = takeSnapshot()
		t0 := time.Now()
		lat, done := clients(warm, total, true)
		res.end = takeSnapshot()
		last := t0
		for i, l := range lat {
			if l >= 0 {
				res.latMs = append(res.latMs, l)
			}
			res.doneAt = append(res.doneAt, done[i].Sub(t0))
			if done[i].After(last) {
				last = done[i]
			}
		}
		res.wall = last.Sub(t0)
	}
	res.stats = cl.Stats()
	if err := cl.Drain(); err != nil && res.err == nil {
		res.err = err
	}
	return res
}

// runSlice runs one slice of w on the given network.
func runSlice(w *workload, in *inputs, network string, warm, ops int, rec *recorder) sliceResult {
	if w.kind == svcMix {
		return runSvcSlice(w, in, network, warm, ops, rec)
	}
	return runCollectiveSlice(w, in, network, warm, ops, rec)
}
