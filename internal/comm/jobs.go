// Collective-as-a-service glue: adapters that run comm's collective
// state machines as jobs under the internal/svc runtime, deterministic
// self-verifying job programs shared by the e2e tests, the bench6 load
// generator and the hypercomm jobs drill, and a Cluster harness that
// runs the service over loopback TCP (one endpoint + machine + runtime
// per rank, the in-process twin of a multi-process deployment).
package comm

import (
	"encoding/binary"
	"fmt"
	"sync"

	"repro/internal/cube"
	"repro/internal/mpx"
	"repro/internal/svc"
	"repro/internal/transport"
)

// jobProgram adapts a collective program into an svc.Program: each node's
// share runs on a communicator whose tags live in the job's slice of the
// tag space (tenant/job base bits) and whose mailbox the node's
// dispatcher feeds with exactly the job's traffic. The communicator is
// the worker's: kept in JobContext.Kept and reset for each job it runs
// (see Comm.reset), it is as good as new and valid only until program
// returns. So are the results of its collectives: when program returns
// without error, every lease they hold goes back behind the send fence,
// and an idle worker holds no receive record; an error exit forfeits
// them. Unlike RunOn, an erroring job does NOT shut the machine down
// — isolation is the runtime's concern (it aborts the job's local
// mailboxes), so sibling jobs keep running.
func jobProgram(program func(c *Comm) error) svc.Program {
	return func(jc *svc.JobContext) error {
		c, _ := jc.Kept.(*Comm)
		if c == nil || c.nd != jc.Node || c.n != jc.Dim {
			c = newComm(jc.Node, jc.Dim, jc.Base, func(mpx.Consumer) {}) // attached below, for every job
			jc.Kept = c
		}
		c.reset(jc.Base)
		// The dispatcher takes no posted receives: job payloads are small
		// (DESIGN.md §18), so a job's BcastMSBT always finishes by copying.
		jc.Attach(c.sink, c.closed)
		defer c.stop()
		err := program(c)
		if err != nil {
			c.forfeit(0, len(c.leases))
		} else {
			c.giveBack(len(c.leases))
		}
		c.split = 0
		return err
	}
}

// JobKind selects a collective for a JobSpec.
type JobKind int

const (
	JobBcast JobKind = iota
	JobScatter
	JobAllReduce
	numJobKinds
)

func (k JobKind) String() string {
	switch k {
	case JobBcast:
		return "bcast"
	case JobScatter:
		return "scatter"
	case JobAllReduce:
		return "allreduce"
	}
	return fmt.Sprintf("kind(%d)", int(k))
}

// JobSpec describes one deterministic, self-verifying collective job:
// payloads derive from Seed, so every rank independently computes the
// expected bytes and compares them against what the collective
// delivered — byte-exact verification with no side channel, usable
// unchanged in-process, over loopback TCP, and across OS processes.
type JobSpec struct {
	Tenant int
	Kind   JobKind
	Root   cube.NodeID
	Seed   int64
	// Bytes is the payload size: total for broadcast, per-destination
	// for scatter, ignored for allreduce (8-byte counters).
	Bytes int
}

// MixedJobSpec returns the i-th spec of a deterministic mixed workload:
// kinds rotate bcast/scatter/allreduce, roots sweep the cube, tenants
// rotate over nTenants (tenant IDs 1..nTenants), seeds derive from
// seed+i. One formula shared by tests, bench6 and the multi-process
// drill, so every process generates the identical job sequence.
func MixedJobSpec(n int, nTenants int, seed int64, i int) JobSpec {
	size := 1 << uint(n)
	return JobSpec{
		Tenant: 1 + i%nTenants,
		Kind:   JobKind(i % int(numJobKinds)),
		Root:   cube.NodeID(i % size),
		Seed:   seed + int64(i),
		Bytes:  64 + (i%7)*97,
	}
}

// word is 8 bytes of the payload stream a seed names: splitmix64 in
// counter mode, so the stream is a pure function of (seed, offset) that
// any rank evaluates at any window with no state to seed or carry.
func word(seed int64, i int) uint64 {
	z := uint64(seed) + (uint64(i)+1)*0x9E3779B97F4A7C15
	z = (z ^ z>>30) * 0xBF58476D1CE4E5B9
	z = (z ^ z>>27) * 0x94D049BB133111EB
	return z ^ z>>31
}

// fill writes bytes off..off+len(dst) of seed's stream (words laid out
// little-endian) into dst. Only a root calls it, for bytes it must send.
func fill(dst []byte, seed int64, off int) {
	for len(dst) > 0 {
		w, sh := word(seed, off>>3), off&7
		if sh == 0 && len(dst) >= 8 {
			binary.LittleEndian.PutUint64(dst, w)
			dst, off = dst[8:], off+8
			continue
		}
		for ; sh < 8 && len(dst) > 0; sh++ {
			dst[0] = byte(w >> (8 * uint(sh)))
			dst, off = dst[1:], off+1
		}
	}
}

// payloadEqual reports whether got is bytes off..off+len(got) of seed's
// stream: the self-check every rank runs over every byte it received,
// against bytes derived independently of the sender and never stored.
func payloadEqual(got []byte, seed int64, off int) bool {
	for len(got) > 0 {
		w, sh := word(seed, off>>3), off&7
		if sh == 0 && len(got) >= 8 {
			if binary.LittleEndian.Uint64(got) != w {
				return false
			}
			got, off = got[8:], off+8
			continue
		}
		for ; sh < 8 && len(got) > 0; sh++ {
			if got[0] != byte(w>>(8*uint(sh))) {
				return false
			}
			got, off = got[1:], off+1
		}
	}
	return true
}

// contribution is rank r's allreduce input under seed.
func contribution(seed int64, r int) uint64 {
	return uint64(seed)*0x9E3779B97F4A7C15 + uint64(r)*2654435761
}

// Program returns the spec's collective as a runnable job program that
// verifies its own result on every rank.
func (s JobSpec) Program() svc.Program {
	return jobProgram(func(c *Comm) error { return s.run(c) })
}

func (s JobSpec) run(c *Comm) error {
	size := c.Size()
	switch s.Kind {
	case JobBcast:
		var in []byte
		if c.Rank() == s.Root {
			in = make([]byte, s.Bytes)
			fill(in, s.Seed, 0)
		}
		got, err := c.Bcast(s.Root, in)
		if err != nil {
			return err
		}
		if len(got) != s.Bytes || !payloadEqual(got, s.Seed, 0) {
			return fmt.Errorf("comm: job %v: rank %d: bcast payload mismatch (%d bytes)", s, c.Rank(), len(got))
		}
	case JobScatter:
		// Rank r's slice is window [r*Bytes, (r+1)*Bytes) of the stream.
		var data [][]byte
		if c.Rank() == s.Root {
			all := make([]byte, s.Bytes*size)
			fill(all, s.Seed, 0)
			data = make([][]byte, size)
			for i := range data {
				data[i] = all[i*s.Bytes : (i+1)*s.Bytes]
			}
		}
		got, err := c.Scatter(s.Root, data)
		if err != nil {
			return err
		}
		if len(got) != s.Bytes || !payloadEqual(got, s.Seed, int(c.Rank())*s.Bytes) {
			return fmt.Errorf("comm: job %v: rank %d: scatter payload mismatch (%d bytes)", s, c.Rank(), len(got))
		}
	case JobAllReduce:
		mine := make([]byte, 8)
		binary.LittleEndian.PutUint64(mine, contribution(s.Seed, int(c.Rank())))
		got, err := c.AllReduce(mine, func(a, b []byte) []byte {
			binary.LittleEndian.PutUint64(a, binary.LittleEndian.Uint64(a)+binary.LittleEndian.Uint64(b))
			return a
		})
		if err != nil {
			return err
		}
		var want uint64
		for r := 0; r < size; r++ {
			want += contribution(s.Seed, r)
		}
		if binary.LittleEndian.Uint64(got) != want {
			return fmt.Errorf("comm: job %v: rank %d: allreduce payload mismatch (sum %#x, want %#x)", s, c.Rank(), binary.LittleEndian.Uint64(got), want)
		}
	default:
		return fmt.Errorf("comm: unknown job kind %v", s.Kind)
	}
	return nil
}

func (s JobSpec) String() string {
	return fmt.Sprintf("(tenant %d, %v, root %d, seed %d, %dB)", s.Tenant, s.Kind, s.Root, s.Seed, s.Bytes)
}

// ClusterHandle tracks one job across every runtime of a Cluster (one
// per TCP endpoint; a single runtime in-process).
type ClusterHandle struct {
	Handles []*svc.Handle
}

// Wait blocks until the job finished on every runtime and returns the
// first error.
func (h *ClusterHandle) Wait() error {
	var first error
	for _, hh := range h.Handles {
		if err := hh.Wait(); err != nil && first == nil {
			first = err
		}
	}
	return first
}

// Cluster is a running collective service: one svc.Runtime per machine.
// In-process clusters have a single runtime hosting the whole cube; TCP
// clusters have one runtime per endpoint, and Submit fans every job out
// to all of them in the same order (the lockstep submission rule).
type Cluster struct {
	rts []*svc.Runtime
	trs []*transport.TCP // nil in-process

	mu sync.Mutex // serializes Submit so every runtime sees one order
}

// StartLocalCluster starts the service on one in-process machine.
func StartLocalCluster(n int, opt svc.Options) *Cluster {
	rt := svc.New(mpx.NewWithTransport(mpx.NewChanTransport(n, CollectiveDepth(n), nil), nil), opt)
	rt.Start()
	return &Cluster{rts: []*svc.Runtime{rt}}
}

// StartCluster starts the service over loopback sockets: 2^n endpoints
// connected into a cube mesh, one machine + runtime per endpoint.
// topt's Resilience/Chaos/Network apply to every endpoint; StatsSink is
// ignored here (use Stats).
func StartCluster(n int, opt svc.Options, topt TCPRunOptions) (*Cluster, error) {
	trs, err := transport.Loopback(n, func(o *transport.TCPOptions) {
		o.Depth, o.Resilience, o.Network = CollectiveDepth(n), topt.Resilience, topt.Network
	})
	if err != nil {
		return nil, err
	}
	cl := &Cluster{trs: trs}
	if topt.Chaos != nil {
		for i, tr := range cl.trs {
			co := *topt.Chaos
			co.Seed += int64(i)
			tr.StartChaos(co)
		}
	}
	for _, tr := range cl.trs {
		rt := svc.New(mpx.NewWithTransport(tr, nil), opt)
		rt.Start()
		cl.rts = append(cl.rts, rt)
	}
	return cl, nil
}

// Submit enqueues prog for tenant on every runtime, preserving one
// global submission order (safe for concurrent callers).
func (cl *Cluster) Submit(tenant int, prog svc.Program) (*ClusterHandle, error) {
	cl.mu.Lock()
	defer cl.mu.Unlock()
	h := &ClusterHandle{Handles: make([]*svc.Handle, 0, len(cl.rts))}
	for _, rt := range cl.rts {
		hh, err := rt.Submit(tenant, prog)
		if err != nil {
			return nil, err
		}
		h.Handles = append(h.Handles, hh)
	}
	return h, nil
}

// SubmitSpec is Submit for a self-verifying JobSpec.
func (cl *Cluster) SubmitSpec(s JobSpec) (*ClusterHandle, error) {
	return cl.Submit(s.Tenant, s.Program())
}

// Drain stops admission on every runtime, waits for all jobs, and shuts
// the mesh down, returning the first error. Admission stops everywhere
// under the Submit lock, so a job is on every runtime or on none: one
// that reached only some of them would wait there for ranks that never
// run it.
func (cl *Cluster) Drain() error {
	cl.mu.Lock()
	for _, rt := range cl.rts {
		rt.StopAdmission()
	}
	cl.mu.Unlock()
	errs := make(chan error, len(cl.rts))
	for _, rt := range cl.rts {
		go func(rt *svc.Runtime) { errs <- rt.Drain() }(rt)
	}
	var first error
	for range cl.rts {
		if err := <-errs; err != nil && first == nil {
			first = err
		}
	}
	closeAll(cl.trs)
	return first
}

// Stats sums transport counters across the cluster's endpoints (zero
// in-process: the chan transport only counts severed links). A job's
// payload is on its handles (svc.Handle.Payload).
func (cl *Cluster) Stats() mpx.TransportStats {
	var sum mpx.TransportStats
	for _, rt := range cl.rts {
		if st, ok := rt.Machine().Stats(); ok {
			sum.Add(st)
		}
	}
	return sum
}
