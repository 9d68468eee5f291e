package comm

import (
	"encoding/binary"
	"fmt"
	"math/rand"
	"runtime"
	"sync"
	"testing"
	"time"

	"repro/internal/cube"
	"repro/internal/mpx"
	"repro/internal/svc"
	"repro/internal/transport"
)

// clusterRunners runs a service-cluster test over both backends.
func clusterRunners(t *testing.T, n int, opt svc.Options, topt TCPRunOptions, test func(t *testing.T, cl *Cluster)) {
	t.Run("chan", func(t *testing.T) {
		t.Parallel()
		test(t, StartLocalCluster(n, opt))
	})
	t.Run("tcp", func(t *testing.T) {
		t.Parallel()
		cl, err := StartCluster(n, opt, topt)
		if err != nil {
			t.Fatal(err)
		}
		test(t, cl)
	})
}

// TestServiceMixedJobs is the acceptance e2e: 20 concurrent jobs from 5
// tenants — mixed broadcast, scatter and allreduce with distinct roots —
// on one shared d=4 mesh, over both the in-process and the TCP backend,
// every job verifying its own result byte-exactly on every rank.
// Each job's handles meter its payload.
func TestServiceMixedJobs(t *testing.T) {
	const (
		n       = 4
		jobs    = 20
		tenants = 5
	)
	clusterRunners(t, n, svc.Options{TenantInFlight: 2}, TCPRunOptions{},
		func(t *testing.T, cl *Cluster) {
			handles := make([]*ClusterHandle, jobs)
			for i := 0; i < jobs; i++ {
				h, err := cl.SubmitSpec(MixedJobSpec(n, tenants, 77, i))
				if err != nil {
					t.Fatal(err)
				}
				handles[i] = h
			}
			for i, h := range handles {
				if err := h.Wait(); err != nil {
					t.Errorf("job %d (%v): %v", i, MixedJobSpec(n, tenants, 77, i), err)
				}
			}
			st := cl.Stats()
			if err := cl.Drain(); err != nil {
				t.Fatal(err)
			}
			// Every job moved payload, and on sockets the handles' meters
			// sum to the transport's goodput counter.
			var sum int64
			for i, h := range handles {
				var job int64
				for _, hh := range h.Handles {
					job += hh.Payload
				}
				if job <= 0 {
					t.Errorf("job %d metered %d payload bytes, want > 0", i, job)
				}
				sum += job
			}
			if cl.trs != nil && sum != st.PayloadDelivered {
				t.Errorf("per-job payload sum %d != PayloadDelivered %d", sum, st.PayloadDelivered)
			}
		})
}

// TestServiceIsolationRandom is the cross-job bleed property test: a
// randomized interleaving of concurrent collectives with distinct tag
// slices, over both backends, each verifying byte-exact payloads —
// any cross-job delivery fails some job's self-check. Run under -race.
func TestServiceIsolationRandom(t *testing.T) {
	const n = 3
	rng := rand.New(rand.NewSource(time.Now().UnixNano()))
	seed := rng.Int63n(1 << 30)
	t.Logf("isolation seed %d", seed)
	clusterRunners(t, n, svc.Options{TenantInFlight: 3}, TCPRunOptions{},
		func(t *testing.T, cl *Cluster) {
			rng := rand.New(rand.NewSource(seed))
			jobs := 24 + rng.Intn(16)
			handles := make([]*ClusterHandle, 0, jobs)
			specs := make([]JobSpec, 0, jobs)
			for i := 0; i < jobs; i++ {
				s := JobSpec{
					Tenant: 1 + rng.Intn(6),
					Kind:   JobKind(rng.Intn(int(numJobKinds))),
					Root:   cube.NodeID(rng.Intn(1 << n)),
					Seed:   rng.Int63(),
					Bytes:  1 + rng.Intn(2048),
				}
				h, err := cl.SubmitSpec(s)
				if err != nil {
					t.Fatal(err)
				}
				handles = append(handles, h)
				specs = append(specs, s)
			}
			for i, h := range handles {
				if err := h.Wait(); err != nil {
					t.Errorf("job %d %v: %v", i, specs[i], err)
				}
			}
			if err := cl.Drain(); err != nil {
				t.Fatal(err)
			}
		})
}

// TestServiceTCPResilientAndBatched exercises the service over
// resilient links (sequenced frames, no batch frames);
// TestServiceMixedJobs covers the plain ones, which batch on every
// flush. (The sub-run with a hold window went with that option; the name
// is kept for the record of passing tests.)
func TestServiceTCPResilientAndBatched(t *testing.T) {
	const n, jobs, tenants = 3, 12, 4
	t.Run("resilient", func(t *testing.T) {
		topt := TCPRunOptions{Resilience: transport.ResilienceOptions{Enabled: true}}
		cl, err := StartCluster(n, svc.Options{TenantInFlight: 2}, topt)
		if err != nil {
			t.Fatal(err)
		}
		handles := make([]*ClusterHandle, jobs)
		for i := 0; i < jobs; i++ {
			h, err := cl.SubmitSpec(MixedJobSpec(n, tenants, 123, i))
			if err != nil {
				t.Fatal(err)
			}
			handles[i] = h
		}
		for i, h := range handles {
			if err := h.Wait(); err != nil {
				t.Errorf("job %d: %v", i, err)
			}
		}
		if err := cl.Drain(); err != nil {
			t.Fatal(err)
		}
	})
}

// TestJobAllocBudget pins what a job costs in memory when the transport
// adds nothing. A mixed bcast/scatter/allreduce job of 64–646 B on 16
// in-process ranks allocates its messages and root payload (4.6 KiB
// measured, 4.7 under -race; 17.0 while every rank built a fresh
// communicator per job, 114.4 before the payload stream became
// seekable). A Barrier job allocates 1.3 times per node-job on a
// worker's kept communicator — the parity set it sends from, and the
// job's share of its handles — where a fresh communicator per node-job
// made it 13.8.
func TestJobAllocBudget(t *testing.T) {
	const (
		n, tenants   = 4, 4
		warm, jobs   = 96, 960
		budgetKiB    = 6
		budgetAllocs = 3
	)
	cl := StartLocalCluster(n, svc.Options{})
	run := func(from, to int, prog func(i int) (int, svc.Program)) {
		handles := make([]*ClusterHandle, 0, to-from)
		for i := from; i < to; i++ {
			h, err := cl.Submit(prog(i))
			if err != nil {
				t.Fatal(err)
			}
			handles = append(handles, h)
		}
		for _, h := range handles {
			if err := h.Wait(); err != nil {
				t.Fatal(err)
			}
		}
	}
	measure := func(prog func(i int) (int, svc.Program)) (kib, allocs float64) {
		run(0, warm, prog)
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		run(warm, warm+jobs, prog)
		runtime.ReadMemStats(&after)
		return float64(after.TotalAlloc-before.TotalAlloc) / jobs / 1024,
			float64(after.Mallocs-before.Mallocs) / jobs / (1 << n)
	}
	perJob, _ := measure(func(i int) (int, svc.Program) {
		s := MixedJobSpec(n, tenants, 5, i)
		return s.Tenant, s.Program()
	})
	barrier := jobProgram(func(c *Comm) error { return c.Barrier() })
	_, perNodeJob := measure(func(i int) (int, svc.Program) { return 1 + i%tenants, barrier })
	if err := cl.Drain(); err != nil {
		t.Fatal(err)
	}
	t.Logf("%.1f KiB allocated per 16-rank in-process mixed job", perJob)
	t.Logf("%.1f allocations per node-job of a Barrier job", perNodeJob)
	if perJob > budgetKiB {
		t.Errorf("%.1f KiB allocated per job, budget %d KiB", perJob, budgetKiB)
	}
	if perNodeJob > budgetAllocs {
		t.Errorf("%.1f allocations per node-job of a Barrier job, budget %d", perNodeJob, budgetAllocs)
	}
}

// TestKeptJobCommIsolated holds jobs at chosen points on the in-process
// cluster, which passes parts by reference, to pin that a worker's kept
// communicator starts each job as good as new. Every job checks its
// result byte for byte.
//
//   - Leftovers: on one worker per node, rank 0 files a message for
//     job A's next collective (subtag 1) in rank 1's mailbox, where A
//     leaves it; job B, an AllReduce on the same workers, receives its
//     result on subtag 1 and must not take the leftover.
//   - Lent parts: with two workers per node, rank 0 stops inside job A's
//     Scan holding a reference to rank 1's step-0 snapshot, while rank
//     1's worker that sent it runs the later jobs, two Scans each. When
//     rank 0 goes on, the snapshot must still hold job A's bytes, or rank
//     2's prefix is wrong.
func TestKeptJobCommIsolated(t *testing.T) {
	const n = 2
	scan := func(seed int64, hold func(r cube.NodeID, step int)) func(c *Comm) error {
		return func(c *Comm) error {
			step := 0
			mine := make([]byte, 8)
			binary.LittleEndian.PutUint64(mine, contribution(seed, int(c.Rank())))
			got, err := c.Scan(mine, func(a, b []byte) []byte {
				if hold != nil {
					hold(c.Rank(), step)
				}
				step++
				binary.LittleEndian.PutUint64(a, binary.LittleEndian.Uint64(a)+binary.LittleEndian.Uint64(b))
				return a
			})
			if err != nil {
				return err
			}
			var want uint64
			for r := 0; r <= int(c.Rank()); r++ {
				want += contribution(seed, r)
			}
			if binary.LittleEndian.Uint64(got) != want {
				return fmt.Errorf("scan seed %d rank %d: prefix %#x, want %#x", seed, c.Rank(), binary.LittleEndian.Uint64(got), want)
			}
			return nil
		}
	}
	submit := func(t *testing.T, cl *Cluster, tenant int, prog func(c *Comm) error) *ClusterHandle {
		h, err := cl.Submit(tenant, jobProgram(prog))
		if err != nil {
			t.Fatal(err)
		}
		return h
	}

	t.Run("leftovers", func(t *testing.T) {
		cl := StartLocalCluster(n, svc.Options{TenantInFlight: 1})
		sent := make(chan struct{})
		a := submit(t, cl, 1, func(c *Comm) error {
			if err := c.Barrier(); err != nil {
				return err
			}
			switch c.Rank() {
			case 0:
				c.send(1, 1, []mpx.Part{{Dest: 1, Data: []byte("left over by job A")}})
				close(sent)
			case 1:
				<-sent
			}
			return nil
		})
		if err := a.Wait(); err != nil {
			t.Fatal(err)
		}
		b := submit(t, cl, 1, func(c *Comm) error { return JobSpec{Kind: JobAllReduce, Seed: 11}.run(c) })
		if err := b.Wait(); err != nil {
			t.Errorf("job B: %v", err)
		}
		if err := cl.Drain(); err != nil {
			t.Error(err)
		}
	})

	t.Run("lent parts", func(t *testing.T) {
		cl := StartLocalCluster(n, svc.Options{TenantInFlight: 1})
		held, release := make(chan struct{}), make(chan struct{})
		a := submit(t, cl, 1, scan(21, func(r cube.NodeID, step int) {
			if r == 0 && step == 0 { // about to read rank 1's snapshot
				close(held)
				<-release
			}
		}))
		select {
		case <-held:
		case <-time.After(10 * time.Second):
			t.Fatal("rank 0 never reached job A's first fold")
		}
		for i := 0; i < 4; i++ {
			b := submit(t, cl, 2, func(c *Comm) error {
				if err := scan(int64(100+2*i), nil)(c); err != nil {
					return err
				}
				return scan(int64(101+2*i), nil)(c)
			})
			if err := b.Wait(); err != nil {
				t.Errorf("job B%d: %v", i, err)
			}
		}
		close(release)
		if err := a.Wait(); err != nil {
			t.Errorf("job A: %v", err)
		}
		if err := cl.Drain(); err != nil {
			t.Error(err)
		}
	})
}

// TestClusterDrainWithConcurrentSubmitters drains a socket cluster while
// four submitters keep submitting into short backpressure queues. Drain
// used to flip the runtimes to draining one by one, outside the Submit
// lock, so a job could be admitted on some runtimes and refused on the
// rest; the ones that took it waited in Drain for ranks that never ran
// it. Every Drain must return, without error, within 10 s.
func TestClusterDrainWithConcurrentSubmitters(t *testing.T) {
	const n, submitters, trials = 2, 4, 12
	for trial := 0; trial < trials; trial++ {
		cl, err := StartCluster(n, svc.Options{TenantQueue: 2}, TCPRunOptions{Network: "unix"})
		if err != nil {
			t.Fatal(err)
		}
		var wg sync.WaitGroup
		for s := 0; s < submitters; s++ {
			wg.Add(1)
			go func(s int) {
				defer wg.Done()
				for i := s; ; i += submitters {
					if _, err := cl.SubmitSpec(MixedJobSpec(n, submitters, int64(trial), i)); err != nil {
						return // draining
					}
				}
			}(s)
		}
		time.Sleep(time.Duration(1+trial%4) * time.Millisecond)
		done := make(chan error, 1)
		go func() { done <- cl.Drain() }()
		select {
		case err := <-done:
			if err != nil {
				t.Fatalf("trial %d: Drain: %v", trial, err)
			}
		case <-time.After(10 * time.Second):
			t.Fatalf("trial %d: Drain still waiting after 10 s", trial)
		}
		wg.Wait()
	}
}
