package comm

import (
	"math/rand"
	"runtime"
	"testing"
	"time"

	"repro/internal/cube"
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
			// Per-job accounting must cover every job that moved payload
			// and sum to the transport's goodput counter.
			var sum int64
			for _, v := range st.PayloadByJob {
				sum += v
			}
			if sum != st.PayloadDelivered {
				t.Errorf("per-job payload sum %d != PayloadDelivered %d", sum, st.PayloadDelivered)
			}
			if len(st.PayloadByJob) < jobs {
				t.Errorf("per-job stats cover %d keys, want >= %d", len(st.PayloadByJob), jobs)
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
// adds nothing: a mixed bcast/scatter/allreduce job of 64–646 B on 16
// in-process ranks allocates its messages, mailboxes and root payload
// (24.6 KiB measured, 25.1 under -race) — not a 4.9 KiB generator state
// per rank and N·Bytes of expected bytes per scatter rank, which made it
// 114.4 KiB before the payload stream became seekable.
func TestJobAllocBudget(t *testing.T) {
	const (
		n, tenants = 4, 4
		warm, jobs = 96, 960
		budgetKiB  = 27
	)
	cl := StartLocalCluster(n, svc.Options{})
	run := func(from, to int) {
		handles := make([]*ClusterHandle, 0, to-from)
		for i := from; i < to; i++ {
			h, err := cl.SubmitSpec(MixedJobSpec(n, tenants, 5, i))
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
	run(0, warm)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	run(warm, warm+jobs)
	runtime.ReadMemStats(&after)
	if err := cl.Drain(); err != nil {
		t.Fatal(err)
	}
	perJob := float64(after.TotalAlloc-before.TotalAlloc) / jobs / 1024
	t.Logf("%.1f KiB allocated per 16-rank in-process mixed job", perJob)
	if perJob > budgetKiB {
		t.Fatalf("%.1f KiB allocated per job, budget %d KiB", perJob, budgetKiB)
	}
}
