package comm

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/cube"
	"repro/internal/mpx"
	"repro/internal/svc"
	"repro/internal/testleak"
	"repro/internal/transport"
)

// TestSocketCollectivesAllocBudget: on loopback TCP every collective
// allocates per warm 16-rank call what it allocates in process, and at
// most a few objects more. Every frame a rank receives, whatever its
// size, is read into a receive record from its endpoint's free list,
// and every collective gives its records back — at once what it only
// reads, two calls later behind the send fence what its result or its
// forwards alias (DESIGN.md §18, "Who owns the result") — so no frame
// costs a buffer or a part table of its own once the lists are full.
// Reading each frame under 1 KiB into fresh memory, and leaving the
// records of every collective but Scatter to the garbage collector, cost
// 90 (Barrier), 106 (AllReduce), 90 (Bcast), 184 (BcastMSBT), 116
// (Gather), 1 200 (AllGather) and 1 018 (AllToAll) allocations per call. Each
// in-process count is measured here the same way, paced by the same
// test-local barrier (lockstep) and not by the collectives' own frames.
// The slack covers the root's copy of what Gather receives (one buffer
// a call), a record made now and then when a pump reads ahead of its
// rank, and in a -race build the encode blocks the race detector keeps
// out of the links' pools.
//
// The in-process count has a ceiling of its own per collective, half an
// allocation above what a call is measured to make on 16 ranks. Bcast
// makes the root's one part, relays forwarding what they received, and
// Gather one part table per rank, sized from the tree, plus the root's
// result table; AllReduce's 16 are its results, the callers' to keep.
func TestSocketCollectivesAllocBudget(t *testing.T) {
	testleak.Check(t)
	const d, N, size, warm, rounds = 4, 1 << 4, 1 << 10, 300, 300
	payloads := make([][]byte, N)
	pairs := make([][][]byte, N)
	for r := range payloads {
		payloads[r] = landingPayload(size, r)
		pairs[r] = make([][]byte, N)
		for s := range pairs[r] {
			pairs[r][s] = payloads[(r+s)%N]
		}
	}
	sum := func(a, b []byte) []byte {
		binary.LittleEndian.PutUint64(a, binary.LittleEndian.Uint64(a)+binary.LittleEndian.Uint64(b))
		return a
	}
	word := make([]byte, 8)
	root := func(c *Comm, data []byte) []byte {
		if c.Rank() == 0 {
			return data
		}
		return nil
	}
	slack := 3.0
	if raceBuild {
		slack = 8
	}
	for _, tc := range []struct {
		name    string
		ceiling float64 // in process, per 16-rank call
		call    func(c *Comm) error
	}{
		{"Barrier", 0.5, (*Comm).Barrier},
		{"AllReduce", 16.5, func(c *Comm) error { _, err := c.AllReduce(word, sum); return err }},
		{"Bcast", 1.5, func(c *Comm) error { _, err := c.Bcast(0, root(c, payloads[0])); return err }},
		{"BcastMSBT", 19.5, func(c *Comm) error { _, err := c.BcastMSBT(0, root(c, payloads[0])); return err }},
		{"Scatter", 1.5, func(c *Comm) error { _, err := c.Scatter(0, payloads); return err }},
		{"Gather", 17.5, func(c *Comm) error { _, err := c.Gather(0, payloads[c.Rank()]); return err }},
		{"AllGather", 0.5, func(c *Comm) error { _, err := c.AllGather(payloads[c.Rank()]); return err }},
		{"AllToAll", 0.5, func(c *Comm) error { _, err := c.AllToAll(pairs[c.Rank()]); return err }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			inproc := pacedMallocs(t, Run, d, warm, rounds, tc.call)
			if inproc > tc.ceiling {
				t.Fatalf("%s makes %.2f allocations per %d-rank call in process, ceiling %.1f", tc.name, inproc, N, tc.ceiling)
			}
			sockets := pacedMallocs(t, func(n int, program func(*Comm) error) error {
				return RunTCPWith(n, TCPRunOptions{}, program)
			}, d, warm, rounds, tc.call)
			if sockets > inproc+slack {
				t.Fatalf("%s makes %.2f allocations per %d-rank socket call, budget %.2f (%.2f in process and %.0f slack)",
					tc.name, sockets, N, inproc+slack, inproc, slack)
			}
			t.Logf("%.2f allocations per %d-rank call on sockets, %.2f in process", sockets, N, inproc)
		})
	}
}

// pacedMallocs is runMallocs with every call followed by a test-local
// barrier, as the spine's workloads pace their ranks: a rank that runs
// ahead grows its children's mailboxes and keeps more records in flight
// than the collective needs.
func pacedMallocs(t *testing.T, run func(int, func(*Comm) error) error, d, warm, rounds int, call func(c *Comm) error) float64 {
	t.Helper()
	step := newLockstep(1 << d)
	return runMallocs(t, run, step.wait, d, warm, rounds, func(c *Comm) error {
		if err := call(c); err != nil {
			step.abort()
			return err
		}
		return step.wait(c)
	})
}

// TestSocketJobAllocBudget bounds what a svc job of the spine's mix costs
// the heap on a 16-rank cluster over Unix sockets: the jobs of
// MixedJobSpec (a broadcast, a scatter or an 8-byte allreduce of 64 to
// 646 bytes), one at a time, counted across every rank's runtime,
// dispatcher, worker and links. About 59 allocations per job were
// measured, in -race builds too; reading every frame under 1 KiB into
// fresh memory, with only Scatter giving records back, cost about 115.
func TestSocketJobAllocBudget(t *testing.T) {
	testleak.Check(t)
	const d, tenants, warm, jobs = 4, 4, 96, 300
	cl, err := StartCluster(d, svc.Options{}, TCPRunOptions{Network: "unix"})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Drain()
	run := func(from, to int) {
		for i := from; i < to; i++ {
			h, err := cl.SubmitSpec(MixedJobSpec(d, tenants, 1, i))
			if err != nil {
				t.Fatal(err)
			}
			if err := h.Wait(); err != nil {
				t.Fatalf("job %d: %v", i, err)
			}
		}
	}
	run(0, warm)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	run(warm, warm+jobs)
	runtime.ReadMemStats(&after)
	got := float64(after.Mallocs-before.Mallocs) / jobs
	budget := 75.0
	if raceBuild {
		budget = 90
	}
	if got > budget {
		t.Fatalf("a mixed job makes %.1f allocations on a 16-rank unix cluster, budget %.0f", got, budget)
	}
	t.Logf("%.1f allocations per mixed job on a 16-rank unix cluster", got)
}

// TestResultFedForwardOnSockets feeds results straight into the next
// collective, as the serve workload does: Scatter's result goes up
// through Gather(root, mine), whose relays forward it by reference; every
// rank passes its last Bcast result to the next Bcast, as the serve loop
// passes its continue flag (the root broadcasts its scatter result); and
// every rank sends the broadcast it received back up through a second
// Gather, a few bytes cut off its front so that no two neighbors send
// the same bytes at the same offsets. The ranks run 300 rounds on a 16-rank TCP mesh with nothing
// pacing them but the collectives, and check every byte of every
// result. Three rounds in four carry payloads under 1 KiB, which links
// copy when they send them; every fourth carries 4 to 5 KiB a rank,
// which a link queues by reference, and chaos agents keep stalling the
// links' writers with such forwards queued. Every frame arrives in a
// receive record that goes back to its endpoint. A record given back one
// call after the result it holds (Bcast's, here) is read into by the next
// frame while the Gather after it still forwards the result, and the
// root gathers the wrong bytes; one given back without the send fence
// is read into while a forward of it is queued, and its receiver drops
// a frame whose bytes changed under its checksum and misses its
// deadline.
func TestResultFedForwardOnSockets(t *testing.T) {
	testleak.Check(t)
	const d, N, rounds = 4, 1 << 4, 300
	const root = cube.NodeID(0)
	payload := func(round, r int) []byte {
		n := 200 + (round*37+r*11)%700
		if round%4 == 3 {
			n = 4<<10 + (round*53+r*97)%1024
		}
		b := landingPayload(n, round*N+r)
		binary.LittleEndian.PutUint32(b, uint32(round))
		return b
	}
	chaos := &transport.ChaosOptions{
		Seed: 3, Kinds: []transport.ChaosKind{transport.ChaosDelay},
		MinPause: time.Millisecond, MaxPause: 4 * time.Millisecond, Hold: 10 * time.Millisecond,
	}
	gather := func(c *Comm, what string, i int, mine []byte, want func(r int) []byte) error {
		all, err := c.Gather(root, mine)
		if err != nil {
			return fmt.Errorf("round %d %s: %w", i, what, err)
		}
		for r, got := range all {
			if w := want(r); !bytes.Equal(got, w) {
				return fmt.Errorf("round %d %s: the payload of rank %d differs at byte %d", i, what, r, firstDiff(got, w))
			}
		}
		return nil
	}
	err := RunTCPWith(d, TCPRunOptions{Chaos: chaos}, func(c *Comm) error {
		c.SetDeadline(5 * time.Second)
		var last []byte
		for i := 0; i < rounds; i++ {
			var data [][]byte
			if c.Rank() == root {
				for r := 0; r < N; r++ {
					data = append(data, payload(i, r))
				}
			}
			mine, err := c.Scatter(root, data)
			if err != nil {
				return fmt.Errorf("round %d scatter: %w", i, err)
			}
			if want := payload(i, int(c.Rank())); !bytes.Equal(mine, want) {
				return fmt.Errorf("rank %d round %d: scatter result differs at byte %d", c.Rank(), i, firstDiff(mine, want))
			}
			if err := gather(c, "gather", i, mine, func(r int) []byte { return payload(i, r) }); err != nil {
				return err
			}
			in := last
			if c.Rank() == root {
				in = mine
			}
			got, err := c.Bcast(root, in)
			if err != nil {
				return fmt.Errorf("round %d bcast: %w", i, err)
			}
			if want := payload(i, int(root)); !bytes.Equal(got, want) {
				return fmt.Errorf("rank %d round %d: broadcast differs at byte %d", c.Rank(), i, firstDiff(got, want))
			}
			echo := func(r int) int { return r % 7 }
			if err := gather(c, "echo", i, got[echo(int(c.Rank())):], func(r int) []byte { return payload(i, int(root))[echo(r):] }); err != nil {
				return err
			}
			last = got
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestResultOutlivesNextCall holds each collective to the contract that
// a result is valid until the communicator's second collective after
// it: on a 16-rank TCP mesh, every rank checks each call's result again
// after the next call of the same collective, which on sockets reads
// its frames into the receive records and result buffers the previous
// call's leave behind. Payloads change every call, so a result
// overwritten by its successor shows.
func TestResultOutlivesNextCall(t *testing.T) {
	testleak.Check(t)
	const d, N, calls = 4, 1 << 4, 40
	const root = cube.NodeID(0)
	payload := func(call, r int) []byte { return landingPayload(100+(call*31+r*7)%400, call*N+r) }
	for _, tc := range []struct {
		name string
		call func(c *Comm, i int) ([][]byte, error)
		want func(c *Comm, i int) [][]byte
	}{
		{"Bcast", func(c *Comm, i int) ([][]byte, error) {
			var in []byte
			if c.Rank() == root {
				in = payload(i, 0)
			}
			got, err := c.Bcast(root, in)
			return [][]byte{got}, err
		}, func(c *Comm, i int) [][]byte { return [][]byte{payload(i, 0)} }},
		{"Scatter", func(c *Comm, i int) ([][]byte, error) {
			var data [][]byte
			if c.Rank() == root {
				for r := 0; r < N; r++ {
					data = append(data, payload(i, r))
				}
			}
			got, err := c.Scatter(root, data)
			return [][]byte{got}, err
		}, func(c *Comm, i int) [][]byte { return [][]byte{payload(i, int(c.Rank()))} }},
		{"AllGather", func(c *Comm, i int) ([][]byte, error) {
			return c.AllGather(payload(i, int(c.Rank())))
		}, func(c *Comm, i int) [][]byte {
			var all [][]byte
			for r := 0; r < N; r++ {
				all = append(all, payload(i, r))
			}
			return all
		}},
		{"AllToAll", func(c *Comm, i int) ([][]byte, error) {
			mine := make([][]byte, N)
			for r := range mine {
				mine[r] = payload(i, int(c.Rank())*N+r)
			}
			return c.AllToAll(mine)
		}, func(c *Comm, i int) [][]byte {
			col := make([][]byte, N)
			for r := range col {
				col[r] = payload(i, r*N+int(c.Rank()))
			}
			return col
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			check := func(c *Comm, i int, got [][]byte, when string) error {
				for r, w := range tc.want(c, i) {
					if !bytes.Equal(got[r], w) {
						return fmt.Errorf("rank %d call %d, %s: entry %d differs at byte %d", c.Rank(), i, when, r, firstDiff(got[r], w))
					}
				}
				return nil
			}
			err := RunTCPWith(d, TCPRunOptions{}, func(c *Comm) error {
				c.SetDeadline(5 * time.Second)
				var prev [][]byte
				for i := 0; i < calls; i++ {
					got, err := tc.call(c, i)
					if err != nil {
						return fmt.Errorf("call %d: %w", i, err)
					}
					if err := check(c, i, got, "on return"); err != nil {
						return err
					}
					if i > 0 {
						if err := check(c, i-1, prev, "after the next call"); err != nil {
							return err
						}
					}
					prev = got
				}
				return nil
			})
			if err != nil {
				t.Fatal(err)
			}
		})
	}
}

// jobTag is the tag of tenant 1's job's collective seq, subtag 0.
func jobTag(job, seq int) int { return svc.Tag{Tenant: 1, Job: job, Seq: seq}.MustEncode() }

// countingOwner is an mpx.Lease owner that counts its Recycle calls.
type countingOwner struct{ n atomic.Int32 }

func (o *countingOwner) Recycle() { o.n.Add(1) }

// leased returns an envelope under tag whose lease is owned by a fresh
// counting owner, and that owner.
func leased(tag int) (mpx.Envelope, *countingOwner) {
	o := new(countingOwner)
	l := &mpx.Lease{Owner: o}
	l.Arm()
	return mpx.Envelope{Message: mpx.Message{Tag: tag, Parts: []mpx.Part{{Data: []byte{1}}}}, Lease: l}, o
}

// TestDropSitesReleaseOnce: every place that drops an envelope nobody
// read gives its lease back exactly once, so that no receive record
// waits for the garbage collector because of a frame nobody wanted.
// The dispatcher drops a finished job's straggler, an aborted job's
// straggler, and what it buffered for a key that is aborted or closed
// before it opened; the mailbox drops what is queued under an abandoned
// tag and every later arrival for it, and everything a reset empties.
// Moving the last collective's leftovers aside (advance) drops nothing:
// they are released when the reset drops them.
func TestDropSitesReleaseOnce(t *testing.T) {
	check := func(t *testing.T, what string, o *countingOwner, want int32) {
		t.Helper()
		if got := o.n.Load(); got != want {
			t.Errorf("%s: Recycle ran %d times, want %d", what, got, want)
		}
	}
	t.Run("dispatcher", func(t *testing.T) {
		d := svc.NewDispatcher()
		done := svc.JobKey(1, 1)
		d.Open(done, func(mpx.Envelope) {}, func() {})
		d.CloseJob(done)
		env, straggler := leased(jobTag(1, 0))
		d.Deliver(env)
		check(t, "straggler of a closed job", straggler, 1)

		aborted := svc.JobKey(1, 2)
		env, early := leased(jobTag(2, 0))
		d.Deliver(env)
		check(t, "buffered before the abort", early, 0)
		d.Abort(aborted)
		check(t, "buffered, then aborted", early, 1)
		env, late := leased(jobTag(2, 1))
		d.Deliver(env)
		check(t, "straggler of an aborted job", late, 1)

		closed := svc.JobKey(1, 3)
		env, pending := leased(jobTag(3, 0))
		d.Deliver(env)
		d.CloseJob(closed)
		check(t, "buffered, then closed unopened", pending, 1)

		open := svc.JobKey(1, 4)
		var got []mpx.Envelope
		env, flushed := leased(jobTag(4, 0))
		d.Deliver(env)
		d.Open(open, func(env mpx.Envelope) { got = append(got, env) }, func() {})
		d.CloseJob(open)
		check(t, "buffered, then flushed to the job", flushed, 0)
		if len(got) != 1 {
			t.Fatalf("the open job got %d envelopes, want 1", len(got))
		}
	})
	t.Run("mailbox", func(t *testing.T) {
		c := newComm(nil, 2, 0, func(mpx.Consumer) {})
		gone := c.tagFor(1)
		env, queued := leased(gone)
		c.deliver(env)
		c.abandon(gone)
		check(t, "queued under an abandoned tag", queued, 1)
		env, later := leased(gone)
		c.deliver(env)
		check(t, "arriving under an abandoned tag", later, 1)

		env, leftover := leased(c.tagFor(0))
		c.deliver(env)
		c.next()
		check(t, "the last collective's leftover, moved aside", leftover, 0)
		env, early := leased(c.base | svc.StreamTag(c.seq+3, 0))
		c.deliver(env)
		c.reset(0)
		check(t, "a leftover dropped by reset", leftover, 1)
		check(t, "an early arrival dropped by reset", early, 1)

		c.stop()
		env, stopped := leased(c.tagFor(0))
		c.deliver(env)
		check(t, "arriving at a stopped communicator", stopped, 1)
	})
}
