package comm

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/cube"
	"repro/internal/mpx"
	"repro/internal/transport"
)

// allNodeSoak runs the all-node collectives — AllGather, AllToAll,
// AllReduce — in a lockstep loop with every rank's deadline armed while
// chaos agents kill, flap and delay the live sockets. The resilience
// layer must keep every collective correct, and the (generous) deadline
// must never fire on a self-healing mesh: a trip means a fault leaked
// past the replay protocol as a silent hang.
func allNodeSoak(t *testing.T, network string, seed int64) {
	t.Helper()
	if testing.Short() {
		t.Skip("chaos soak skipped in -short mode")
	}
	var events atomic.Int64
	opt := TCPRunOptions{
		Network: network,
		Resilience: transport.ResilienceOptions{
			Enabled:     true,
			MaxAttempts: 50,
			Budget:      20 * time.Second,
			BaseBackoff: 2 * time.Millisecond,
			MaxBackoff:  50 * time.Millisecond,
		},
		Chaos: &transport.ChaosOptions{
			Seed:     seed,
			Kinds:    []transport.ChaosKind{transport.ChaosKill, transport.ChaosFlap, transport.ChaosDelay},
			MinPause: 20 * time.Millisecond,
			MaxPause: 80 * time.Millisecond,
			Hold:     60 * time.Millisecond,
			Log: func(format string, args ...any) {
				events.Add(1)
			},
		},
	}
	const (
		n         = 2
		minEvents = 5
		maxRounds = 2000
	)
	N := 1 << uint(n)
	start := time.Now()
	err := RunTCPWith(n, opt, func(c *Comm) error {
		// Every blocking receive inside the collectives runs with a
		// deadline armed — the soak exercises the timed wait the
		// all-node ready queue feeds.
		c.SetDeadline(30 * time.Second)
		for r := 0; ; r++ {
			var flag []byte
			if c.Rank() == 0 {
				flag = []byte{1}
				if events.Load() >= minEvents || r >= maxRounds || time.Since(start) > 15*time.Second {
					flag = []byte{0}
				}
			}
			flag, err := c.Bcast(0, flag)
			if err != nil {
				return fmt.Errorf("round %d continue-flag bcast: %w", r, err)
			}
			if flag[0] == 0 {
				return nil
			}
			// AllGather: every rank's round-stamped payload lands on
			// every rank.
			mine := bytes.Repeat([]byte{byte(c.Rank()), byte(r)}, 64)
			all, err := c.AllGather(mine)
			if err != nil {
				return fmt.Errorf("round %d allgather: %w", r, err)
			}
			for i := 0; i < N; i++ {
				want := bytes.Repeat([]byte{byte(i), byte(r)}, 64)
				if !bytes.Equal(all[i], want) {
					return fmt.Errorf("round %d: allgather slot %d corrupted", r, i)
				}
			}
			// AllToAll: rank i's packet for rank j is (i, j, r)-stamped.
			outbound := make([][]byte, N)
			for j := 0; j < N; j++ {
				outbound[j] = bytes.Repeat([]byte{byte(c.Rank()), byte(j), byte(r)}, 32)
			}
			got, err := c.AllToAll(outbound)
			if err != nil {
				return fmt.Errorf("round %d alltoall: %w", r, err)
			}
			for i := 0; i < N; i++ {
				want := bytes.Repeat([]byte{byte(i), byte(c.Rank()), byte(r)}, 32)
				if !bytes.Equal(got[i], want) {
					return fmt.Errorf("round %d: alltoall packet from %d corrupted", r, i)
				}
			}
			// AllReduce: sum of rank ids, identical on every rank.
			acc, err := c.AllReduce([]byte{byte(c.Rank())}, func(a, b []byte) []byte {
				return []byte{a[0] + b[0]}
			})
			if err != nil {
				return fmt.Errorf("round %d allreduce: %w", r, err)
			}
			if int(acc[0]) != N*(N-1)/2 {
				return fmt.Errorf("round %d: allreduce %d, want %d", r, acc[0], N*(N-1)/2)
			}
		}
	})
	if err != nil {
		var de *deadlineError
		if errors.As(err, &de) {
			t.Fatalf("deadline fired on a self-healing mesh (fault leaked as a hang): %v", err)
		}
		t.Fatalf("all-node soak failed: %v", err)
	}
	if events.Load() == 0 {
		t.Fatal("chaos agents injected no events: the soak proved nothing")
	}
}

// TestChaosAllNodeCollectivesTCP: the all-node soak over loopback TCP.
func TestChaosAllNodeCollectivesTCP(t *testing.T) { allNodeSoak(t, "tcp", 271) }

// TestChaosAllNodeCollectivesUDS: the same soak over Unix-domain
// sockets — the same framing minus the TCP/IP stack, so a fault class
// that only reproduces on one family shows up as a split verdict.
func TestChaosAllNodeCollectivesUDS(t *testing.T) { allNodeSoak(t, "unix", 271) }

// TestChaosAllNodeNaiveTCP soaks the naive forward-on-arrival launch —
// now the only all-node send order — under a second chaos seed, so the
// order that every all-node collective takes is held to two distinct
// fault sequences on TCP rather than one.
func TestChaosAllNodeNaiveTCP(t *testing.T) { allNodeSoak(t, "tcp", 314) }

// TestDeadlineFiresOnSilentAllNodeCollective parks three ranks in
// AllGather's any-root receive while rank 0 stays silent: the armed
// deadline must convert the hang into a typed *deadlineError on the
// ready-queue-fed receive (recvTag(anyTag)).
func TestDeadlineFiresOnSilentAllNodeCollective(t *testing.T) {
	err := Run(2, func(c *Comm) error {
		if c.Rank() == 0 {
			return nil // never participates
		}
		c.SetDeadline(80 * time.Millisecond)
		_, err := c.AllGather([]byte{byte(c.Rank())})
		return err
	})
	if err == nil {
		t.Fatal("AllGather with a silent rank returned nil")
	}
	var de *deadlineError
	if !errors.As(err, &de) {
		t.Fatalf("error is %v, want a *deadlineError", err)
	}
}

// allNodePayload is rank r's seeded payload for the equivalence tests —
// deterministic, so every rank verifies every slot locally.
func allNodePayload(seed int64, r, size int) []byte {
	return randBytes(seed*7919+int64(r), size)
}

// allNodePairPayload is what rank i sends rank j in the all-to-all.
func allNodePairPayload(seed int64, i, j, size int) []byte {
	return randBytes(seed*7919+int64(i)*131+int64(j), size)
}

// xorFold is a commutative, associative AllReduce op over equal-length
// payloads.
func xorFold(a, b []byte) []byte {
	for i := range a {
		a[i] ^= b[i]
	}
	return a
}

// allNodeEquivalenceProgram runs AllGather + AllToAll + AllReduce once
// and verifies every byte against the locally computed expectation.
func allNodeEquivalenceProgram(c *Comm, seed int64, size int) error {
	N := c.Size()
	me := int(c.Rank())

	all, err := c.AllGather(allNodePayload(seed, me, size))
	if err != nil {
		return fmt.Errorf("allgather: %w", err)
	}
	for i := 0; i < N; i++ {
		if !bytes.Equal(all[i], allNodePayload(seed, i, size)) {
			return fmt.Errorf("allgather slot %d differs from the seeded expectation", i)
		}
	}

	outbound := make([][]byte, N)
	for j := 0; j < N; j++ {
		outbound[j] = allNodePairPayload(seed, me, j, size)
	}
	got, err := c.AllToAll(outbound)
	if err != nil {
		return fmt.Errorf("alltoall: %w", err)
	}
	for i := 0; i < N; i++ {
		if !bytes.Equal(got[i], allNodePairPayload(seed, i, me, size)) {
			return fmt.Errorf("alltoall packet from %d differs from the seeded expectation", i)
		}
	}

	want := make([]byte, size)
	for i := 0; i < N; i++ {
		xorFold(want, allNodePayload(seed, i, size))
	}
	acc, err := c.AllReduce(allNodePayload(seed, me, size), xorFold)
	if err != nil {
		return fmt.Errorf("allreduce: %w", err)
	}
	if !bytes.Equal(acc, want) {
		return fmt.Errorf("allreduce result differs from the local fold")
	}
	return nil
}

// TestAllNodeMatchesIndependentExpectation: the all-node collectives
// deliver exactly what each rank computes on its own from the seeded
// inputs, across seeds, dimensions and both the in-process and socket
// backends.
func TestAllNodeMatchesIndependentExpectation(t *testing.T) {
	program := func(seed int64, size int) func(c *Comm) error {
		return func(c *Comm) error { return allNodeEquivalenceProgram(c, seed, size) }
	}
	for d := 2; d <= 5; d++ {
		for _, seed := range []int64{1, 2, 3} {
			size := 16 << uint(seed) // 32, 64, 128 bytes
			if err := Run(d, program(seed, size)); err != nil {
				t.Fatalf("inproc d=%d seed=%d: %v", d, seed, err)
			}
		}
	}
	if testing.Short() {
		t.Skip("TCP equivalence sweep skipped in -short mode")
	}
	for d := 2; d <= 3; d++ {
		for _, seed := range []int64{1, 2} {
			if err := RunTCPWith(d, TCPRunOptions{}, program(seed, 64)); err != nil {
				t.Fatalf("tcp d=%d seed=%d: %v", d, seed, err)
			}
		}
	}
}

// TestAllReduceZeroAllocsTree guards the AllReduce hot path: a warm
// communicator's AllReduce must not allocate payload buffers on the way
// up or down the tree (the accumulator is scratch, the sent snapshots
// ride parts recycled by call parity). Only the returned result may be
// fresh, so total allocated bytes per call must stay near one payload per
// rank; a dimension exchange snapshotting per step cost (n+2).
func TestAllReduceZeroAllocsTree(t *testing.T) {
	const (
		d       = 4
		payload = 128 << 10
		rounds  = 8
	)
	N := 1 << uint(d)
	var perCall float64
	err := Run(d, func(c *Comm) error {
		mine := make([]byte, payload)
		binary.LittleEndian.PutUint64(mine, uint64(c.Rank()))
		// Warm both parity buffer sets before measuring.
		for i := 0; i < 3; i++ {
			if _, err := c.AllReduce(mine, xorFold); err != nil {
				return err
			}
		}
		if err := c.Barrier(); err != nil {
			return err
		}
		var before, after runtime.MemStats
		if c.Rank() == 0 {
			runtime.ReadMemStats(&before)
		}
		for i := 0; i < rounds; i++ {
			if _, err := c.AllReduce(mine, xorFold); err != nil {
				return err
			}
		}
		if err := c.Barrier(); err != nil {
			return err
		}
		if c.Rank() == 0 {
			runtime.ReadMemStats(&after)
			perCall = float64(after.TotalAlloc-before.TotalAlloc) / rounds
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	// All N in-process ranks share the heap: the budget is per mesh
	// call, 3 payloads per rank (true cost ≈1 result copy + envelope
	// noise + the bracketing barriers' small exchanges).
	budget := float64(N) * 3 * payload
	if perCall > budget {
		t.Fatalf("AllReduce allocates %.0f bytes per call across the mesh, budget %.0f — payload copies crept back into the tree",
			perCall, budget)
	}
	t.Logf("AllReduce allocates %.0f bytes per %d-rank call (budget %.0f)", perCall, N, budget)
}

// laggedLink is an in-process transport whose link 0 -> 1 delivers
// every envelope 30 ms late, in order, from a goroutine of its own: the
// sender has long returned, and may have moved on to its next
// collective, when the receiver sees the parts it sent by reference.
type laggedLink struct {
	*mpx.ChanTransport
	q chan laggedEnvelope
}

type laggedEnvelope struct {
	due time.Time
	msg mpx.Message
}

func (t *laggedLink) Send(from cube.NodeID, port int, msg mpx.Message) error {
	if from != 0 || port != 0 {
		return t.ChanTransport.Send(from, port, msg)
	}
	t.q <- laggedEnvelope{time.Now().Add(30 * time.Millisecond), msg}
	return nil
}

// runLagged runs program on every rank of an in-process n-cube whose
// link 0 -> 1 lags.
func runLagged(t *testing.T, n int, program func(c *Comm) error) {
	t.Helper()
	tr := &laggedLink{
		ChanTransport: mpx.NewChanTransport(n, CollectiveDepth(n), nil),
		// Room for every envelope a test sends over the link (at most one
		// per tree per call), so the sender never waits on the lag.
		q: make(chan laggedEnvelope, 1024),
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		for e := range tr.q {
			time.Sleep(time.Until(e.due))
			tr.ChanTransport.Send(0, 0, e.msg) // ErrDown once the run is over
		}
	}()
	err := RunOn(mpx.NewWithTransport(tr, nil), program)
	close(tr.q)
	<-done
	if err != nil {
		t.Fatal(err)
	}
}

// TestAllNodeRecycledTablesUnderLag: AllToAll and AllGather send their
// own tree's parts from arrays the communicator reuses two calls later
// (see allNode). Rank 0's envelopes to rank 1 arrive 30 ms late, long
// after rank 0 has finished the call that sent them and started the
// next, so reusing one array every call hands rank 1 the next call's
// payloads. Back-to-back calls with payloads distinct per call must
// each deliver every byte of their own.
func TestAllNodeRecycledTablesUnderLag(t *testing.T) {
	const n, calls = 3, 6
	N := 1 << n
	runLagged(t, n, func(c *Comm) error {
		me := int(c.Rank())
		for k := 0; k < calls; k++ {
			mine := make([][]byte, N)
			for j := range mine {
				mine[j] = fmt.Appendf(nil, "%d-%d-%d", k, me, j)
			}
			got, err := c.AllToAll(mine)
			if err != nil {
				return err
			}
			for i, b := range got {
				if want := fmt.Sprintf("%d-%d-%d", k, i, me); string(b) != want {
					return fmt.Errorf("alltoall call %d rank %d from %d: got %s want %s", k, me, i, b, want)
				}
			}
		}
		for k := 0; k < calls; k++ {
			all, err := c.AllGather(fmt.Appendf(nil, "%d-%d", k, me))
			if err != nil {
				return err
			}
			for i, b := range all {
				if want := fmt.Sprintf("%d-%d", k, i); string(b) != want {
					return fmt.Errorf("allgather call %d rank %d from %d: got %s want %s", k, me, i, b, want)
				}
			}
		}
		return nil
	})
}

// TestParitySetsRecycledUnderLag: the same lag against AllReduce and
// Scan, whose snapshots ride parts recycled by call parity. Rank 0, the
// AllReduce root, finishes a call without its result having reached
// rank 1 (and Scan without its step-0 message), so a snapshot rewritten
// by the next call would be what rank 1 returns, or folds in.
func TestParitySetsRecycledUnderLag(t *testing.T) {
	const n, calls = 3, 6
	N := 1 << n
	concat := func(a, b []byte) []byte { return append(a, b...) }
	runLagged(t, n, func(c *Comm) error {
		me := int(c.Rank())
		for k := 0; k < calls; k++ {
			sum, err := c.AllReduce([]byte{byte((k + 1) * me)}, func(a, b []byte) []byte {
				a[0] += b[0]
				return a
			})
			if err != nil {
				return err
			}
			if want := []byte{byte((k + 1) * N * (N - 1) / 2)}; !bytes.Equal(sum, want) {
				return fmt.Errorf("allreduce call %d rank %d: got %v want %v", k, me, sum, want)
			}
		}
		for k := 0; k < calls; k++ {
			prefix, err := c.Scan([]byte{byte(10*k + me)}, concat)
			if err != nil {
				return err
			}
			want := make([]byte, me+1)
			for i := range want {
				want[i] = byte(10*k + i)
			}
			if !bytes.Equal(prefix, want) {
				return fmt.Errorf("scan call %d rank %d: got %v want %v", k, me, prefix, want)
			}
		}
		return nil
	})
}
