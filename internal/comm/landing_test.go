package comm

import (
	"bytes"
	"errors"
	"fmt"
	"runtime"
	"slices"
	"sync"
	"testing"
	"time"

	"repro/internal/cube"
	"repro/internal/fault"
	"repro/internal/mpx"
	"repro/internal/msbt"
	"repro/internal/testleak"
	"repro/internal/transport"
)

// TestLengthBound is the property the landing buffer's size rests on:
// for every payload length, tree count and tree, the bound computed from
// that tree's whole segment is at least L and overshoots by at most n —
// and the segment passes land's own plausibility test.
func TestLengthBound(t *testing.T) {
	for n := 1; n <= 10; n++ {
		for L := 0; L <= 1<<20; L++ {
			for j := 0; j < n; j++ {
				off := chunkBound(L, n, j)
				l := chunkBound(L, n, j+1) - off
				if b := lengthBound(off, l, j, n); b < L || b > L+n {
					t.Fatalf("L=%d n=%d j=%d: bound %d outside [L, L+n]", L, n, j, b)
				}
				if off > j*(l+1) {
					t.Fatalf("L=%d n=%d j=%d: honest offset %d fails land's check off <= j*(l+1) = %d", L, n, j, off, j*(l+1))
				}
			}
		}
	}
}

// landingPayload is a recognizable payload of n bytes.
func landingPayload(n, salt int) []byte {
	b := make([]byte, n)
	for i := range b {
		b[i] = byte(i*13 + i>>11 + salt)
	}
	return b
}

// socketMesh runs program on every rank of an n-cube of loopback socket
// endpoints (transport.Loopback, each shaped by shape when it is
// non-nil) and returns the summed transport counters. Unlike RunTCPWith
// it takes per-endpoint options, so tests can inject faults, and runs
// each rank over wrap(endpoint) when wrap is non-nil — a transport that
// embeds the connected endpoint and stands in its way.
func socketMesh(t *testing.T, n int, shape func(*transport.TCPOptions),
	wrap func(*transport.TCP) mpx.Transport, program func(c *Comm) error) mpx.TransportStats {
	t.Helper()
	trs, err := transport.Loopback(n, func(o *transport.TCPOptions) {
		o.Depth = CollectiveDepth(n)
		if shape != nil {
			shape(o)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { closeAll(trs) })
	errs := make(chan error, len(trs))
	for _, tr := range trs {
		var over mpx.Transport = tr
		if wrap != nil {
			over = wrap(tr)
		}
		go func() { errs <- RunOn(mpx.NewWithTransport(over, nil), program) }()
	}
	var first error
	for range trs {
		if err := <-errs; err != nil && first == nil {
			first = err
			closeAll(trs)
		}
	}
	if first != nil {
		t.Fatal(first)
	}
	var sum mpx.TransportStats
	for _, tr := range trs {
		sum.Add(tr.Stats())
	}
	return sum
}

// allPosted parks the caller until every communicator but the skipped
// ones (its own, at least) has a landing zone posted. The tests below
// hold the root back with it so that no chunk races its receiver into
// the collective.
func allPosted(comms []*Comm, skip ...cube.NodeID) {
	for r, c := range comms {
		for !slices.Contains(skip, cube.NodeID(r)) {
			c.mu.Lock()
			posted := c.zone != nil && c.zone.posted
			c.mu.Unlock()
			if posted {
				break
			}
			time.Sleep(50 * time.Microsecond)
		}
	}
}

// TestBcastMSBTLandingAllocBudget: once warm, a 1 MiB MSBT broadcast at
// d=3 allocates at most 32 KiB per off-root rank — part slices and small
// change — on TCP and on Unix sockets: the chunks land in the buffer the
// previous broadcast returned. With posted receives but a fresh result
// per call it was 1 MiB and small change; without them every byte was
// allocated twice (frame bodies, then the result), about 2.1 MiB.
func TestBcastMSBTLandingAllocBudget(t *testing.T) {
	const (
		n, size    = 3, 1 << 20
		warm, runs = 3, 8
	)
	for _, network := range []string{"tcp", "unix"} {
		t.Run(network, func(t *testing.T) {
			payload := landingPayload(size, 1)
			comms := make([]*Comm, 1<<n)
			var registered sync.WaitGroup
			registered.Add(len(comms))
			var before, after runtime.MemStats
			socketMesh(t, n, func(o *transport.TCPOptions) { o.Network = network }, nil, func(c *Comm) error {
				comms[c.Rank()] = c
				registered.Done()
				for i := 0; i < warm+runs; i++ {
					var in []byte
					if c.Rank() == 0 {
						in = payload
						registered.Wait()
						allPosted(comms, 0)
						if i == warm {
							runtime.ReadMemStats(&before)
						}
					}
					got, err := c.BcastMSBT(0, in)
					if err != nil {
						return err
					}
					if !bytes.Equal(got, payload) {
						return fmt.Errorf("rank %d round %d: payload differs at byte %d", c.Rank(), i, firstDiff(got, payload))
					}
					// The barrier keeps round i+1's allPosted from seeing round
					// i's zones.
					if err := c.Barrier(); err != nil {
						return err
					}
				}
				if c.Rank() == 0 {
					runtime.ReadMemStats(&after)
				}
				return nil
			})
			perRank := float64(after.TotalAlloc-before.TotalAlloc) / float64(runs*(1<<n-1))
			t.Logf("%s: %.0f KiB allocated per off-root rank per broadcast", network, perRank/1024)
			if perRank > 32<<10 {
				t.Fatalf("%.0f KiB allocated per off-root rank per 1 MiB broadcast, budget 32 KiB", perRank/1024)
			}
		})
	}
}

// TestBcastMSBTEarlyArrival holds one rank out of the collective until
// tree 0's chunk is queued in its mailbox (the other trees' chunks do
// not pass through it either, so they may be early too). The rank has
// run no BcastMSBT yet, so that chunk was read before anyone could say
// where it belongs: the finishing loop copies it next to the chunks that
// landed, and the result is byte-exact.
func TestBcastMSBTEarlyArrival(t *testing.T) {
	const n, late, size = 3, cube.NodeID(5), 3<<18 + 1
	payload := landingPayload(size, 2)
	err := RunTCPWith(n, TCPRunOptions{}, func(c *Comm) error {
		var in []byte
		switch c.Rank() {
		case 0:
			in = payload
		case late:
			for queued := false; !queued; time.Sleep(100 * time.Microsecond) {
				c.mu.Lock()
				queued = c.mailbox.has(c.tagFor(1))
				c.mu.Unlock()
			}
		}
		got, err := c.BcastMSBT(0, in)
		if err != nil {
			return err
		}
		if !bytes.Equal(got, payload) {
			return fmt.Errorf("rank %d: payload differs at byte %d", c.Rank(), firstDiff(got, payload))
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestBcastMSBTLandsUnderCorruptAndDuplicate runs large broadcasts over
// resilient links, one of which damages a chunk's first transmission
// while the others are told to send every frame twice, which a resilient
// link writes once. The damaged chunk severs its link, and the resume's
// retransmit re-lands it. A result belongs to the caller until the
// communicator's next BcastMSBT: each rank scribbles over its first
// result, lets a barrier push every frame of the first broadcast
// through, and finds the scribble intact. The calls after that land in
// the same buffer, and every result is byte-exact.
func TestBcastMSBTLandsUnderCorruptAndDuplicate(t *testing.T) {
	testleak.Check(t)
	const n, size = 2, 1 << 19
	plan := fault.NewPlan(n).AddRule(fault.Rule{Link: cube.Edge{From: 0, To: 1}, Kind: fault.Corrupt, Nth: 1})
	for from := cube.NodeID(0); from < 1<<n; from++ {
		for d := 0; d < n; d++ {
			// (Not on the damaging link: its one fault is the corruption.)
			if e := (cube.Edge{From: from, To: from ^ 1<<uint(d)}); e != (cube.Edge{From: 0, To: 1}) {
				plan.AddRule(fault.Rule{Link: e, Kind: fault.Duplicate, Nth: fault.EveryMessage})
			}
		}
	}
	payloads := [][]byte{landingPayload(size, 3), landingPayload(size, 4), landingPayload(size, 5)}
	stats := socketMesh(t, n, func(o *transport.TCPOptions) {
		o.Injector = plan.Injector()
		o.Resilience = transport.ResilienceOptions{
			Enabled: true, Budget: 5 * time.Second, BaseBackoff: 2 * time.Millisecond, MaxBackoff: 20 * time.Millisecond,
		}
	}, nil, func(c *Comm) error {
		if err := c.Barrier(); err != nil { // link 0->1's crossing 0
			return err
		}
		bcast := func(round int) ([]byte, error) {
			var in []byte
			if c.Rank() == 0 {
				in = payloads[round]
			}
			got, err := c.BcastMSBT(0, in)
			if err == nil && !bytes.Equal(got, payloads[round]) {
				err = fmt.Errorf("rank %d: payload %d differs at byte %d", c.Rank(), round, firstDiff(got, payloads[round]))
			}
			return got, err
		}
		got, err := bcast(0)
		if err != nil {
			return err
		}
		if c.Rank() != 0 {
			// Resilient links copy a forward into their replay ring when it
			// is sent, so nothing still reads this buffer.
			for i := range got {
				got[i] = 0xEE
			}
		}
		// Links deliver in order: past the barrier, every frame of the
		// first broadcast has been read.
		if err := c.Barrier(); err != nil {
			return err
		}
		if c.Rank() != 0 {
			for i, b := range got {
				if b != 0xEE {
					return fmt.Errorf("rank %d: byte %d of the first result was written before the next BcastMSBT", c.Rank(), i)
				}
			}
		}
		for round := 1; round < len(payloads); round++ {
			if _, err := bcast(round); err != nil {
				return err
			}
		}
		return c.Barrier()
	})
	if stats.CRCDropped < 1 || stats.Retransmits < 1 {
		t.Errorf("CRCDropped %d, Retransmits %d: the damaged chunk was never dropped and resent", stats.CRCDropped, stats.Retransmits)
	}
}

// TestZoneRules pins what a landing zone hands out: a tree's region
// only to the link from its parent, the same region again for the same
// question, never an overlapping or implausible one, and nothing once
// the tree's message is delivered. Between calls it lends the next
// sequence's tree tags scratch segments under the same rules — nothing
// for the sequence it served, a part with company, a second link or a
// stopped communicator — and the next post adopts them.
func TestZoneRules(t *testing.T) {
	const n, size = 3, 3 << 16
	err := Run(n, func(c *Comm) error {
		if c.Rank() != 6 {
			return nil
		}
		const root = cube.NodeID(0)
		parent := func(j int) cube.NodeID { // the neighbor tree j's chunk comes from
			p, _ := msbt.Parent(n, j, c.Rank(), root)
			return p
		}
		seg := func(j int) (off, l int) {
			off = chunkBound(size, n, j)
			return off, chunkBound(size, n, j+1) - off
		}
		tag := func(j int) int { return c.tagFor(j + 1) }
		c.post(root)
		off1, l1 := seg(1)
		if got := c.land(parent(1)^7, tag(1), 1, off1, l1); got != nil {
			return errors.New("a link that is not the tree's parent was given a region")
		}
		if got := c.land(parent(1), tag(1), 2, off1, l1); got != nil {
			return errors.New("a part with company was given a region")
		}
		if got := c.land(parent(1), tag(1), 1, off1+2*(l1+1), l1); got != nil {
			return errors.New("an offset no segment layout allows was given a region")
		}
		a := c.land(parent(1), tag(1), 1, off1, l1)
		if len(a) != l1 {
			return fmt.Errorf("tree 1 got %d bytes, want %d", len(a), l1)
		}
		if b := c.land(parent(1), tag(1), 1, off1, l1); len(b) != l1 || &b[0] != &a[0] {
			return errors.New("the same question (a retransmit) got a different answer")
		}
		if got := c.land(parent(1), tag(1), 1, off1, l1-1); got != nil {
			return errors.New("tree 1 was given a second, different region")
		}
		off2, l2 := seg(2)
		if got := c.land(parent(2), tag(2), 1, off2-1, l2); got != nil {
			return errors.New("a region overlapping tree 1's was handed out")
		}
		if got := c.land(parent(2), tag(2), 1, off2, l2); len(got) != l2 || &got[0] != &a[:l1+1][l1] {
			return errors.New("tree 2's region is not right behind tree 1's in the same buffer")
		}
		c.deliver(mpx.Envelope{Message: mpx.Message{Tag: tag(1), Parts: []mpx.Part{{Offset: off1, Data: a}}}, From: parent(1)})
		if got := c.land(parent(1), tag(1), 1, off1, l1); got != nil {
			return errors.New("a delivered tree was given its region again (a duplicate would overwrite it)")
		}
		buf := c.unpost()
		if len(buf) < size || len(buf) > size+n {
			return fmt.Errorf("landing buffer holds %d bytes for a %d-byte payload", len(buf), size)
		}
		off0, l0 := seg(0)
		if got := c.land(parent(0), tag(0), 1, off0, l0); got != nil {
			return errors.New("the sequence the zone served was lent a segment after it was unposted")
		}
		c.next()
		e := c.land(parent(0), tag(0), 1, off0, l0)
		if len(e) != l0 {
			return fmt.Errorf("the next sequence's tree 0 was lent %d bytes, want %d", len(e), l0)
		}
		if b := c.land(parent(0), tag(0), 1, off0, l0); len(b) != l0 || &b[0] != &e[0] {
			return errors.New("the same question (a retransmit) was lent a different segment")
		}
		if got := c.land(parent(0)^1, tag(0), 1, off0, l0); got != nil {
			return errors.New("a second link was lent tree 0's segment")
		}
		if got := c.land(parent(1), tag(1), 2, off1, l1); got != nil {
			return errors.New("a part with company was lent a segment")
		}
		f := c.land(parent(1)^7, tag(1), 1, off1, l1)
		if len(f) != l1 {
			return errors.New("tree 1 was lent nothing, whichever link asked first")
		}
		off2, l2 = seg(2)
		g := c.land(parent(2), tag(2), 1, off2, l2)
		c.deliver(mpx.Envelope{Message: mpx.Message{Tag: tag(2), Parts: []mpx.Part{{Offset: off2, Data: g}}}, From: parent(2)})
		if got := c.land(parent(2), tag(2), 1, off2, l2); got != nil {
			return errors.New("a delivered tree was lent its segment again")
		}
		c.post(root)
		if got := c.land(parent(0), tag(0), 1, off0, l0); len(got) != l0 || &got[0] != &e[0] {
			return errors.New("the post did not adopt the segment lent to the tree parent's link")
		}
		if got := c.land(parent(1), tag(1), 1, off1, l1); got != nil {
			return errors.New("a tree whose segment went to another link was given a region")
		}
		if got := c.land(parent(2), tag(2), 1, off2, l2); got != nil {
			return errors.New("a tree delivered before the post was given a region")
		}
		c.unpost()
		c.next()
		c.stop()
		if got := c.land(parent(0), c.tagFor(1), 1, off0, l0); got != nil {
			return errors.New("a stopped communicator lent a segment")
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestBcastMSBTErrorExitUnposts: a deadline that expires mid-broadcast —
// one tree's chunk landed, the others never come — leaves no landing
// zone behind and keeps nothing: a link may still be reading into the
// buffer, so it is abandoned, and the next broadcast on the same
// communicators allocates its own and is byte-exact. A broadcast that
// succeeded before the failed one does not change that: its buffer went
// into the failed call and is abandoned with it. Then the same with tree
// 1's chunk sent to its head while that rank is between calls: the
// segment it is lent is adopted by the failed call, which never gets to
// tree 1, and is dropped — it never reaches the free list.
func TestBcastMSBTErrorExitUnposts(t *testing.T) {
	testleak.Check(t)
	const n, size = 2, 1 << 18
	const root = cube.NodeID(0)
	payload := landingPayload(size, 5)
	var failed [n]sync.WaitGroup
	for tree := range failed {
		failed[tree].Add(1<<n - 1)
	}
	comms := make([]*Comm, 1<<n)
	var registered sync.WaitGroup
	registered.Add(len(comms))
	err := RunTCPWith(n, TCPRunOptions{}, func(c *Comm) error {
		comms[c.Rank()] = c
		registered.Done()
		var in []byte
		if c.Rank() == root {
			in = payload
		}
		if _, err := c.BcastMSBT(root, in); err != nil {
			return err
		}
		for tree := 0; tree < n; tree++ {
			head := msbt.RootOf(tree, root)
			var lent []byte
			if c.Rank() == root {
				// Half a broadcast: one tree's chunk, then silence until
				// every other rank has given up.
				if tree == 1 {
					registered.Wait()
					entered(comms[head], c.seq)
				}
				lo, hi := chunkBound(size, n, tree), chunkBound(size, n, tree+1)
				c.send(head, tree+1, []mpx.Part{{Dest: root, Offset: lo, Data: payload[lo:hi]}})
				c.next()
				failed[tree].Wait()
			} else {
				if tree == 1 && c.Rank() == head {
					queued(c, c.tagFor(tree+1))
					c.mu.Lock()
					lent = c.zone.early[tree].seg
					c.mu.Unlock()
					if lent == nil {
						failed[tree].Done()
						return fmt.Errorf("rank %d: tree %d's early chunk was not lent a segment", c.Rank(), tree)
					}
				}
				c.SetDeadline(150 * time.Millisecond)
				_, err := c.BcastMSBT(root, nil)
				c.mu.Lock()
				z := c.zone
				posted, held := z.posted, len(z.buf)+len(z.spare)+cap(z.kept)
				c.mu.Unlock()
				failed[tree].Done()
				var de *deadlineError
				if !errors.As(err, &de) {
					return fmt.Errorf("rank %d: half a broadcast returned %v, want a *deadlineError", c.Rank(), err)
				}
				if posted || held != 0 {
					return fmt.Errorf("rank %d: the failed broadcast left its landing zone behind (posted=%v, %d bytes held)", c.Rank(), posted, held)
				}
				c.SetDeadline(10 * time.Second)
			}
			got, err := c.BcastMSBT(root, in)
			if err != nil {
				return err
			}
			if !bytes.Equal(got, payload) {
				return fmt.Errorf("rank %d: broadcast after the failed one differs at byte %d", c.Rank(), firstDiff(got, payload))
			}
			if _, held := onFreeList(lent); held {
				return fmt.Errorf("rank %d: the segment lent before the failed call reached the free list", c.Rank())
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}
