package comm

import (
	"bytes"
	"fmt"
	"runtime"
	"sync"
	"testing"
	"time"

	"repro/internal/cube"
	"repro/internal/msbt"
	"repro/internal/transport"
)

// queued parks the caller until a message under tag is queued in c's
// mailbox.
func queued(c *Comm, tag int) {
	for done := false; !done; time.Sleep(50 * time.Microsecond) {
		c.mu.Lock()
		done = c.mailbox.has(tag)
		c.mu.Unlock()
	}
}

// entered parks the caller until c's collective sequence has reached
// seq: c has left every collective before it.
func entered(c *Comm, seq int) {
	for done := false; !done; time.Sleep(50 * time.Microsecond) {
		c.mu.Lock()
		done = c.seq >= seq
		c.mu.Unlock()
	}
}

// onFreeList reports how many segments the free list has made, and
// whether one it holds shares memory with b.
func onFreeList(b []byte) (made int, held bool) {
	scratch.mu.Lock()
	defer scratch.mu.Unlock()
	for _, s := range scratch.segs {
		held = held || len(b) > 0 && &s[:1][0] == &b[0]
	}
	return scratch.made, held
}

// heldLate is the rank heldOutRounds keeps out of every round: in the
// 3-cube from root 0 its tree 0 chunk comes straight from tree 0's head
// (rank 1), and it forwards that chunk on to rank 4.
const heldLate = cube.NodeID(5)

// heldOutRounds broadcasts payloads from rank 0 over a 3-cube of one-rank
// socket endpoints, one round each, with heldLate held out of every
// round until its tree 0 chunk is queued: that chunk arrives while the
// rank is between calls, and from the second round on it is lent a
// segment. The root sends once every other rank has posted and heldLate
// has left the previous round. Every rank checks every result; mark(i)
// runs on the root before round i's broadcast and mark(len(payloads))
// after the last.
func heldOutRounds(t *testing.T, network string, payloads [][]byte, mark func(round int)) {
	t.Helper()
	const n, root = 3, cube.NodeID(0)
	comms := make([]*Comm, 1<<n)
	var registered sync.WaitGroup
	registered.Add(len(comms))
	socketMesh(t, n, func(o *transport.TCPOptions) { o.Network = network }, nil, func(c *Comm) error {
		comms[c.Rank()] = c
		registered.Done()
		c.SetDeadline(10 * time.Second)
		for i, payload := range payloads {
			var in []byte
			switch c.Rank() {
			case root:
				in = payload
				registered.Wait()
				allPosted(comms, root, heldLate)
				entered(comms[heldLate], c.seq)
				mark(i)
			case heldLate:
				queued(c, c.tagFor(1))
			}
			got, err := c.BcastMSBT(root, in)
			if err != nil {
				return fmt.Errorf("round %d: %w", i, err)
			}
			if !bytes.Equal(got, payload) {
				return fmt.Errorf("rank %d round %d: payload differs at byte %d", c.Rank(), i, firstDiff(got, payload))
			}
			// The barrier keeps round i+1's allPosted from seeing round i's
			// zones.
			if err := c.Barrier(); err != nil {
				return err
			}
		}
		if c.Rank() == root {
			mark(len(payloads))
		}
		return nil
	})
}

// TestBcastMSBTEarlyArrivalAllocBudget: a rank that is late for every
// round — its tree 0 chunk is read before it enters the call — costs no
// more than one that posts in time. Once warm, a 1 MiB broadcast at d=3
// allocates at most 32 KiB per off-root rank on TCP and on Unix sockets,
// and the free list makes no segment: the early chunk lands in a
// recycled one. A fresh buffer per early chunk was 349 KiB per round,
// 50 KiB per off-root rank.
func TestBcastMSBTEarlyArrivalAllocBudget(t *testing.T) {
	const (
		n, size    = 3, 1 << 20
		warm, runs = 3, 8
	)
	if p, _ := msbt.Parent(n, 0, heldLate, 0); p != msbt.RootOf(0, 0) {
		t.Fatalf("tree 0: rank %d's parent is %d, the test assumes the tree's head", heldLate, p)
	}
	for _, network := range []string{"tcp", "unix"} {
		t.Run(network, func(t *testing.T) {
			payload := landingPayload(size, 1)
			payloads := make([][]byte, warm+runs)
			for i := range payloads {
				payloads[i] = payload
			}
			// The late rank can be early for every tree of a round (tree 1's
			// chunk does not pass through it either), so the list is warm
			// once it holds a segment per tree.
			for range n {
				scratch.put(make([]byte, size/n+1))
			}
			var before, after runtime.MemStats
			var madeBefore, madeAfter int
			heldOutRounds(t, network, payloads, func(i int) {
				switch i {
				case warm:
					runtime.ReadMemStats(&before)
					madeBefore, _ = onFreeList(nil)
				case warm + runs:
					runtime.ReadMemStats(&after)
					madeAfter, _ = onFreeList(nil)
				}
			})
			perRank := float64(after.TotalAlloc-before.TotalAlloc) / float64(runs*(1<<n-1))
			t.Logf("%s: %.1f KiB allocated per off-root rank per broadcast, %d segments made", network, perRank/1024, madeAfter-madeBefore)
			if perRank > 32<<10 {
				t.Errorf("%.0f KiB allocated per off-root rank per 1 MiB broadcast with a late rank, budget 32 KiB", perRank/1024)
			}
			if madeAfter != madeBefore {
				t.Errorf("the free list made %d segments once warm, want 0", madeAfter-madeBefore)
			}
		})
	}
}

// TestBcastMSBTEarlyChunkForwardsFromResult: the late rank is interior
// in tree 0, so the chunk that reached it in a lent segment is forwarded
// on. The segment goes back to the free list before the forward is sent
// and is painted over the moment it does; every rank — the late rank's
// child included — still gets each round's payload byte for byte, over
// rounds of different payloads.
func TestBcastMSBTEarlyChunkForwardsFromResult(t *testing.T) {
	const n, size, rounds = 3, 1 << 20, 6
	if len(msbt.AppendChildren(nil, n, 0, heldLate, 0)) == 0 {
		t.Fatalf("tree 0: rank %d is a leaf, the test needs it interior", heldLate)
	}
	var mu sync.Mutex
	returned := 0
	scratchReturned = func(s []byte) {
		for i := range s[:cap(s)] {
			s[:cap(s)][i] = 0xEE
		}
		mu.Lock()
		returned++
		mu.Unlock()
	}
	t.Cleanup(func() { scratchReturned = nil })
	payloads := make([][]byte, rounds)
	for i := range payloads {
		payloads[i] = landingPayload(size, 20+i)
	}
	heldOutRounds(t, "tcp", payloads, func(int) {})
	if returned < rounds-1 {
		t.Fatalf("%d segments came back over %d rounds with a late rank, want at least %d", returned, rounds, rounds-1)
	}
}

// TestEarlyScratchTakenByAnotherCollective: right after a BcastMSBT the
// next collective is a 32 KiB AllReduce, whose result comes down the tree
// on subtag 1 — tree 0's tag — so off the root the streamed result is
// lent a segment. It is AllReduce's now: it never reaches the free list,
// what AllReduce received is intact after more broadcasts with late ranks
// have taken and returned segments, and so is the result AllReduce
// returned, which does not share its memory.
func TestEarlyScratchTakenByAnotherCollective(t *testing.T) {
	const n, size, part = 3, 1 << 20, 32 << 10
	const root = cube.NodeID(0)
	want := make([]byte, part)
	for r := 0; r < 1<<n; r++ {
		for i, b := range landingPayload(part, r) {
			want[i] ^= b
		}
	}
	// Room on the free list, so a segment wrongly put back stays there.
	scratch.mu.Lock()
	clear(scratch.segs)
	scratch.segs = scratch.segs[:0]
	scratch.mu.Unlock()
	socketMesh(t, n, nil, nil, func(c *Comm) error {
		c.SetDeadline(10 * time.Second)
		bcast := func(i int) error {
			payload := landingPayload(size, 30+i)
			var in []byte
			if c.Rank() == root {
				in = payload
			}
			got, err := c.BcastMSBT(root, in)
			if err == nil && !bytes.Equal(got, payload) {
				err = fmt.Errorf("rank %d broadcast %d: differs at byte %d", c.Rank(), i, firstDiff(got, payload))
			}
			return err
		}
		if err := bcast(0); err != nil {
			return err
		}
		res, err := c.AllReduce(landingPayload(part, int(c.Rank())), func(a, b []byte) []byte {
			for i := range a {
				a[i] ^= b[i]
			}
			return a
		})
		if err != nil {
			return err
		}
		var got []byte
		if c.Rank() != root {
			c.mu.Lock()
			if e := c.zone.early; len(e) > 0 && e[0].out {
				got = e[0].seg
			}
			c.mu.Unlock()
			switch {
			case got == nil:
				return fmt.Errorf("rank %d: the %d-byte result that came down was not lent a segment", c.Rank(), part)
			case !bytes.Equal(got, want):
				return fmt.Errorf("rank %d: the lent segment differs from the result at byte %d", c.Rank(), firstDiff(got, want))
			case &res[0] == &got[0]:
				return fmt.Errorf("rank %d: AllReduce returned the lent segment, not a fresh result", c.Rank())
			}
		}
		// Every rank's result has come down once the barrier is over.
		if err := c.Barrier(); err != nil {
			return err
		}
		if _, held := onFreeList(got); held {
			return fmt.Errorf("rank %d: the segment AllReduce received went back to the free list", c.Rank())
		}
		for i := 1; i <= 4; i++ {
			if c.Rank() == heldLate {
				queued(c, c.tagFor(1))
			}
			if err := bcast(i); err != nil {
				return err
			}
		}
		if !bytes.Equal(res, want) {
			return fmt.Errorf("rank %d: the AllReduce result differs at byte %d", c.Rank(), firstDiff(res, want))
		}
		if got != nil {
			if !bytes.Equal(got, want) {
				return fmt.Errorf("rank %d: what AllReduce received was overwritten at byte %d", c.Rank(), firstDiff(got, want))
			}
			if _, held := onFreeList(got); held {
				return fmt.Errorf("rank %d: the segment AllReduce received is on the free list", c.Rank())
			}
		}
		return c.Barrier()
	})
}
