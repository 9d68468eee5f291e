package comm

import (
	"bytes"
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
	"unsafe"

	"repro/internal/cube"
	"repro/internal/mpx"
	"repro/internal/msbt"
	"repro/internal/testleak"
	"repro/internal/transport"
)

// TestHotStructSizes pins the structs every message and every job pays
// for. Envelope, Message and Part are copied per hop and sit in mailbox
// queues; a Comm is made per job. The body checksum rides in what was
// Envelope's padding; the receive lease adds 8 bytes, and the spine's
// in-process all-to-all row, which copies envelopes the most, still
// allocates 0 KiB per op with them. A field that pushes one of these
// into the next size class shows up as allocated bytes on every spine
// row.
func TestHotStructSizes(t *testing.T) {
	for _, s := range []struct {
		name      string
		got, want uintptr
	}{
		{"mpx.Envelope", unsafe.Sizeof(mpx.Envelope{}), 56},
		{"mpx.Message", unsafe.Sizeof(mpx.Message{}), 32},
		{"mpx.Part", unsafe.Sizeof(mpx.Part{}), 48},
	} {
		if s.got != s.want {
			t.Errorf("%s is %d bytes, want %d", s.name, s.got, s.want)
		}
	}
	if got := unsafe.Sizeof(Comm{}); got > 384 {
		t.Errorf("Comm is %d bytes, want at most 384 (its size class)", got)
	}
}

// TestBcastMSBTChunksMustTile: the pieces a rank receives must cover the
// payload exactly once. Rank 0 sends the honest chunk down tree 0 and a
// forged message down tree 1: a chunk that overlaps tree 0's (and so
// leaves a hole at the end, which a recycled buffer would fill with the
// previous payload), one that starts past it, or the retired packet
// manifest, an empty part at offset -q ahead of the data. Every rank
// fails, well inside its deadline, with the "do not tile" error naming
// the rank, the offsets and the total — on every transport, whether or
// not the chunks landed.
func TestBcastMSBTChunksMustTile(t *testing.T) {
	const n, size = 2, 64 << 10
	const root = cube.NodeID(0)
	payload := landingPayload(size, 6)
	chunk := func(lo, hi int) mpx.Part { return mpx.Part{Dest: root, Offset: lo, Data: payload[lo:hi]} }
	for _, forged := range []struct {
		what  string
		tree1 []mpx.Part // tree 0's chunk is the honest [0, size/2)
		end   int        // where the pieces before the offending one end
		lo    int        // the offending piece's span
		hi    int
		total int
	}{
		{"overlap", []mpx.Part{chunk(size/2-8, size-8)}, size / 2, size/2 - 8, size - 8, size},
		{"gap", []mpx.Part{chunk(size/2+8, size)}, size / 2, size/2 + 8, size, size - 8},
		{"overlap", []mpx.Part{{Dest: root, Offset: -2}, chunk(size/2, size)}, 0, -2, -2, size},
	} {
		eachTransport(t, func(t *testing.T, run func(int, func(*Comm) error) error) {
			err := run(n, func(c *Comm) error {
				c.SetDeadline(5 * time.Second)
				if c.Rank() == root {
					c.send(msbt.RootOf(0, root), 1, []mpx.Part{chunk(0, size/2)})
					c.send(msbt.RootOf(1, root), 2, forged.tree1)
					c.next()
					return c.Barrier()
				}
				got, err := c.BcastMSBT(root, nil)
				if err == nil {
					return fmt.Errorf("rank %d: tree 1's %d parts were accepted as a %d-byte payload", c.Rank(), len(forged.tree1), len(got))
				}
				for _, want := range []string{
					fmt.Sprintf("rank %d", c.Rank()), forged.what, fmt.Sprintf("byte %d,", forged.end),
					fmt.Sprintf("[%d,%d)", forged.lo, forged.hi), fmt.Sprintf("do not tile the %d-byte", forged.total),
				} {
					if !strings.Contains(err.Error(), want) {
						return fmt.Errorf("rank %d: error %q does not say %q", c.Rank(), err, want)
					}
				}
				return c.Barrier()
			})
			if err != nil {
				t.Fatalf("%s at [%d,%d): %v", forged.what, forged.lo, forged.hi, err)
			}
		})
	}
}

// TestBcastMSBTRecyclesResult is the ownership contract off the root: a
// result is valid until the communicator's next BcastMSBT, which lands
// into the same memory whenever it is large enough — growing, shrinking
// and empty payloads included, each byte-exact — while the root keeps
// getting its own data back. The in-process transport is the forfeit:
// it delivers by reference and cannot settle, so no result is reused.
func TestBcastMSBTRecyclesResult(t *testing.T) {
	const n = 3
	const root = cube.NodeID(0)
	sizes := []int{1 << 20, 1 << 20, 2 << 20, 512 << 10, 0, 1 << 20}
	payloads := make([][]byte, len(sizes))
	for i, size := range sizes {
		payloads[i] = landingPayload(size, 10+i)
	}
	program := func(recycles bool) func(c *Comm) error {
		return func(c *Comm) error {
			c.SetDeadline(20 * time.Second)
			var prev []byte
			for i, payload := range payloads {
				var in []byte
				if c.Rank() == root {
					in = payload
				}
				got, err := c.BcastMSBT(root, in)
				if err != nil {
					return err
				}
				if !bytes.Equal(got, payload) {
					return fmt.Errorf("rank %d call %d (%d bytes): result differs at byte %d", c.Rank(), i, sizes[i], firstDiff(got, payload))
				}
				switch {
				case c.Rank() == root:
					if len(got) > 0 && &got[0] != &payload[0] {
						return fmt.Errorf("root call %d: the result is not the root's own data", i)
					}
				case i == 0:
				case !recycles:
					if len(got) > 0 && len(prev) > 0 && &got[0] == &prev[0] {
						return fmt.Errorf("rank %d call %d: reused the previous result's buffer on a transport that cannot settle", c.Rank(), i)
					}
				case sizes[i] <= cap(prev):
					if shared := &got[:1][0] == &prev[:1][0]; !shared {
						return fmt.Errorf("rank %d call %d: %d bytes did not reuse the previous result's %d-byte buffer", c.Rank(), i, sizes[i], cap(prev))
					}
				}
				prev = got
			}
			return nil
		}
	}
	t.Run("chan", func(t *testing.T) {
		if err := Run(n, program(false)); err != nil {
			t.Fatal(err)
		}
	})
	for _, network := range []string{"tcp", "unix"} {
		for _, res := range []transport.ResilienceOptions{{}, {Enabled: true, Budget: 5 * time.Second}} {
			t.Run(fmt.Sprintf("%s/resilient=%v", network, res.Enabled), func(t *testing.T) {
				testleak.Check(t)
				if err := RunTCPWith(n, TCPRunOptions{Network: network, Resilience: res}, program(true)); err != nil {
					t.Fatal(err)
				}
			})
		}
	}
}

// postedFor parks the caller until rank c has a landing zone posted for
// the collective whose first tree tag is tag0, or has been stopped.
func postedFor(c *Comm, tag0 int) {
	for done := false; !done; time.Sleep(50 * time.Microsecond) {
		c.mu.Lock()
		done = c.stopped || c.zone != nil && c.zone.posted && c.zone.tag0 == tag0
		c.mu.Unlock()
	}
}

// TestBcastMSBTFenceHoldsReuse: rank 2 heads the last tree of a 2-cube
// broadcast from rank 0, so forwarding that tree's chunk to rank 3 is
// the last thing it does in a call, and the root's next chunk for the
// same region of the same buffer is the first thing to arrive in the
// next. Every link's writer is slowed at random meanwhile (the chaos
// agent's delay fault stalls a flush with the forwards it has taken
// still unwritten), and the root sends as soon as rank 2 has posted.
// Without the fence the new chunk lands over the forward still queued
// and rank 3 drops a frame that no longer matches its checksum, or
// returns the wrong broadcast's bytes; with it, every rank of every
// broadcast gets exactly what the root sent.
func TestBcastMSBTFenceHoldsReuse(t *testing.T) {
	testleak.Check(t)
	const n, size, rounds = 2, 256 << 10, 32
	const root, relay = cube.NodeID(0), cube.NodeID(2)
	if msbt.RootOf(n-1, root) != relay {
		t.Fatalf("tree %d is headed by %d, the test assumes %d", n-1, msbt.RootOf(n-1, root), relay)
	}
	payloads := make([][]byte, rounds)
	for i := range payloads {
		payloads[i] = landingPayload(size, 40+i)
	}
	comms := make([]*Comm, 1<<n)
	var registered sync.WaitGroup
	registered.Add(len(comms))
	chaos := &transport.ChaosOptions{
		Seed: 11, Kinds: []transport.ChaosKind{transport.ChaosDelay},
		MinPause: time.Millisecond, MaxPause: 2 * time.Millisecond, Hold: 40 * time.Millisecond,
	}
	err := RunTCPWith(n, TCPRunOptions{Chaos: chaos}, func(c *Comm) error {
		c.SetDeadline(5 * time.Second)
		comms[c.Rank()] = c
		registered.Done()
		for i, payload := range payloads {
			var in []byte
			if c.Rank() == root {
				in = payload
				registered.Wait()
				postedFor(comms[relay], c.tagFor(1))
			}
			got, err := c.BcastMSBT(root, in)
			if err != nil {
				return fmt.Errorf("round %d: %w", i, err)
			}
			if !bytes.Equal(got, payload) {
				return fmt.Errorf("rank %d round %d: result differs at byte %d: a buffer was reused under a queued forward", c.Rank(), i, firstDiff(got, payload))
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestScatterFenceHoldsRelayBuffer: in the 3-cube's BST rooted at 0,
// rank 1 receives the bundle [1 3 7] of 8 KiB parts and forwards [3 7]
// to rank 3, by reference (parts of zcThreshold and more are queued for
// a vectored write, not copied). Its bundle's receive record goes back
// to the endpoint at rank 1's next Scatter, and the root, which waits
// for nobody, has the following bundles on their way by then: one of
// them is read into that record as soon as it is free. Meanwhile the
// chaos agent's delay fault keeps stalling rank 1's flushes with the
// forward still queued. Without the send fence before the release, a
// forward goes out with the next bundle's bytes under its own checksum,
// and rank 3 drops it and misses its deadline, or passes on the wrong
// bytes; with it, every rank gets exactly its own payload of every call.
func TestScatterFenceHoldsRelayBuffer(t *testing.T) {
	testleak.Check(t)
	const n, size, calls = 3, 8 << 10, 200
	const root, relay = cube.NodeID(0), cube.NodeID(1)
	var payloads [2][][]byte // alternate, so a reused buffer shows
	for k := range payloads {
		for r := 0; r < 1<<n; r++ {
			payloads[k] = append(payloads[k], landingPayload(size, 10*r+k))
		}
	}
	slow := func(tr *transport.TCP) mpx.Transport {
		if tr.Locals()[0] == relay {
			tr.StartChaos(transport.ChaosOptions{
				Seed: 5, Kinds: []transport.ChaosKind{transport.ChaosDelay},
				MinPause: time.Millisecond, MaxPause: 2 * time.Millisecond, Hold: 40 * time.Millisecond,
			})
		}
		return tr
	}
	socketMesh(t, n, nil, slow, func(c *Comm) error {
		c.SetDeadline(5 * time.Second)
		for i := 0; i < calls; i++ {
			in := payloads[i%2]
			got, err := c.Scatter(root, in)
			if err != nil {
				return fmt.Errorf("call %d: %w", i, err)
			}
			if want := in[c.Rank()]; !bytes.Equal(got, want) {
				return fmt.Errorf("rank %d call %d: result differs at byte %d: a receive buffer was reused under a queued forward", c.Rank(), i, firstDiff(got, want))
			}
		}
		return nil
	})
}

// countForwards is an endpoint that counts the relays' verbatim
// forwards: those that arrive carrying a verified checksum to pass on.
type countForwards struct {
	*transport.TCP
	hinted *atomic.Int64
}

func (f countForwards) Forward(from cube.NodeID, port int, env mpx.Envelope) error {
	if env.BodyCRC != 0 {
		f.hinted.Add(1)
	}
	return f.TCP.Forward(from, port, env)
}

// TestBcastMSBTPassThroughReachesTheLinks: every relay hop of a large
// broadcast on plain socket links — each tree edge that does not start
// at the root — forwards under the checksum the chunk arrived with, and
// a broadcast too small to be streamed passes none.
func TestBcastMSBTPassThroughReachesTheLinks(t *testing.T) {
	const n = 2
	const root = cube.NodeID(0)
	for _, tc := range []struct{ size, want int }{
		{1 << 20, n * (1<<n - 2)},
		{300, 0},
	} {
		payload := landingPayload(tc.size, 9)
		var hinted atomic.Int64
		wrap := func(tr *transport.TCP) mpx.Transport { return countForwards{tr, &hinted} }
		socketMesh(t, n, nil, wrap, func(c *Comm) error {
			var in []byte
			if c.Rank() == root {
				in = payload
			}
			got, err := c.BcastMSBT(root, in)
			if err == nil && !bytes.Equal(got, payload) {
				err = fmt.Errorf("rank %d: result differs at byte %d", c.Rank(), firstDiff(got, payload))
			}
			return err
		})
		if got := hinted.Load(); got != int64(tc.want) {
			t.Errorf("%d-byte broadcast: %d forwards carried a verified checksum, want %d", tc.size, got, tc.want)
		}
	}
}
