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
	"repro/internal/svc"
	"repro/internal/testleak"
	"repro/internal/transport"
)

// TestHotStructSizes pins the structs every message and every job pays
// for. Envelope, Message and Part are copied per hop and sit in mailbox
// queues; a Comm is made per job. The body checksum rides in what was
// Envelope's padding: a field that pushes one of these into the next
// size class shows up as allocated bytes on every spine row.
func TestHotStructSizes(t *testing.T) {
	for _, s := range []struct {
		name      string
		got, want uintptr
	}{
		{"mpx.Envelope", unsafe.Sizeof(mpx.Envelope{}), 48},
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
// getting its own data back.
func TestBcastMSBTRecyclesResult(t *testing.T) {
	const n = 3
	const root = cube.NodeID(0)
	sizes := []int{1 << 20, 1 << 20, 2 << 20, 512 << 10, 0, 1 << 20}
	payloads := make([][]byte, len(sizes))
	for i, size := range sizes {
		payloads[i] = landingPayload(size, 10+i)
	}
	for _, network := range []string{"tcp", "unix"} {
		for _, res := range []transport.ResilienceOptions{{}, {Enabled: true, Budget: 5 * time.Second}} {
			t.Run(fmt.Sprintf("%s/resilient=%v", network, res.Enabled), func(t *testing.T) {
				testleak.Check(t)
				err := RunTCPWith(n, TCPRunOptions{Network: network, Resilience: res, Deadline: 20 * time.Second}, func(c *Comm) error {
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
						case i > 0 && sizes[i] <= cap(prev):
							if shared := &got[:1][0] == &prev[:1][0]; !shared {
								return fmt.Errorf("rank %d call %d: %d bytes did not reuse the previous result's %d-byte buffer", c.Rank(), i, sizes[i], cap(prev))
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
	err := RunTCPWith(n, TCPRunOptions{Chaos: chaos, Deadline: 5 * time.Second}, func(c *Comm) error {
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
		wrap := func(_ int, tr *transport.TCP) mpx.Transport { return countForwards{tr, &hinted} }
		hostedMesh(t, n, onePerRank(n), func(int) transport.TCPOptions { return transport.TCPOptions{} }, wrap, func(c *Comm) error {
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

// heldSend is an endpoint whose hosted node from, asked to send tag
// through port, waits for release first.
type heldSend struct {
	*transport.TCP
	from      cube.NodeID
	port, tag int
	release   <-chan struct{}
}

func (h *heldSend) wait(from cube.NodeID, port, tag int) {
	if from == h.from && port == h.port && tag == h.tag {
		<-h.release
	}
}

func (h *heldSend) Send(from cube.NodeID, port int, msg mpx.Message) error {
	h.wait(from, port, msg.Tag)
	return h.TCP.Send(from, port, msg)
}

func (h *heldSend) Forward(from cube.NodeID, port int, env mpx.Envelope) error {
	h.wait(from, port, env.Tag)
	return h.TCP.Forward(from, port, env)
}

// TestBcastMSBTCoHostedRanksDoNotRecycle: ranks 3 and 2 share an
// endpoint, and in tree 0 (root 0) rank 3 is rank 2's parent, so 3's
// forward hands 2 a view of 3's landing buffer in process. Rank 2 is
// then parked inside the first broadcast — tree 2's chunk, which reaches
// it through rank 6 and nobody else needs from it, is held back — with
// that view in hand, while rank 3 finishes and starts a second broadcast
// of a different payload. No fence can vouch for rank 2's view, so rank
// 3 must land the second payload in a fresh buffer: rank 2's first
// result is byte-exact when it is finally let go.
func TestBcastMSBTCoHostedRanksDoNotRecycle(t *testing.T) {
	testleak.Check(t)
	const n, size = 3, 1 << 20
	const root, parent, child, holder = cube.NodeID(0), cube.NodeID(3), cube.NodeID(2), cube.NodeID(6)
	if p, _ := msbt.Parent(n, 0, child, root); p != parent {
		t.Fatalf("tree 0: rank %d's parent is %d, the test assumes %d", child, p, parent)
	}
	if p, _ := msbt.Parent(n, n-1, child, root); p != holder || len(msbt.Children(n, n-1, child, root)) != 0 {
		t.Fatalf("tree %d: rank %d must be a leaf under %d", n-1, child, holder)
	}
	first, second := landingPayload(size, 7), landingPayload(size, 8)
	hosts := [][]cube.NodeID{{0}, {1}, {child, parent}, {4}, {5}, {6}, {7}}
	comms := make([]*Comm, 1<<n)
	var registered sync.WaitGroup
	registered.Add(len(comms))
	release := make(chan struct{})
	// Let the held chunk go once rank 3's second broadcast has taken
	// delivery of tree 0's chunk — the one that would overwrite rank 2's
	// view — or when the test is clearly stuck.
	go func() {
		defer close(release)
		registered.Wait()
		c := comms[parent]
		for deadline := time.Now().Add(10 * time.Second); time.Now().Before(deadline); time.Sleep(100 * time.Microsecond) {
			c.mu.Lock()
			z := c.zone
			done := z != nil && z.posted && z.tag0 == svc.StreamTag(1, 1) && z.at[0].shut
			c.mu.Unlock()
			if done {
				return
			}
		}
	}()
	hostedMesh(t, n, hosts, func(int) transport.TCPOptions { return transport.TCPOptions{} },
		func(i int, tr *transport.TCP) mpx.Transport {
			if hosts[i][0] != holder {
				return tr
			}
			return &heldSend{TCP: tr, from: holder, port: 2, tag: svc.StreamTag(0, n), release: release}
		},
		func(c *Comm) error {
			comms[c.Rank()] = c
			registered.Done()
			c.SetDeadline(20 * time.Second)
			var results [2][]byte
			for i, payload := range [][]byte{first, second} {
				var in []byte
				if c.Rank() == root {
					// Rank 3's chunks must land, not arrive early: hold this
					// call back until rank 3 has posted for it.
					in = payload
					registered.Wait()
					postedFor(comms[parent], c.tagFor(1))
				}
				got, err := c.BcastMSBT(root, in)
				if err != nil {
					return err
				}
				if !bytes.Equal(got, payload) {
					return fmt.Errorf("rank %d call %d: result differs at byte %d", c.Rank(), i, firstDiff(got, payload))
				}
				results[i] = got
			}
			if c.Rank() == parent && &results[0][0] == &results[1][0] {
				return fmt.Errorf("rank %d reused a buffer its co-hosted child %d still held a view of", parent, child)
			}
			return c.Barrier()
		})
}
