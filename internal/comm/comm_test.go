package comm

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"testing"

	"repro/internal/cube"
	"repro/internal/mpx"
)

// runners are the transport backends every collective test runs
// against: the in-process channel transport (Run), and loopback TCP and
// Unix-domain sockets (RunTCPWith). The collective programs are
// identical — the transport choice must be invisible to them.
var runners = []struct {
	name string
	run  func(n int, program func(c *Comm) error) error
}{
	{"chan", Run},
	{"tcp", func(n int, program func(c *Comm) error) error {
		return RunTCPWith(n, TCPRunOptions{}, program)
	}},
	{"uds", func(n int, program func(c *Comm) error) error {
		return RunTCPWith(n, TCPRunOptions{Network: "unix"}, program)
	}},
}

// eachTransport runs the test body once per transport backend.
func eachTransport(t *testing.T, fn func(t *testing.T, run func(int, func(*Comm) error) error)) {
	t.Helper()
	for _, r := range runners {
		t.Run(r.name, func(t *testing.T) { fn(t, r.run) })
	}
}

func add64(a, b []byte) []byte {
	s := binary.LittleEndian.Uint64(a) + binary.LittleEndian.Uint64(b)
	return binary.LittleEndian.AppendUint64(nil, s)
}

func u64(v uint64) []byte { return binary.LittleEndian.AppendUint64(nil, v) }

func TestBcast(t *testing.T) {
	eachTransport(t, func(t *testing.T, run func(int, func(*Comm) error) error) {
		for _, n := range []int{1, 3, 5} {
			for _, root := range []cube.NodeID{0, cube.NodeID(1<<uint(n) - 1)} {
				msg := []byte("broadcast-me")
				err := run(n, func(c *Comm) error {
					var in []byte
					if c.Rank() == root {
						in = msg
					}
					got, err := c.Bcast(root, in)
					if err != nil {
						return err
					}
					if !bytes.Equal(got, msg) {
						return fmt.Errorf("rank %d got %q", c.Rank(), got)
					}
					return nil
				})
				if err != nil {
					t.Fatalf("n=%d root=%d: %v", n, root, err)
				}
			}
		}
	})
}

func TestBcastMSBT(t *testing.T) {
	eachTransport(t, func(t *testing.T, run func(int, func(*Comm) error) error) {
		for _, n := range []int{1, 3, 6} {
			msg := bytes.Repeat([]byte("chunky"), 50) // 300 bytes, odd vs n
			err := run(n, func(c *Comm) error {
				var in []byte
				if c.Rank() == 2%(1<<uint(n)) {
					in = msg
				}
				got, err := c.BcastMSBT(cube.NodeID(2%(1<<uint(n))), in)
				if err != nil {
					return err
				}
				if !bytes.Equal(got, msg) {
					return fmt.Errorf("rank %d reassembled %d bytes", c.Rank(), len(got))
				}
				return nil
			})
			if err != nil {
				t.Fatalf("n=%d: %v", n, err)
			}
		}
	})
}

func TestScatterGatherRoundTrip(t *testing.T) {
	eachTransport(t, func(t *testing.T, run func(int, func(*Comm) error) error) {
		n := 5
		N := 1 << uint(n)
		root := cube.NodeID(9)
		payloads := make([][]byte, N)
		for i := range payloads {
			payloads[i] = []byte(fmt.Sprintf("to-%d", i))
		}
		err := run(n, func(c *Comm) error {
			var in [][]byte
			if c.Rank() == root {
				in = payloads
			}
			mine, err := c.Scatter(root, in)
			if err != nil {
				return err
			}
			if want := fmt.Sprintf("to-%d", c.Rank()); string(mine) != want {
				return fmt.Errorf("rank %d got %q", c.Rank(), mine)
			}
			// Round-trip: gather the payloads back at the root.
			all, err := c.Gather(root, mine)
			if err != nil {
				return err
			}
			if c.Rank() == root {
				for i := range all {
					if !bytes.Equal(all[i], payloads[i]) {
						return fmt.Errorf("gather slot %d wrong", i)
					}
				}
			} else if all != nil {
				return fmt.Errorf("non-root received gather result")
			}
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
	})
}

func TestReduceAndAllReduce(t *testing.T) {
	eachTransport(t, func(t *testing.T, run func(int, func(*Comm) error) error) {
		n := 4
		N := uint64(1) << uint(n)
		wantSum := N * (N - 1) / 2
		err := run(n, func(c *Comm) error {
			res, err := c.Reduce(0, u64(uint64(c.Rank())), add64)
			if err != nil {
				return err
			}
			if c.Rank() == 0 {
				if got := binary.LittleEndian.Uint64(res); got != wantSum {
					return fmt.Errorf("reduce got %d", got)
				}
			} else if res != nil {
				return fmt.Errorf("non-root got reduce result")
			}
			all, err := c.AllReduce(u64(uint64(c.Rank())), add64)
			if err != nil {
				return err
			}
			if got := binary.LittleEndian.Uint64(all); got != wantSum {
				return fmt.Errorf("rank %d allreduce got %d", c.Rank(), got)
			}
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
	})
}

// TestAllReduceSendsTwoMessagesPerTreeEdge counts frames on a fault-free
// 3-cube of socket endpoints: k AllReduces add exactly k·2(N−1) to the
// frames sent, one up and one down each tree edge. A dimension exchange
// sends k·N·n. Each directed link carries one message per call and the
// next only after the first was read, so no two share a batch frame.
func TestAllReduceSendsTwoMessagesPerTreeEdge(t *testing.T) {
	const n, N, k = 3, 1 << 3, 5
	frames := func(calls int) int64 {
		var sent int64
		opt := TCPRunOptions{StatsSink: func(s mpx.TransportStats) { sent = s.FramesSent }}
		err := RunTCPWith(n, opt, func(c *Comm) error {
			for i := 0; i < calls; i++ {
				if _, err := c.AllReduce(u64(uint64(c.Rank())), add64); err != nil {
					return err
				}
			}
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		return sent
	}
	base := frames(0)
	if got, want := frames(k)-base, int64(k*2*(N-1)); got != want {
		t.Fatalf("%d AllReduces on %d ranks sent %d frames, want %d (2(N−1) per call)", k, N, got, want)
	}
}

func TestScanOrdering(t *testing.T) {
	eachTransport(t, func(t *testing.T, run func(int, func(*Comm) error) error) {
		n := 4
		concat := func(a, b []byte) []byte { return append(append([]byte(nil), a...), b...) }
		err := run(n, func(c *Comm) error {
			got, err := c.Scan([]byte{byte('a' + c.Rank()%26)}, concat)
			if err != nil {
				return err
			}
			want := make([]byte, 0, int(c.Rank())+1)
			for i := 0; i <= int(c.Rank()); i++ {
				want = append(want, byte('a'+i%26))
			}
			if !bytes.Equal(got, want) {
				return fmt.Errorf("rank %d scan %q want %q", c.Rank(), got, want)
			}
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
	})
}

func TestAllGatherAndAllToAll(t *testing.T) {
	eachTransport(t, func(t *testing.T, run func(int, func(*Comm) error) error) {
		n := 4
		N := 1 << uint(n)
		err := run(n, func(c *Comm) error {
			all, err := c.AllGather([]byte(fmt.Sprintf("from-%d", c.Rank())))
			if err != nil {
				return err
			}
			for r := 0; r < N; r++ {
				if want := fmt.Sprintf("from-%d", r); string(all[r]) != want {
					return fmt.Errorf("rank %d allgather[%d] = %q", c.Rank(), r, all[r])
				}
			}
			outbound := make([][]byte, N)
			for d := range outbound {
				outbound[d] = []byte(fmt.Sprintf("%d>%d", c.Rank(), d))
			}
			got, err := c.AllToAll(outbound)
			if err != nil {
				return err
			}
			for r := 0; r < N; r++ {
				if want := fmt.Sprintf("%d>%d", r, c.Rank()); string(got[r]) != want {
					return fmt.Errorf("rank %d alltoall[%d] = %q", c.Rank(), r, got[r])
				}
			}
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
	})
}

func TestCollectiveSequencesCompose(t *testing.T) {
	eachTransport(t, func(t *testing.T, run func(int, func(*Comm) error) error) {
		// Many collectives back to back: sequence stamping must keep streams
		// separated even with nodes running ahead.
		n := 3
		err := run(n, func(c *Comm) error {
			for round := 0; round < 20; round++ {
				msg := []byte{byte(round)}
				var in []byte
				if c.Rank() == 0 {
					in = msg
				}
				got, err := c.Bcast(0, in)
				if err != nil {
					return err
				}
				if got[0] != byte(round) {
					return fmt.Errorf("round %d: rank %d got %d", round, c.Rank(), got[0])
				}
				sum, err := c.AllReduce(u64(uint64(round)), add64)
				if err != nil {
					return err
				}
				if binary.LittleEndian.Uint64(sum) != uint64(round)*8 {
					return fmt.Errorf("round %d: allreduce wrong", round)
				}
			}
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
	})
}

func TestBarrier(t *testing.T) {
	eachTransport(t, func(t *testing.T, run func(int, func(*Comm) error) error) {
		err := run(4, func(c *Comm) error {
			for i := 0; i < 5; i++ {
				if err := c.Barrier(); err != nil {
					return err
				}
			}
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
	})
}

func TestErrorAbortsJob(t *testing.T) {
	eachTransport(t, func(t *testing.T, run func(int, func(*Comm) error) error) {
		// One rank erroring must not deadlock ranks blocked in a collective.
		sentinel := errors.New("rank failure")
		err := run(3, func(c *Comm) error {
			if c.Rank() == 5 {
				return sentinel // never joins the broadcast
			}
			var in []byte
			if c.Rank() == 0 {
				in = []byte("x")
			}
			_, err := c.Bcast(0, in)
			return err
		})
		if err == nil {
			t.Fatal("job completed despite failing rank")
		}
	})
}

func TestScatterValidatesPayloadCount(t *testing.T) {
	eachTransport(t, func(t *testing.T, run func(int, func(*Comm) error) error) {
		err := run(2, func(c *Comm) error {
			var in [][]byte
			if c.Rank() == 0 {
				in = make([][]byte, 3) // wrong: need 4
			}
			_, err := c.Scatter(0, in)
			return err
		})
		if err == nil {
			t.Fatal("bad payload count accepted")
		}
	})
}

func TestRankSizeDim(t *testing.T) {
	eachTransport(t, func(t *testing.T, run func(int, func(*Comm) error) error) {
		err := run(3, func(c *Comm) error {
			if c.Dim() != 3 || c.Size() != 8 {
				return fmt.Errorf("dim %d size %d", c.Dim(), c.Size())
			}
			if int(c.Rank()) >= c.Size() {
				return fmt.Errorf("rank %d out of range", c.Rank())
			}
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
	})
}

// TestChunkBounds pins the splitter's edge cases: fewer bytes than
// chunks, an empty payload, and the degenerate single-chunk split.
func TestChunkBounds(t *testing.T) {
	chunkBounds := func(l, n int) []int {
		out := make([]int, n+1)
		for j := range out {
			out[j] = chunkBound(l, n, j)
		}
		return out
	}
	cases := []struct {
		l, n int
		want []int
	}{
		{l: 2, n: 4, want: []int{0, 0, 1, 1, 2}}, // l < n: some chunks empty
		{l: 0, n: 3, want: []int{0, 0, 0, 0}},    // l = 0: all chunks empty
		{l: 7, n: 1, want: []int{0, 7}},          // n = 1: one chunk, whole payload
		{l: 10, n: 3, want: []int{0, 3, 6, 10}},  // non-divisible
	}
	for _, tc := range cases {
		got := chunkBounds(tc.l, tc.n)
		if len(got) != len(tc.want) {
			t.Fatalf("chunkBounds(%d,%d) = %v, want %v", tc.l, tc.n, got, tc.want)
		}
		for i := range got {
			if got[i] != tc.want[i] {
				t.Errorf("chunkBounds(%d,%d) = %v, want %v", tc.l, tc.n, got, tc.want)
				break
			}
		}
	}
	// Invariants for arbitrary (l, n): monotone bounds from 0 to l, and
	// chunk sizes within one byte of each other.
	for l := 0; l <= 40; l++ {
		for n := 1; n <= 8; n++ {
			b := chunkBounds(l, n)
			if b[0] != 0 || b[n] != l {
				t.Fatalf("chunkBounds(%d,%d) ends = [%d,%d], want [0,%d]", l, n, b[0], b[n], l)
			}
			min, max := l, 0
			for j := 0; j < n; j++ {
				sz := b[j+1] - b[j]
				if sz < 0 {
					t.Fatalf("chunkBounds(%d,%d) not monotone: %v", l, n, b)
				}
				if sz < min {
					min = sz
				}
				if sz > max {
					max = sz
				}
			}
			if max-min > 1 {
				t.Errorf("chunkBounds(%d,%d) unbalanced: %v", l, n, b)
			}
		}
	}
}

// TestBcastMSBTReassemblyExact is the reassembly property test: for
// payload lengths that do not divide evenly into n chunks — including
// lengths shorter than the chunk count and zero — every rank must
// reassemble the root's bytes exactly.
func TestBcastMSBTReassemblyExact(t *testing.T) {
	for _, n := range []int{2, 3, 4} {
		for _, l := range []int{0, 1, n - 1, n + 1, 97, 1<<10 + 13} {
			msg := make([]byte, l)
			for i := range msg {
				msg[i] = byte(i*131 + 7)
			}
			err := Run(n, func(c *Comm) error {
				var in []byte
				if c.Rank() == 0 {
					in = msg
				}
				got, err := c.BcastMSBT(0, in)
				if err != nil {
					return err
				}
				if !bytes.Equal(got, msg) {
					return fmt.Errorf("rank %d: reassembled %d bytes, want %d (first diff at %d)",
						c.Rank(), len(got), len(msg), firstDiff(got, msg))
				}
				return nil
			})
			if err != nil {
				t.Fatalf("n=%d l=%d: %v", n, l, err)
			}
		}
	}
}

func firstDiff(a, b []byte) int {
	for i := 0; i < len(a) && i < len(b); i++ {
		if a[i] != b[i] {
			return i
		}
	}
	return -1
}
