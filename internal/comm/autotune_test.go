package comm

import (
	"bytes"
	"fmt"
	"testing"

	"repro/internal/cube"
)

// TestAdaptiveBcastMSBTReassembles is the adaptive-framing property
// test: for arbitrary payload lengths × packet sizes — including B=1,
// packet counts that leave zero-length or one-byte tails, segments
// shorter than B (legacy framing on some trees, adaptive on others) —
// every rank must reassemble the root's bytes exactly, on both the
// in-process and socket backends.
func TestAdaptiveBcastMSBTReassembles(t *testing.T) {
	eachTransport(t, func(t *testing.T, run func(int, func(*Comm) error) error) {
		for _, n := range []int{2, 3} {
			for _, l := range []int{0, 1, n - 1, 97, 1<<10 + 13, 8 << 10} {
				for _, B := range []int{1, 7, 64, 4 << 10} {
					msg := make([]byte, l)
					for i := range msg {
						msg[i] = byte(i*167 + 11)
					}
					err := run(n, func(c *Comm) error {
						c.SetAutotune(true)
						c.forceB = B
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
						t.Fatalf("n=%d l=%d B=%d: %v", n, l, B, err)
					}
				}
			}
		}
	})
}

// TestAdaptiveInteropWithLegacyReceivers checks the framing is
// self-describing: ranks that never enabled autotuning still decode an
// autotuned root's packets, and an autotuned rank still decodes a
// legacy root's single chunk.
func TestAdaptiveInteropWithLegacyReceivers(t *testing.T) {
	msg := make([]byte, 4<<10)
	for i := range msg {
		msg[i] = byte(i)
	}
	err := Run(3, func(c *Comm) error {
		// Round 1: root autotuned, everyone else legacy.
		if c.Rank() == 0 {
			c.SetAutotune(true)
			c.forceB = 100
		}
		got, err := c.BcastMSBT(0, msgIf(c, 0, msg))
		if err != nil {
			return err
		}
		if !bytes.Equal(got, msg) {
			return fmt.Errorf("rank %d (round 1): bad reassembly", c.Rank())
		}
		// Round 2: root legacy, everyone else autotuned.
		c.SetAutotune(c.Rank() != 1)
		got, err = c.BcastMSBT(1, msgIf(c, 1, msg))
		if err != nil {
			return err
		}
		if !bytes.Equal(got, msg) {
			return fmt.Errorf("rank %d (round 2): bad reassembly", c.Rank())
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func msgIf(c *Comm, root cube.NodeID, msg []byte) []byte {
	if c.Rank() == root {
		return msg
	}
	return nil
}

// TestAutotuneCountsCollectives drives a socket mesh until the cost
// profile settles, then checks the tuner actually engages: the root's
// counters record a choice within the clamp range.
func TestAutotuneCountsCollectives(t *testing.T) {
	const (
		m = 256 << 10
		// How soon ProfileMinSamples flushes have been timed depends on
		// the host's load, so the root watches its profile and tells the
		// mesh when to stop: a few rounds after it settles, or at the cap.
		maxRounds = 400
		tail      = 4
	)
	msg := make([]byte, m)
	for i := range msg {
		msg[i] = byte(i * 31)
	}
	var got AutotuneStats
	rounds := 0
	err := RunTCPWith(2, TCPRunOptions{Autotune: true}, func(c *Comm) error {
		// Small and bulk rounds mixed, so the two cost parameters are
		// separable.
		stop, r := maxRounds, 0
		for ; r < stop; r++ {
			if err := c.Barrier(); err != nil {
				return err
			}
			if _, err := c.BcastMSBT(0, msgIf(c, 0, msg)); err != nil {
				return err
			}
			if stop < maxRounds {
				continue // settled: only the tail is left
			}
			settled := []byte{0}
			if p, ok := c.Profile(); c.Rank() == 0 && ok && p.Valid() {
				settled[0] = 1
			}
			settled, err := c.Bcast(0, settled)
			if err != nil {
				return err
			}
			if settled[0] == 1 {
				stop = min(r+1+tail, maxRounds)
			}
		}
		if c.Rank() == 0 {
			rounds, got = r, c.AutotuneStats()
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	// The first rounds run legacy while the profile settles
	// (ProfileMinSamples timed flushes), then the tuner engages.
	if got.Collectives == 0 || got.Collectives > rounds {
		t.Fatalf("root tuned %d collectives, want 1..%d", got.Collectives, rounds)
	}
	seg := (m + 1) / 2
	if got.LastB < minAutoB || got.LastB > seg {
		t.Fatalf("LastB = %d outside clamp range [%d, %d]", got.LastB, minAutoB, seg)
	}
	if got.MinB > got.MaxB || got.MaxB > seg {
		t.Fatalf("implausible bounds: %+v", got)
	}
}

// TestChunkBoundsAdaptiveSplit is the packetization property test: for
// arbitrary (payload, trees, packet size), splitting each chunkBound
// segment into ≤B packets covers [0, l) exactly once — offsets
// contiguous, no overlap, zero-length tails only where the segment
// itself is empty.
func TestChunkBoundsAdaptiveSplit(t *testing.T) {
	for l := 0; l <= 64; l++ {
		for n := 1; n <= 6; n++ {
			for _, B := range []int{1, 2, 3, 5, 8, 64} {
				covered := 0
				for j := 0; j < n; j++ {
					segLen := chunkBound(l, n, j+1) - chunkBound(l, n, j)
					if segLen <= B {
						covered += segLen
						continue
					}
					q := (segLen + B - 1) / B
					for k := 0; k < q; k++ {
						lo := k * B
						hi := lo + B
						if hi > segLen {
							hi = segLen
						}
						if hi <= lo {
							t.Fatalf("l=%d n=%d B=%d tree %d packet %d empty (segLen=%d)", l, n, B, j, k, segLen)
						}
						covered += hi - lo
					}
				}
				if covered != l {
					t.Fatalf("l=%d n=%d B=%d: packets cover %d bytes", l, n, B, covered)
				}
			}
		}
	}
}
