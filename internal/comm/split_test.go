package comm

import (
	"bytes"
	"fmt"
	"testing"

	"repro/internal/cube"
	"repro/internal/transport"
)

// TestCollectivesOnSplitMesh spreads a 4-cube over two TCP endpoints of
// eight ranks each, so links inside a half stay in-process and links
// across the bisection are sockets, and runs Bcast, BcastMSBT (large
// enough to land), Scatter and AllToAll from a root in the low half.
// Every rank of both halves must hold exactly its payloads.
func TestCollectivesOnSplitMesh(t *testing.T) {
	const n, root = 4, 3
	hosts := [][]cube.NodeID{{0, 1, 2, 3, 4, 5, 6, 7}, {8, 9, 10, 11, 12, 13, 14, 15}}
	data := landingPayload(256<<10, 7)
	per := make([][]byte, 1<<n)
	for i := range per {
		per[i] = []byte(fmt.Sprintf("split-mesh payload for %d", i))
	}
	pair := func(from, to int) []byte { return []byte(fmt.Sprintf("%d->%d", from, to)) }
	hostedMesh(t, n, hosts, func(int) transport.TCPOptions { return transport.TCPOptions{} }, nil, func(c *Comm) error {
		me := int(c.Rank())
		got, err := c.Bcast(root, data)
		if err != nil {
			return err
		}
		if !bytes.Equal(got, data) {
			return fmt.Errorf("rank %d: Bcast result differs at byte %d", me, firstDiff(got, data))
		}
		if got, err = c.BcastMSBT(root, data); err != nil {
			return err
		}
		if !bytes.Equal(got, data) {
			return fmt.Errorf("rank %d: BcastMSBT result differs at byte %d", me, firstDiff(got, data))
		}
		if got, err = c.Scatter(root, per); err != nil {
			return err
		}
		if !bytes.Equal(got, per[me]) {
			return fmt.Errorf("rank %d: Scatter gave %q", me, got)
		}
		mine := make([][]byte, c.Size())
		for d := range mine {
			mine[d] = pair(me, d)
		}
		all, err := c.AllToAll(mine)
		if err != nil {
			return err
		}
		for r, b := range all {
			if !bytes.Equal(b, pair(r, me)) {
				return fmt.Errorf("rank %d: AllToAll gave %q from %d", me, b, r)
			}
		}
		return c.Barrier()
	})
}
