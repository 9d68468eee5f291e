package comm

// Scheduled all-node collectives: AllGather and AllToAll walking the
// contention-aware multi-source slot table from internal/sched instead
// of forwarding on arrival.
//
// sched.MultiSourcePlan packs the canonical (source-0) BST's edges into
// slots with at most one edge per cube dimension per slot — by the
// XOR-translation symmetry, that is exactly the condition for all 2^d
// sources' translated copies of a slot to occupy disjoint directed
// links. Every rank consumes the ONE canonical table directly: for a
// canonical edge u→v, rank r is the sender in source s = u^r's tree,
// and the physical destination is r^(u^v) (the edge's cube dimension is
// XOR-invariant). No per-rank or per-source schedule is materialized.
//
// Gating is causal, not barriered: a rank walks the slot-major edge
// list in order and blocks only until the payload a slot entry forwards
// has arrived. The delivering edge always sits in a strictly earlier
// slot (sched.MultiPlan.Verify), so when all ranks walk the same list
// the per-slot link-disjointness is realized without any barrier
// round-trips — and a rank can never deadlock: the globally earliest
// blocked entry's dependency has, by that same ordering, already been
// sent. The scheduled and naive modes send the same tree edges with the
// same tags and payloads, so they are wire-compatible and byte-exact
// equivalent (asserted by TestAllNodeScheduledNaiveEquivalence).

import (
	"fmt"

	"repro/internal/bst"
	"repro/internal/cube"
	"repro/internal/mpx"
	"repro/internal/sched"
	"repro/internal/svc"
)

// SetAllNodeSchedule toggles the contention-aware multi-source schedule
// for the all-node collectives (AllGather, AllToAll). It is ON by
// default; off restores the naive forward-on-arrival launch — the A/B
// baseline bench10 measures against. Call from the rank's own
// goroutine, like SetAutotune.
func (c *Comm) SetAllNodeSchedule(on bool) { c.naiveAllNode = !on }

// allGatherScheduled runs the N concurrent broadcasts in slot order:
// for each canonical edge u→v, this rank forwards source (u^me)'s
// payload to me^(u^v) when the edge's slot comes up, blocking only if
// that payload has not yet arrived.
func (c *Comm) allGatherScheduled(mine []byte) ([][]byte, error) {
	defer c.next()
	me := c.Rank()
	out := make([][]byte, c.Size())
	out[me] = mine
	got := make([]bool, c.Size())
	got[me] = true
	seen := 0
	recvOne := func() error {
		env, err := c.recvTagAnyRoot()
		if err != nil {
			return err
		}
		r := cube.NodeID(svc.StreamSub(env.Tag) - 1)
		if int(r) >= c.Size() || got[r] {
			return fmt.Errorf("comm: duplicate allgather payload from %d", r)
		}
		out[r] = env.Parts[0].Data
		got[r] = true
		seen++
		return nil
	}
	for _, e := range sched.MultiSourcePlan(c.n).Edges {
		s := e.From ^ me
		for !got[s] {
			if err := recvOne(); err != nil {
				return nil, err
			}
		}
		c.send(me^e.From^e.To, int(s)+1, []mpx.Part{{Dest: s, Data: out[s]}})
	}
	for seen < c.Size()-1 {
		if err := recvOne(); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// allToAllScheduled runs the N concurrent personalized scatters in slot
// order. Each arriving bundle is bucketed by child subtree ONCE (same
// two-pass layout as the naive path's routeParts, but retained instead
// of forwarded), and each bucket goes out when its canonical edge's
// slot comes up — e.Child indexes the buckets because ports, and hence
// port-ordered child lists, are XOR-invariant under translation.
func (c *Comm) allToAllScheduled(mine [][]byte) ([][]byte, error) {
	defer c.next()
	me := c.Rank()
	if len(mine) != c.Size() {
		return nil, fmt.Errorf("comm: alltoall needs %d payloads, got %d", c.Size(), len(mine))
	}
	out := make([][]byte, c.Size())
	out[me] = mine[me]
	bufs := make([][]mpx.Part, c.Size()) // per-source bucketed forwards
	offs := make([][]int32, c.Size())    // per-source child bucket bounds
	got := make([]bool, c.Size())
	got[me] = true
	seen := 0
	recvOne := func() error {
		env, err := c.recvTagAnyRoot()
		if err != nil {
			return err
		}
		r := cube.NodeID(svc.StreamSub(env.Tag) - 1)
		if int(r) >= c.Size() || got[r] {
			return fmt.Errorf("comm: duplicate alltoall payload from %d", r)
		}
		myPart, found, buf, off, err := c.bucketParts(c.route(r), env.Parts, "alltoall")
		if err != nil {
			return err
		}
		if found {
			out[r] = myPart
		}
		bufs[r], offs[r] = buf, off
		got[r] = true
		seen++
		return nil
	}
	tr := bst.Cached(c.n, me)
	for _, e := range sched.MultiSourcePlan(c.n).Edges {
		s := e.From ^ me
		to := me ^ e.From ^ e.To
		if s == me {
			// Root injection: this edge leaves my own tree's root, so the
			// bundle is cut from my payloads, one part per subtree node.
			c.send(to, int(me)+1, bundle(tr.SubtreeNodes(to), mine))
			continue
		}
		for !got[s] {
			if err := recvOne(); err != nil {
				return nil, err
			}
		}
		if seg := bufs[s][offs[s][e.Child]:offs[s][e.Child+1]]; len(seg) > 0 {
			c.send(to, int(s)+1, seg)
		}
	}
	for seen < c.Size()-1 {
		if err := recvOne(); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// bucketParts is routeParts' scheduled twin: the same two-pass
// child-subtree bucketing, but the buckets are returned (with their
// bounds) instead of sent — the slot-gated sends need them to persist
// past the envelope. One part buffer and one bounds slice are allocated
// per envelope, the same count as the naive path.
func (c *Comm) bucketParts(rt *rootRoute, parts []mpx.Part, op string) (mine []byte, found bool, buf []mpx.Part, off []int32, err error) {
	me := c.Rank()
	off = make([]int32, len(rt.children)+1)
	forward := 0
	for _, pt := range parts {
		if pt.Dest == me {
			continue
		}
		s := rt.slot[pt.Dest]
		if s < 0 {
			return nil, false, nil, nil, fmt.Errorf("comm: %s part for %d outside %d's subtree", op, pt.Dest, me)
		}
		off[s+1]++
		forward++
	}
	for i := range rt.children {
		off[i+1] += off[i]
	}
	buf = make([]mpx.Part, forward)
	// Second pass places parts using rt.ends as write cursors (scratch,
	// same as routeParts).
	for i := range rt.children {
		rt.ends[i] = int(off[i])
	}
	for _, pt := range parts {
		if pt.Dest == me {
			mine, found = pt.Data, true
			continue
		}
		s := rt.slot[pt.Dest]
		buf[rt.ends[s]] = pt
		rt.ends[s]++
	}
	return mine, found, buf, off, nil
}
