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
//
// What a slot entry sends is never built here. AllGather forwards the
// source's one part; AllToAll holds each source's bundle whole as it
// arrived and sends the entry's child its run of it — a sub-slice, by
// the layout contract on rootRoute (comm.go).

import (
	"repro/internal/mpx"
	"repro/internal/sched"
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
		r, err := c.source(env, "allgather")
		if err != nil {
			return err
		}
		if got[r] {
			return dupErr("allgather", int(r))
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
// order. Each arriving bundle is verified and held whole (recvBundle);
// when a canonical edge's slot comes up its child's run goes out as a
// sub-slice of the held bundle — e.Child indexes the runs because ports,
// and hence port-ordered child lists, are XOR-invariant under
// translation. This rank's own tree is one more held bundle.
func (c *Comm) allToAllScheduled(mine [][]byte) ([][]byte, error) {
	defer c.next()
	out, held, err := c.beginAllToAll(mine)
	if err != nil {
		return nil, err
	}
	defer clear(held)
	me := c.Rank()
	seen := 1
	for _, e := range sched.MultiSourcePlan(c.n).Edges {
		s := e.From ^ me
		for ; held[s] == nil; seen++ {
			if _, err := c.recvBundle(held, out); err != nil {
				return nil, err
			}
		}
		c.forward(c.route(s), held[s], int(e.Child), int(s)+1)
	}
	for ; seen < c.Size(); seen++ {
		if _, err := c.recvBundle(held, out); err != nil {
			return nil, err
		}
	}
	return out, nil
}
