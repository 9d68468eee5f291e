// Fault-tolerant collectives: detection (per-receive timeouts with
// bounded retry/backoff, payload checksums, a heartbeat-learned liveness
// mask) and recovery (redundant multi-tree broadcast over the n
// edge-disjoint ERSBTs, degraded-mode scatter over a pruned/regrafted
// BST).
//
// The redundancy argument is the paper's own: the MSBT graph consists of
// n pairwise edge-disjoint spanning trees, so k < n dead links can sever
// at most k of the n trees above any node — replicating a broadcast down
// all n trees therefore tolerates any n-1 link failures. Corruption is
// detected by checksum and handled by the same mechanism: a damaged copy
// is discarded and another tree's copy is awaited (retry by redundancy,
// not retransmission).
package comm

import (
	"fmt"
	"hash/crc32"
	"time"

	"repro/internal/bst"
	"repro/internal/cube"
	"repro/internal/fault"
	"repro/internal/mpx"
	"repro/internal/msbt"
	"repro/internal/svc"
)

// Failure detection in the fault-tolerant collectives.
const (
	// ftTimeout is the initial per-receive wait.
	ftTimeout = 50 * time.Millisecond
	// ftRetries bounds how many times a timed-out wait is retried with
	// the timeout doubled (exponential backoff).
	ftRetries = 3
	// ftSweeps is the number of full dimension-exchange rounds a liveness
	// probe performs: the second sweep forwards bits that missed their
	// one butterfly path through a dead region.
	ftSweeps = 2
)

// checksum is the end-to-end payload checksum carried in mpx.Part.Sum.
func checksum(data []byte) uint32 { return crc32.ChecksumIEEE(data) }

// abandon marks tags as given up: queued messages are purged and late
// arrivals are dropped by deliver instead of lingering to be mistaken
// for stream corruption.
func (c *Comm) abandon(tags ...int) {
	c.mu.Lock()
	for _, tag := range tags {
		c.mailbox.abandon(tag)
	}
	c.mu.Unlock()
}

// ProbeLiveness learns a node-liveness mask by dimension-exchange
// heartbeats: every rank starts knowing only itself alive and, for each
// sweep and each dimension, swaps its current mask with the neighbor
// across that dimension (OR-merging what comes back). A dead neighbor or
// dead link simply times out, teaching nothing; bits of live nodes flow
// around faults on the other dimensions. The result is this rank's local
// belief — exact for dead nodes in a connected live subcube, conservative
// when faults partition knowledge.
func (c *Comm) ProbeLiveness() (fault.Liveness, error) {
	defer c.next()
	me := c.Rank()
	live := fault.NoneAlive(c.n)
	live.Set(me)
	var tags []int
	// Receive deadlines follow a global schedule — step k times out at
	// probe start + (k+1)*ftTimeout — so a rank stalled by a dead partner at
	// step k is still inside its live partners' step-k+1 window. Per-step
	// timeouts would cascade: the stalled rank's NEXT partner would time
	// out on it and falsely mark the whole branch dead.
	start := time.Now()
	step := 0
	for s := 0; s < ftSweeps; s++ {
		for d := 0; d < c.n; d++ {
			step++
			sub := s*c.n + d + 1
			tag := c.tagFor(sub)
			tags = append(tags, tag)
			c.nd.Send(d, mpx.Message{Tag: tag, Parts: []mpx.Part{{Dest: me, Data: live.Bytes()}}})
			wait := time.Until(start.Add(time.Duration(step) * ftTimeout))
			if wait < ftTimeout/2 {
				wait = ftTimeout / 2 // behind schedule: keep a real window
			}
			env, ok, err := c.recvTagWait(tag, wait)
			if err != nil {
				return live, err
			}
			if !ok {
				continue // neighbor presumed dead (or link severed)
			}
			other, err := fault.LivenessFromBytes(c.n, env.Parts[0].Data)
			if err != nil {
				continue // damaged heartbeat: ignore, redundancy covers it
			}
			live.Merge(other)
		}
	}
	c.abandon(tags...)
	return live, nil
}

// BcastFT distributes data from root to every rank redundantly: the full
// checksummed payload travels down all n edge-disjoint ERSBTs, and each
// rank accepts the first arrival whose checksum verifies, forwarding
// every copy onward in its own tree. Any n-1 dead links — and any
// corruption pattern that leaves one tree clean — still deliver to every
// rank reachable in the live cube. Ranks keep forwarding until all n
// copies arrived or, once a valid copy is accepted, a receive timeout
// declares the missing trees severed.
func (c *Comm) BcastFT(root cube.NodeID, data []byte) ([]byte, error) {
	if err := c.checkRoot("bcastft", root); err != nil {
		return nil, err
	}
	defer c.next()
	me := c.Rank()
	tags := make([]int, c.n)
	for j := range tags {
		tags[j] = c.tagFor(j + 1)
	}
	defer c.abandon(tags...)

	if me == root {
		sum := checksum(data)
		for j := 0; j < c.n; j++ {
			c.send(msbt.RootOf(j, root), j+1, []mpx.Part{{Dest: root, Data: data, Sum: sum}})
		}
		return data, nil
	}

	var accepted []byte
	var kids [cube.MaxDim]cube.NodeID // BcastFT has no zone: the stack holds them
	seen := make([]bool, c.n)
	nseen := 0
	timeout := ftTimeout
	retries := 0
	for nseen < c.n {
		env, ok, err := c.recvTagWait(anyTag, timeout)
		if err != nil {
			return nil, err
		}
		if !ok {
			if accepted != nil {
				break // have a valid copy; missing trees are severed
			}
			if retries >= ftRetries {
				return nil, fmt.Errorf("comm: node %d: bcastft: no valid copy of the broadcast arrived (%d timeouts, all trees severed or corrupt)", me, retries+1)
			}
			retries++
			timeout *= 2
			continue
		}
		j := svc.StreamSub(env.Tag) - 1
		if j < 0 || j >= c.n || seen[j] {
			continue // duplicate delivery or junk subtag: ignore
		}
		seen[j] = true
		nseen++
		pt := env.Parts[0]
		for _, ch := range msbt.AppendChildren(kids[:0], c.n, j, me, root) {
			c.send(ch, j+1, env.Parts)
		}
		if accepted == nil && checksum(pt.Data) == pt.Sum {
			accepted = pt.Data
		}
	}
	if accepted == nil {
		return nil, fmt.Errorf("comm: node %d: bcastft: all %d received copies were corrupt", me, nseen)
	}
	return accepted, nil
}

// ScatterFT is the degraded-mode personalized communication: given a
// shared liveness mask (from ProbeLiveness or the experiment plan), every
// rank deterministically computes the same pruned/regrafted BST of the
// live subcube (fault.Regraft) and the scatter runs over it. Live ranks
// cut off from the root — and, trivially, dead ranks — receive nothing;
// reachable ranks receive exactly their payload. Bundles carry checksums;
// a corrupted bundle is reported, not mis-delivered.
func (c *Comm) ScatterFT(root cube.NodeID, data [][]byte, live fault.Liveness) ([]byte, error) {
	if err := c.checkRoot("scatterft", root); err != nil {
		return nil, err
	}
	defer c.next()
	me := c.Rank()
	ft, err := fault.Regraft(c.n, root, func(i cube.NodeID) (cube.NodeID, bool) {
		return bst.Parent(c.n, i, root)
	}, live, nil)
	if err != nil {
		return nil, err
	}
	if !ft.Contains(me) {
		return nil, nil // unreachable in the live subcube: no data can arrive
	}
	tag := c.tagFor(0)
	if me == root {
		if len(data) != c.Size() {
			return nil, fmt.Errorf("comm: scatterft needs %d payloads, got %d", c.Size(), len(data))
		}
		for _, ch := range ft.Children(me) {
			var parts []mpx.Part
			for _, d := range ft.Subtree(ch) {
				parts = append(parts, mpx.Part{Dest: d, Data: data[d], Sum: checksum(data[d])})
			}
			c.send(ch, 0, parts)
		}
		return data[me], nil
	}

	var env mpx.Envelope
	timeout := ftTimeout
	for attempt := 0; ; attempt++ {
		var ok bool
		env, ok, err = c.recvTagWait(tag, timeout)
		if err != nil {
			return nil, err
		}
		if ok {
			break
		}
		if attempt >= ftRetries {
			c.abandon(tag)
			return nil, fmt.Errorf("comm: node %d: scatterft: no bundle from parent within %d attempts", me, attempt+1)
		}
		timeout *= 2
	}
	var mine []byte
	found := false
	perChild := map[cube.NodeID][]mpx.Part{}
	childOf := map[cube.NodeID]cube.NodeID{}
	children := ft.Children(me)
	for _, ch := range children {
		for _, d := range ft.Subtree(ch) {
			childOf[d] = ch
		}
	}
	for _, pt := range env.Parts {
		if pt.Dest == me {
			if checksum(pt.Data) != pt.Sum {
				return nil, fmt.Errorf("comm: node %d: scatterft: payload corrupted in flight (checksum %#x, want %#x)", me, checksum(pt.Data), pt.Sum)
			}
			mine, found = pt.Data, true
			continue
		}
		ch, ok := childOf[pt.Dest]
		if !ok {
			return nil, fmt.Errorf("comm: scatterft part for %d outside %d's live subtree", pt.Dest, me)
		}
		perChild[ch] = append(perChild[ch], pt)
	}
	for _, ch := range children {
		if parts := perChild[ch]; len(parts) > 0 {
			c.send(ch, 0, parts)
		}
	}
	if !found {
		return nil, fmt.Errorf("comm: rank %d missing from scatterft bundle", me)
	}
	return mine, nil
}
