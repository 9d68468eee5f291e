package comm

import (
	"repro/internal/cube"
	"repro/internal/msbt"
)

// zone is BcastMSBT's posted receive off the root (DESIGN.md §18),
// guarded by Comm.mu. While it is posted, the socket link about to read
// tree j's whole-segment chunk is told to read it into buf[off:off+n],
// the chunk's place in the result; the envelope it then delivers
// carries that slice, and the finishing loop finds it in place.
//
// Answers are given before the frame's checksum is known, so the zone
// trusts a header no further than it can check it. A tree's region goes
// only to the link from the tree's parent — one read pump, so one
// writer — and is the same region again for that link's retransmit;
// regions never overlap; and once a tree's message has been delivered
// nothing more lands for it. A damaged header can therefore at worst
// claim a region of its own tree's that the real chunk will not use:
// that chunk then arrives in a buffer of its own and is copied like an
// early arrival.
//
// Who owns the result (DESIGN.md §18): a successful BcastMSBT leaves the
// buffer it returned in kept, and the communicator's next BcastMSBT
// lands into it again when it is large enough. The caller's claim ends
// at that call; the links' claim — forwards that alias the buffer and
// may still be queued — at the send-completion fence post runs first
// (mpx.Node.Settle). What the fence cannot vouch for, an error exit and
// a stopped communicator forfeit the buffer: a fresh one is made.
type zone struct {
	posted bool
	tag0   int    // tree 0's tag; tree j's is tag0+j
	buf    []byte // taken at the first landing, sized by lengthBound
	spare  []byte // the last result, fenced: what buf is cut from if it fits
	at     []span // per tree

	// chunks is the collective's reusable list of received pieces, and
	// kept the result of the last successful call. Only the rank's own
	// goroutine touches them, without mu.
	chunks []msbtChunk
	kept   []byte
}

// span is tree j's region of zone.buf.
type span struct {
	parent cube.NodeID // whose link may land the tree's chunk
	off, n int         // the region, once out
	out    bool        // handed to the link
	shut   bool        // the tree's message was delivered: nothing more lands
}

// post opens the zone for the current collective's n tree tags. A tree
// whose message is already queued (its sender ran ahead) is shut from
// the start. The previous result becomes the spare only behind the
// fence, which may block in a socket write and so runs before mu.
func (c *Comm) post(root cube.NodeID) *zone {
	var spare []byte
	if z := c.zone; z != nil && z.kept != nil { // our own writes: no lock
		if c.nd.Settle() {
			spare = z.kept
		}
		z.kept = nil
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.zone == nil {
		c.zone = new(zone)
	}
	z := c.zone
	if c.stopped {
		spare = nil
	}
	z.posted, z.tag0, z.buf, z.spare = true, c.tagFor(1), nil, spare
	z.at = z.at[:0]
	for j := 0; j < c.n; j++ {
		p, _ := msbt.Parent(c.n, j, c.Rank(), root)
		z.at = append(z.at, span{parent: p, shut: len(c.mailbox[z.tag0+j]) > 0})
	}
	return z
}

// unpost closes the zone — on every exit path of the collective, before
// the sequence advances — and hands over the landing buffer, or the
// unused spare at length zero when nothing landed (nil without one). The
// zone keeps neither: BcastMSBT keeps what it returns (zone.kept), and
// after an error exit, when a link may still be reading into the buffer,
// nobody does.
func (c *Comm) unpost() []byte {
	c.mu.Lock()
	z := c.zone
	buf := z.buf
	if buf == nil {
		buf = z.spare[:0]
	}
	z.posted, z.buf, z.spare = false, nil, nil
	c.mu.Unlock()
	return buf
}

// land is the communicator's mpx.Consumer.Land: where do the n bytes at
// offset off of the nparts-part message tag, arriving from from, belong?
// It runs on the link's read pump under the inbox lock, takes only mu,
// and never blocks.
func (c *Comm) land(from cube.NodeID, tag, nparts, off, n int) []byte {
	c.mu.Lock()
	defer c.mu.Unlock()
	z := c.zone
	if z == nil || !z.posted {
		return nil
	}
	j := tag - z.tag0
	// Only a whole-segment chunk lands. It travels alone in its message
	// (a manifest tree's first packet has company), and segments differ
	// by at most a byte, so the j before this one end by j*(n+1).
	if nparts != 1 || j < 0 || j >= len(z.at) || off < 0 || off > j*(n+1) {
		return nil
	}
	sp := &z.at[j]
	switch {
	case sp.shut || sp.parent != from:
		return nil
	case sp.out:
		if sp.off != off || sp.n != n {
			return nil
		}
		return z.buf[off : off+n]
	}
	if z.buf == nil {
		// Any tree's bound is within len(z.at) of the payload length, so
		// that much slack lets the buffer fit whichever tree of a later
		// broadcast of this size lands first.
		bound := lengthBound(off, n, j, len(z.at))
		if cap(z.spare) < bound {
			z.spare = make([]byte, bound, bound+len(z.at))
		}
		z.buf, z.spare = z.spare[:bound], nil
	}
	if off+n > len(z.buf) {
		return nil
	}
	for k := range z.at {
		if o := &z.at[k]; o.out && off < o.off+o.n && o.off < off+n {
			return nil
		}
	}
	sp.off, sp.n, sp.out = off, n, true
	return z.buf[off : off+n]
}

// lengthBound bounds the payload length L of an n-tree MSBT broadcast
// from one whole segment: tree j's chunk, l bytes at off. The segment
// ends at off+l = floor((j+1)*L/n), so (j+1)*L/n < off+l+1 and
// L <= ceil((off+l+1)*n/(j+1)) - 1, which overshoots L by at most n.
// The sender's exact L is the sum of the chunks; nothing on the wire
// says it sooner.
func lengthBound(off, l, j, n int) int {
	return ((off+l+1)*n+j)/(j+1) - 1
}
