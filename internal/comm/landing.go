package comm

import (
	"sync"

	"repro/internal/cube"
	"repro/internal/mpx"
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
// that chunk then arrives in a buffer of its own and is copied like a
// chunk the zone declined.
//
// Early arrivals (DESIGN.md §18): between calls the zone lends scratch
// segments (lendLocked), which post adopts and unscratch returns.
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

	etag0 int    // the sequence lent to: its tree 0 tag (0: none yet)
	early []span // what lendLocked lent; parent is the link it went to

	// chunks is the collective's reusable list of received pieces, kids
	// its reusable list of a tree's children, and kept the result of the
	// last successful call. Only the rank's own goroutine touches them,
	// without mu.
	chunks []msbtChunk
	kids   []cube.NodeID
	kept   []byte
}

// span is tree j's region: of zone.buf, or a scratch segment of its own.
type span struct {
	parent cube.NodeID // whose link may land the tree's chunk
	off, n int         // the region, once out
	out    bool        // handed to the link
	shut   bool        // the tree's message was delivered: nothing more lands
	seg    []byte      // the scratch segment lent before the post, if any
}

// post opens the zone for the current collective's n tree tags. A tree
// whose message is already queued (its sender ran ahead) is shut from
// the start. A segment lent early to the tree parent's link stays that
// link's; one lent to any other link shuts the tree. The previous result
// becomes the spare only behind the fence, which may block in a socket
// write and so runs before mu.
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
		sp := span{parent: p, shut: len(c.mailbox[z.tag0+j]) > 0}
		if z.etag0 == z.tag0 && j < len(z.early) {
			if e := z.early[j]; e.out && e.parent == p {
				sp.off, sp.n, sp.out, sp.seg = e.off, e.n, true, e.seg
			} else if e.out {
				sp.shut = true
			}
		}
		z.at = append(z.at, sp)
	}
	clear(z.early)
	z.etag0, z.early = 0, z.early[:0]
	return z
}

// unpost closes the zone — on every exit path of the collective, before
// the sequence advances — and hands over the landing buffer, or the
// unused spare at length zero when nothing landed (nil without one). The
// zone keeps neither: BcastMSBT keeps what it returns (zone.kept), and
// after an error exit, when a link may still be reading into the buffer,
// nobody does. A segment still lent here (its chunk undelivered, or not
// copied out) is dropped, not returned.
func (c *Comm) unpost() []byte {
	c.mu.Lock()
	z := c.zone
	buf := z.buf
	if buf == nil {
		buf = z.spare[:0]
	}
	z.posted, z.buf, z.spare = false, nil, nil
	clear(z.at)
	c.mu.Unlock()
	return buf
}

// land is the communicator's mpx.Consumer.Land: where do the n bytes at
// offset off of the nparts-part message tag, arriving from from, belong?
// It runs on the link's read pump under the inbox lock, takes only mu
// (and the free list's lock under it), and never blocks.
func (c *Comm) land(from cube.NodeID, tag, nparts, off, n int) []byte {
	c.mu.Lock()
	defer c.mu.Unlock()
	z := c.zone
	if z == nil || c.stopped {
		return nil
	}
	if !z.posted {
		return c.lendLocked(z, from, tag, nparts, off, n)
	}
	j := tag - z.tag0
	if !wholeSegment(nparts, j, len(z.at), off, n) {
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
		if sp.seg != nil {
			return sp.seg
		}
		return z.buf[off : off+n]
	}
	return z.place(j, off, n)
}

// wholeSegment is what land requires of tree j's part before it answers:
// only a whole-segment chunk lands. It travels alone in its message, and
// segments differ by at most a byte, so the j before this one end by
// j*(n+1).
func wholeSegment(nparts, j, trees, off, n int) bool {
	return nparts == 1 && j >= 0 && j < trees && off >= 0 && off <= j*(n+1)
}

// place hands tree j the region [off, off+n) of the landing buffer,
// cutting the buffer from the spare first if nothing has landed yet; nil
// when the region overruns the buffer or overlaps another tree's. mu
// held.
func (z *zone) place(j, off, n int) []byte {
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
		if o := &z.at[k]; k != j && o.out && o.seg == nil && off < o.off+o.n && o.off < off+n {
			return nil
		}
	}
	sp := &z.at[j]
	sp.off, sp.n, sp.out = off, n, true
	return z.buf[off : off+n]
}

// lendLocked is land between calls: the whole-segment chunks of the
// next sequence's tree tags (tagFor(1)+j at the current seq, never the
// sequence the zone last served; as many trees as the last post, since
// c.n is the rank goroutine's) get a scratch segment by the posted
// zone's rules. The root is not known yet, so a tree's segment goes to
// the first link that asks. Another collective's message under these
// tags keeps its segment: nobody returns it. mu held.
func (c *Comm) lendLocked(z *zone, from cube.NodeID, tag, nparts, off, n int) []byte {
	t0 := c.tagFor(1)
	j := tag - t0
	if t0 == z.tag0 || !wholeSegment(nparts, j, len(z.at), off, n) {
		return nil
	}
	if z.etag0 != t0 {
		clear(z.early)
		z.etag0, z.early = t0, z.early[:0]
		for k := range z.at {
			z.early = append(z.early, span{shut: len(c.mailbox[t0+k]) > 0})
		}
	}
	e := &z.early[j]
	switch {
	case e.shut:
		return nil
	case e.out:
		if e.parent != from || e.off != off || e.n != n {
			return nil
		}
		return e.seg
	}
	*e = span{parent: from, off: off, n: n, out: true, seg: scratch.get(n)}
	return e.seg
}

// shut ends landing, posted or lent, for a tree whose message under tag
// was delivered. mu held.
func (z *zone) shut(tag int) {
	spans, t0 := z.early, z.etag0
	if z.posted {
		spans, t0 = z.at, z.tag0
	}
	if j := tag - t0; j >= 0 && j < len(spans) {
		spans[j].shut = true
	}
}

// unscratch moves tree j's chunk, if it arrived in a lent segment, to its
// place in the result and repoints its part there, so forwards alias only
// the result; the delivered segment goes back to the free list. A chunk
// with no place (a damaged header) stays, and its segment is dropped.
func (c *Comm) unscratch(z *zone, j int, parts []mpx.Part) {
	c.mu.Lock()
	seg, dst := z.at[j].seg, []byte(nil)
	if seg != nil && len(parts) == 1 && len(parts[0].Data) > 0 && &parts[0].Data[0] == &seg[0] {
		z.at[j].seg = nil
		dst = z.place(j, parts[0].Offset, len(seg))
	}
	c.mu.Unlock()
	if dst != nil {
		copy(dst, seg)
		parts[0].Data = dst
		scratch.put(seg)
	}
}

// scratchKeep bounds the free list: on the 16-rank 1 MiB TCP broadcast
// (2 vCPUs, 25 s runs) it made 6 or 7 segments of 256 KiB, all in the
// first 9 s, and none after. Eight leaves headroom at 2 MiB kept.
const scratchKeep = 8

// scratch is the process's free list of early-arrival segments: a list
// per communicator re-warms in every new mesh, and a sync.Pool is
// emptied by every garbage collection. Lock order: inbox → comm →
// scratch.mu, which calls out to nothing.
var scratch freeList

// scratchReturned, when set (by tests), sees each segment put back.
var scratchReturned func([]byte)

type freeList struct {
	mu   sync.Mutex
	segs [][]byte
	made int // segments made because the top one was missing or short
}

// get returns n bytes of the last segment put back, or of a new one
// when that is too short (it is dropped). A new one has a byte of slack:
// the segments of one broadcast differ by at most a byte.
func (f *freeList) get(n int) []byte {
	f.mu.Lock()
	var s []byte
	if k := len(f.segs) - 1; k >= 0 {
		s, f.segs[k], f.segs = f.segs[k], nil, f.segs[:k]
	}
	if cap(s) < n {
		f.made++
		s = make([]byte, n, n+1)
	}
	f.mu.Unlock()
	return s[:n]
}

// put returns a segment no link, message or forward refers to any more.
func (f *freeList) put(s []byte) {
	if scratchReturned != nil {
		scratchReturned(s)
	}
	f.mu.Lock()
	if len(f.segs) < scratchKeep {
		f.segs = append(f.segs, s)
	}
	f.mu.Unlock()
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
