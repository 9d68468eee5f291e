package transport

import (
	"errors"
	"fmt"
	"net"
	"sync"
	"time"

	"repro/internal/cube"
	"repro/internal/mpx"
	"repro/internal/wire"
)

// MemberHooks connects the transport to a membership layer (see
// internal/member). Both hooks may be called from transport goroutines
// (link supervisors, read pumps) and must not block on transport sends
// to the same peer they were called about.
type MemberHooks struct {
	// OnPeerDown fires once per link when its supervisor exhausts the
	// reconnect budget: peer is considered crashed. In member mode this
	// REPLACES the transport-wide shutdown a plain resilient mesh
	// performs on escalation.
	OnPeerDown func(self, peer cube.NodeID, err error)
	// OnControl receives a membership control frame (wire.KindJoin,
	// KindDrain, KindView or KindAttach) from a neighbor; body arrives
	// freshly decoded and the hook may retain it.
	OnControl func(from cube.NodeID, kind byte, body []byte)
}

// memberMode reports whether the transport runs an elastic mesh.
func (t *TCP) memberMode() bool { return t.opt.Member != nil }

// MemberDrops reports how many sends were silently dropped because the
// destination link was absent, failed or retired (member mode only).
func (t *TCP) MemberDrops() int64 { return t.memberDrops.Load() }

// GrowEvents reports how many times this endpoint widened its mesh
// dimension online (member mode only).
func (t *TCP) GrowEvents() int64 { return t.growEvents.Load() }

// GrowAccepts reports how many grow-attach handshakes — hellos from a
// larger cube — this endpoint accepted (member mode only).
func (t *TCP) GrowAccepts() int64 { return t.growAccepts.Load() }

// AttachesReceived reports how many KindAttach announcements arrived
// from joiners (member mode only).
func (t *TCP) AttachesReceived() int64 { return t.attachesRecv.Load() }

// dispatchControl hands a membership frame to the OnControl hook.
func (t *TCP) dispatchControl(from cube.NodeID, kind byte, body []byte) {
	if t.opt.Member != nil && t.opt.Member.OnControl != nil {
		t.opt.Member.OnControl(from, kind, body)
	}
}

// memberDown reports a supervisor escalation to the membership layer.
// The report is suppressed when the failed link has already been
// replaced by a fresh incarnation (a joiner re-filled the rank while
// the old supervisor was still burning its budget — the rank is alive
// again and the stale death would poison the view), and fires at most
// once per link.
func (t *TCP) memberDown(l *link, err error) {
	if t.linkAt(l.port) != l {
		return
	}
	if l.downFired.Swap(true) {
		return
	}
	if t.opt.Member.OnPeerDown != nil {
		t.opt.Member.OnPeerDown(l.self, l.peer, err)
	}
}

// peerBye records the peer's orderly goodbye: nothing this link still
// holds for replay will be acknowledged, so an orderly Close does not
// wait for it. In member mode the goodbye is a drain and retires the
// link: sends drop silently from now on. Blocked senders and a
// lingering Close wake up.
func (l *link) peerBye() {
	l.mu.Lock()
	l.bye = true
	l.retired = l.t.memberMode()
	if l.r != nil {
		l.r.space.Broadcast()
	}
	l.mu.Unlock()
}

// SendControl transmits one membership control frame from the hosted
// rank to a cube neighbor, best-effort: frames to absent, failed,
// retired or currently-disconnected links are dropped (the membership
// flood is idempotent and re-floods on every later change, so loss only
// delays convergence). Control frames ride outside the replay protocol —
// written directly to the socket, frame-aligned under the write lock.
// The transport never retains body.
func (t *TCP) SendControl(from, to cube.NodeID, kind byte, body []byte) error {
	if !t.memberMode() {
		return errors.New("transport: SendControl outside member mode")
	}
	if t.isDown() {
		return mpx.ErrDown
	}
	if from != t.self {
		return fmt.Errorf("transport: SendControl from node %d, which is not hosted here", from)
	}
	c := t.Cube()
	if int(to) >= c.Nodes() {
		// The view can name ranks beyond this endpoint's cube — a growth
		// event whose attach has not reached us yet. They are unreachable
		// from here and the flood covers them via members that do share
		// an edge; counted so drills can watch the gap close.
		t.memberDrops.Add(1)
		return nil
	}
	port := c.Port(from, to)
	if port < 0 {
		return fmt.Errorf("transport: SendControl to node %d, not a neighbor of %d", to, from)
	}
	l := t.linkAt(port)
	if l == nil {
		t.memberDrops.Add(1)
		return nil
	}
	return l.writeControl(kind, body)
}

// writeControl encodes and writes one membership frame on the link's
// current connection, dropping it when the link is failed, retired or
// between connections.
func (l *link) writeControl(kind byte, body []byte) error {
	frame := wire.AppendMemberFrame(nil, kind, body)
	l.wmu.Lock()
	defer l.wmu.Unlock()
	l.mu.Lock()
	conn, gen := l.conn, l.gen
	drop := l.err != nil || l.retired || conn == nil || (l.r != nil && !l.r.connected)
	l.mu.Unlock()
	if drop {
		l.t.memberDrops.Add(1)
		return nil
	}
	if _, err := conn.Write(frame); err != nil {
		// A control write discovering the outage is as good a signal as a
		// read: wake the supervisor.
		l.disconnect(gen, err)
		l.t.memberDrops.Add(1)
		return nil
	}
	l.t.bytesSent.Add(int64(len(frame)))
	l.t.framesSent.Add(1)
	return nil
}

// acceptMemberJoin installs a fresh incarnation of a neighbor rank: the
// inbound handshake carries RecvSeq 0 and either no link exists (the
// old one was torn down with the transport that owned it — not possible
// in-process, but the hole case after our own restart) or the existing
// link belongs to a dead or drained incarnation. The old link — replay
// ring, sequence state and all — is abandoned: the joiner is a new
// process with empty state, so splicing it onto the old relState would
// replay frames it never saw the predecessors of.
func (t *TCP) acceptMemberJoin(conn net.Conn, hs wire.Hello, port int) error {
	// Echo the dimension the joiner spoke: after a grow-attach our own
	// dimension already matches it, and the link itself is
	// dimension-agnostic (its port is the index of the bit the endpoints
	// differ in, which growth never changes).
	echo := wire.Hello{Dim: hs.Dim, From: hs.To, To: hs.From, Resilient: true}
	if _, err := conn.Write(wire.AppendHello(nil, echo)); err != nil {
		return fmt.Errorf("transport: join echo to node %d: %w", hs.From, err)
	}
	conn.SetDeadline(time.Time{})
	l := t.newLink(hs.To, hs.From, port, conn, false, "")
	if old := t.setLinkAt(port, l); old != nil {
		// Silence the old incarnation: no OnPeerDown (the rank is alive
		// again — deduping here keeps a slow supervisor's eventual
		// escalation from poisoning the view) and a sticky error so any
		// sender still parked on it unblocks.
		old.downFired.Store(true)
		old.fail(errors.New("replaced by a fresh incarnation of the peer"))
		old.mu.Lock()
		oc := old.conn
		old.mu.Unlock()
		if oc != nil && oc != conn {
			oc.Close()
		}
	}
	t.startLink(l)
	return nil
}

// JoinMesh connects a late joiner to an already-running member mesh: a
// single-attempt parallel dial to every cube neighbor of the hosted
// rank. peers is indexed by rank like Connect's argument; dead
// ranks' addresses simply refuse. At least one neighbor must accept —
// with zero live neighbors the joiner is partitioned and cannot be
// admitted. After JoinMesh the caller announces itself through the
// membership layer (AnnounceJoin) and waits for admission.
func (t *TCP) JoinMesh(peers []string) error {
	if !t.memberMode() {
		return errors.New("transport: JoinMesh outside member mode")
	}
	if len(peers) != t.c.Nodes() {
		return fmt.Errorf("transport: JoinMesh wants %d peer addresses, got %d", t.c.Nodes(), len(peers))
	}
	self := t.self
	deadline := time.Now().Add(t.opt.HandshakeTimeout)

	var (
		mu    sync.Mutex
		links []*link
		errs  []error
		wg    sync.WaitGroup
	)
	for d := 0; d < t.opt.Dim; d++ {
		peer := t.c.Neighbor(self, d)
		addr := peers[peer]
		if addr == "" {
			continue // a known hole: nothing to dial
		}
		wg.Add(1)
		go func(peer cube.NodeID, port int, addr string) {
			defer wg.Done()
			conn, err := dialAddr(addr, time.Until(deadline))
			if err == nil {
				var l *link
				if l, err = t.finishDial(conn, self, peer, port, addr, deadline); err == nil {
					mu.Lock()
					links = append(links, l)
					mu.Unlock()
					return
				}
				conn.Close()
			}
			mu.Lock()
			errs = append(errs, fmt.Errorf("neighbor %d at %s: %w", peer, addr, err))
			mu.Unlock()
		}(peer, d, addr)
	}
	wg.Wait()

	if len(links) == 0 {
		t.Close()
		return fmt.Errorf("transport: joiner %d reached none of its neighbors (%v)", self, errors.Join(errs...))
	}
	for _, l := range links {
		t.setLinkAt(l.port, l)
	}
	for _, l := range links {
		t.startLink(l)
	}
	t.resumeOnce.Do(func() {
		t.wg.Add(1)
		go t.resumeLoop()
	})
	// Transport-level announcement: tell each reached neighbor which
	// rank attached and where it listens. Idempotent with the KindJoin
	// announce the membership layer sends next — this one additionally
	// covers joiners beyond the founding cube, whose accepting survivors
	// just widened their mesh for us.
	attach := wire.EncodeAttach(self, t.addr)
	for _, l := range links {
		l.writeControl(wire.KindAttach, attach)
	}
	return nil
}

// maxGrowDim bounds the dimension GrowTo accepts. The dimension reaches
// GrowTo from the wire (an unauthenticated resume hello, its echo, a
// KindGrow frame, a flooded view), and what the layers above the
// transport build for the grown cube grows with 2^dim: the membership
// view holds a status per rank, and the trees span every rank.
// cube.MaxDim alone would let 22 bytes ask for gigabytes. A 12-cube
// (4096 ranks) is far past any mesh this transport has carried.
const maxGrowDim = 12

// GrowTo widens the mesh to newDim online. The cube and the dimension
// are swapped and the links table gains the new ports in one linkMu
// critical section, so a concurrent send observes either the old or the
// new topology, never a mix. Existing links carry over untouched — a
// link's port is the index of the bit its endpoints differ in, which
// growth never changes — so in-flight traffic, replay rings and resume
// state survive. The new ports start empty and fill as joiners
// grow-attach (and the holes drop sends silently, like any absent
// member). Returns whether the mesh actually widened: growth to the
// current or a smaller dimension is an idempotent no-op, and a
// dimension past maxGrowDim is refused. Member mode only.
func (t *TCP) GrowTo(newDim int) bool {
	if !t.memberMode() || newDim > maxGrowDim {
		return false
	}
	t.linkMu.Lock()
	defer t.linkMu.Unlock()
	if newDim <= t.opt.Dim {
		return false
	}
	t.c = cube.New(newDim)
	t.links = append(t.links, make([]*link, newDim-t.opt.Dim)...)
	t.opt.Dim = newDim
	t.growEvents.Add(1)
	return true
}

// floodGrow announces a widening to every connected neighbor link, so
// the event reaches survivors the joiner did not dial. Receivers
// re-flood only when the frame actually widened them (growFromWire),
// which terminates the flood.
func (t *TCP) floodGrow(newDim int) {
	body := wire.EncodeGrow(newDim)
	for _, l := range t.allLinks() {
		l.writeControl(wire.KindGrow, body)
	}
}

// growFromWire widens the mesh because a peer's bytes — a resume hello,
// its echo, or a KindGrow frame — named a larger dimension, and floods
// an actual widening on. It reports whether the endpoint is at dim (or
// beyond) afterwards; a dimension GrowTo refuses is counted in
// memberDrops and the endpoint keeps serving at the dimension it has.
func (t *TCP) growFromWire(dim int) bool {
	if t.GrowTo(dim) {
		t.floodGrow(dim)
	}
	if t.dim() >= dim {
		return true
	}
	t.memberDrops.Add(1)
	return false
}

// Abort closes the transport WITHOUT the BYE announcement: peers see an
// unannounced connection loss, exactly like a crash. The churn drill
// uses it to kill ranks without kill -9'ing the process.
func (t *TCP) Abort() error {
	t.dirty.Store(true)
	return t.Close()
}
