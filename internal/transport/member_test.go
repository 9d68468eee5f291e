package transport

import (
	"testing"
	"time"

	"repro/internal/cube"
	"repro/internal/member"
	"repro/internal/mpx"
	"repro/internal/testleak"
	"repro/internal/wire"
)

// memberRes keeps crash-detection cycles short for tests.
func memberRes() ResilienceOptions {
	return ResilienceOptions{
		Enabled:     true,
		MaxAttempts: 4,
		Budget:      1500 * time.Millisecond,
		BaseBackoff: 2 * time.Millisecond,
		MaxBackoff:  30 * time.Millisecond,
	}
}

// memberRank is one elastic-mesh endpoint: a single-rank transport wired
// to its membership manager.
type memberRank struct {
	tr  *TCP
	mgr *member.Manager
}

func newMemberRank(t *testing.T, dim int, id cube.NodeID, join bool) *memberRank {
	t.Helper()
	hooks := &MemberHooks{}
	tr, err := NewTCP(TCPOptions{
		Dim: dim, Locals: []cube.NodeID{id},
		HandshakeTimeout: 10 * time.Second,
		Resilience:       memberRes(),
		Member:           hooks,
	})
	if err != nil {
		t.Fatalf("NewTCP(%d): %v", id, err)
	}
	mgr := member.New(member.Config{
		Self: id, Dim: dim, Join: join,
		Send: func(to cube.NodeID, kind byte, body []byte) error {
			return tr.SendControl(id, to, kind, body)
		},
	})
	hooks.OnPeerDown = mgr.OnPeerDown
	hooks.OnControl = mgr.OnControl
	t.Cleanup(func() { tr.Close() })
	return &memberRank{tr: tr, mgr: mgr}
}

// memberMesh bootstraps a full d-cube of member ranks.
func memberMesh(t *testing.T, dim int) ([]*memberRank, []string) {
	t.Helper()
	n := 1 << uint(dim)
	ranks := make([]*memberRank, n)
	peers := make([]string, n)
	for i := 0; i < n; i++ {
		ranks[i] = newMemberRank(t, dim, cube.NodeID(i), false)
		peers[i] = ranks[i].tr.Addr()
	}
	errs := make(chan error, n)
	for _, r := range ranks {
		go func(r *memberRank) { errs <- r.tr.Connect(peers) }(r)
	}
	for i := 0; i < n; i++ {
		if err := <-errs; err != nil {
			t.Fatalf("Connect: %v", err)
		}
	}
	return ranks, peers
}

// ping sends one tagged message from -> to and waits for its arrival.
func ping(r *memberRank, to cube.NodeID, tag int) error {
	from := r.tr.Locals()[0]
	port := r.tr.Cube().Port(from, to)
	return r.tr.Send(from, port, mpx.Message{Tag: tag, Parts: []mpx.Part{{Dest: to, Data: []byte("ping")}}})
}

func expectPing(t *testing.T, r *memberRank, tag int) {
	t.Helper()
	self := r.tr.Locals()[0]
	select {
	case env := <-r.tr.Inbox(self):
		if env.Tag != tag {
			t.Fatalf("rank %d: got tag %d, want %d", self, env.Tag, tag)
		}
	case <-time.After(10 * time.Second):
		t.Fatalf("rank %d: ping %d never arrived", self, tag)
	}
}

// TestMemberModeValidation: member mode needs resilient links.
func TestMemberModeValidation(t *testing.T) {
	if _, err := NewTCP(TCPOptions{Dim: 1, Locals: []cube.NodeID{0}, Member: &MemberHooks{}}); err == nil {
		t.Fatal("member mode without resilience accepted")
	}
}

// TestMemberCrashKeepsMeshAlive: a crashed rank is detected by its
// neighbors' supervisors, the death floods to every survivor, and —
// unlike a plain resilient mesh — the survivors keep exchanging data.
func TestMemberCrashKeepsMeshAlive(t *testing.T) {
	testleak.Check(t)
	const dim = 2
	ranks, _ := memberMesh(t, dim)
	e0 := ranks[0].mgr.Epoch()

	// Rank 3 crashes (dirty close: no BYE, peers see a lost connection).
	ranks[3].tr.Abort()

	for r := 0; r < 3; r++ {
		if !ranks[r].mgr.WaitEpochAbove(e0, 15*time.Second) {
			t.Fatalf("rank %d never learned of the crash", r)
		}
		if v := ranks[r].mgr.View(); v.Alive(3) || v.Stat[3] != member.Dead {
			t.Fatalf("rank %d: view %s, want rank 3 dead", r, v)
		}
	}

	// The mesh is still up for the survivors.
	if err := ping(ranks[0], 1, 7); err != nil {
		t.Fatalf("survivor send failed: %v", err)
	}
	expectPing(t, ranks[1], 7)

	// Sends toward the dead rank drop silently instead of erroring out.
	if err := ping(ranks[1], 3, 8); err != nil {
		t.Fatalf("send to dead rank should drop silently, got %v", err)
	}
	if ranks[1].tr.MemberDrops() == 0 {
		t.Fatal("silent drop not counted")
	}
}

// TestMemberDrainRetiresLink: a graceful leave is recorded as Drained —
// not Dead — everywhere, the departed rank's links retire quietly (no
// supervisor escalation), and the survivors keep working.
func TestMemberDrainRetiresLink(t *testing.T) {
	testleak.Check(t)
	const dim = 2
	ranks, _ := memberMesh(t, dim)
	e0 := ranks[0].mgr.Epoch()

	ranks[2].mgr.Drain()
	ranks[2].tr.Close() // clean close: BYE announces the departure

	for _, r := range []int{0, 1, 3} {
		if !ranks[r].mgr.WaitEpochAbove(e0, 15*time.Second) {
			t.Fatalf("rank %d never saw the drain", r)
		}
		if v := ranks[r].mgr.View(); v.Stat[2] != member.Drained {
			t.Fatalf("rank %d: rank 2 is %s, want drained", r, v.Stat[2])
		}
	}

	// Give the BYE a moment to retire the links, then confirm sends to
	// the drained rank vanish quietly and the survivors still talk.
	deadline := time.Now().Add(5 * time.Second)
	for {
		if err := ping(ranks[0], 2, 9); err != nil {
			t.Fatalf("send to drained rank: %v", err)
		}
		if ranks[0].tr.MemberDrops() > 0 || !time.Now().Before(deadline) {
			break
		}
		time.Sleep(10 * time.Millisecond)
	}
	if err := ping(ranks[0], 1, 10); err != nil {
		t.Fatalf("survivor send failed: %v", err)
	}
	expectPing(t, ranks[1], 10)

	// A drain must never be re-reported as a crash.
	if v := ranks[0].mgr.View(); v.Stat[2] != member.Drained {
		t.Fatalf("drain was overwritten: rank 2 is %s", v.Stat[2])
	}
}

// TestMemberJoinFillsHole: after a crash is detected, a fresh
// incarnation of the dead rank joins through the surviving links, is
// admitted by version bump (winning against the stale death record),
// and data flows across the replaced links in both directions.
func TestMemberJoinFillsHole(t *testing.T) {
	testleak.Check(t)
	const dim = 2
	ranks, peers := memberMesh(t, dim)
	e0 := ranks[0].mgr.Epoch()

	// Put some traffic on the doomed rank's links first, so the join
	// replaces links with real history (the harder path).
	if err := ping(ranks[3], 1, 1); err != nil {
		t.Fatal(err)
	}
	expectPing(t, ranks[1], 1)

	ranks[3].tr.Abort()
	for r := 0; r < 3; r++ {
		if !ranks[r].mgr.WaitEpochAbove(e0, 15*time.Second) {
			t.Fatalf("rank %d never learned of the crash", r)
		}
	}
	deadEpoch := ranks[0].mgr.Epoch()

	// A new process takes over rank 3.
	reborn := newMemberRank(t, dim, 3, true)
	joinPeers := append([]string(nil), peers...)
	joinPeers[3] = ""
	if err := reborn.tr.JoinMesh(joinPeers); err != nil {
		t.Fatalf("JoinMesh: %v", err)
	}
	reborn.mgr.AnnounceJoin()
	if !reborn.mgr.WaitAlive(15 * time.Second) {
		t.Fatal("joiner never admitted")
	}
	for r := 0; r < 3; r++ {
		if !ranks[r].mgr.WaitEpochAbove(deadEpoch, 15*time.Second) {
			t.Fatalf("rank %d never saw the join", r)
		}
		if v := ranks[r].mgr.View(); !v.Alive(3) {
			t.Fatalf("rank %d: view %s, want rank 3 alive again", r, v)
		}
	}

	// Data flows over the replaced link, both directions.
	if err := ping(reborn, 1, 21); err != nil {
		t.Fatalf("joiner send: %v", err)
	}
	expectPing(t, ranks[1], 21)
	if err := ping(ranks[1], 3, 22); err != nil {
		t.Fatalf("send to joiner: %v", err)
	}
	expectPing(t, reborn, 22)

	// The joiner's admission must not linger as a phantom PeerError on
	// the survivors: the replaced link is fresh.
	if err := ranks[1].tr.PeerError(1); err != nil {
		var pe *mpx.PeerError
		if asPeerError(err, &pe) && pe.Peer == 3 {
			t.Fatalf("stale PeerError survived the join: %v", err)
		}
	}
}

func asPeerError(err error, target **mpx.PeerError) bool {
	pe, ok := err.(*mpx.PeerError)
	if ok {
		*target = pe
	}
	return ok
}

// TestMemberControlToUnattachedRankDrops pins the drop semantics that
// remain after online growth: a control frame toward a rank the view
// may name but that has not attached to this endpoint's mesh yet — out
// of the current cube entirely, or inside it with no link — vanishes
// silently (nil error) and is counted, never an error. The flood
// reaches such ranks through members that do share an edge once they
// attach.
func TestMemberControlToUnattachedRankDrops(t *testing.T) {
	testleak.Check(t)
	ranks, _ := memberMesh(t, 1)
	before := ranks[0].tr.MemberDrops()
	if err := ranks[0].tr.SendControl(0, 5, wire.KindView, nil); err != nil {
		t.Fatalf("SendControl to out-of-cube rank: %v", err)
	}
	if ranks[0].tr.MemberDrops() != before+1 {
		t.Fatal("out-of-cube control drop not counted")
	}
	e := &member.ViewChangedError{Epoch: 3, Op: "bcast"}
	if e.Error() == "" {
		t.Fatal("empty error string")
	}
}

// waitGrown polls until the rank's transport reaches dim (growth is
// asynchronous: grow-attach on the accepting survivor, KindGrow flood
// on the others).
func waitGrown(t *testing.T, r *memberRank, dim int) {
	t.Helper()
	deadline := time.Now().Add(15 * time.Second)
	for r.tr.Cube().Dim() < dim {
		if !time.Now().Before(deadline) {
			t.Fatalf("rank %d stuck at dim %d, want %d", r.tr.Locals()[0], r.tr.Cube().Dim(), dim)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestMemberGrowAttach: a joiner one rank beyond the founding cube
// grow-attaches to the live mesh. The accepting survivor widens its
// link set online, the KindGrow flood re-dimensions every other
// survivor, the view admits the new rank, and data flows both ways over
// the new dimension's link — no process restarted. Ranks the grown view
// names but that never attached stay silent drops.
func TestMemberGrowAttach(t *testing.T) {
	testleak.Check(t)
	const dim = 2
	ranks, peers := memberMesh(t, dim)
	e0 := ranks[0].mgr.Epoch()

	// Rank 4 = 2^dim: the first rank of the (dim+1)-cube's upper half.
	// Its only live neighbor in the grown cube is rank 0.
	joiner := newMemberRank(t, dim+1, 1<<dim, true)
	joinPeers := make([]string, 1<<uint(dim+1))
	copy(joinPeers, peers)
	if err := joiner.tr.JoinMesh(joinPeers); err != nil {
		t.Fatalf("JoinMesh: %v", err)
	}
	joiner.mgr.AnnounceJoin()
	if !joiner.mgr.WaitAlive(15 * time.Second) {
		t.Fatal("grown joiner never admitted")
	}

	// The grow-attach widened the accepting survivor synchronously; the
	// flood reaches the rest asynchronously.
	for _, r := range ranks {
		waitGrown(t, r, dim+1)
	}
	if ranks[0].tr.GrowAccepts() == 0 {
		t.Fatal("accepting survivor counted no grow-attach")
	}
	var grew int64
	for _, r := range ranks {
		grew += r.tr.GrowEvents()
	}
	if grew != int64(len(ranks)) {
		t.Fatalf("got %d grow events across %d survivors, want one each", grew, len(ranks))
	}

	// Every survivor admits rank 4 into a dim+1 view.
	for i, r := range ranks {
		if !r.mgr.WaitEpochAbove(e0, 15*time.Second) {
			t.Fatalf("rank %d never saw the growth", i)
		}
		deadline := time.Now().Add(15 * time.Second)
		for {
			v := r.mgr.View()
			if v.Dim == dim+1 && v.Alive(1<<dim) {
				break
			}
			if !time.Now().Before(deadline) {
				t.Fatalf("rank %d: view %s, want a %d-cube with rank %d alive", i, v, dim+1, 1<<dim)
			}
			time.Sleep(5 * time.Millisecond)
		}
	}

	// Data crosses the new dimension's link in both directions.
	if err := ping(joiner, 0, 31); err != nil {
		t.Fatalf("joiner send: %v", err)
	}
	expectPing(t, ranks[0], 31)
	if err := ping(ranks[0], 1<<dim, 32); err != nil {
		t.Fatalf("send to grown rank: %v", err)
	}
	expectPing(t, joiner, 32)

	// Rank 5 is inside the grown cube but never attached: sends toward
	// it drop silently and are counted.
	before := joiner.tr.MemberDrops()
	if err := ping(joiner, (1<<dim)|1, 33); err != nil {
		t.Fatalf("send to unattached rank should drop silently, got %v", err)
	}
	if joiner.tr.MemberDrops() != before+1 {
		t.Fatal("drop toward unattached rank not counted")
	}
}

// TestMemberHostileGrowIsBounded: a dimension that arrives off the wire
// is not trusted with the endpoint's memory. One unauthenticated resume
// hello naming a 30-cube (which would ask for ~250 GiB of link slots)
// or a 20-cube, and a KindGrow(30) frame on an established link, are
// each refused and counted in member_drops; nothing is flooded on, and
// the 2-rank mesh keeps serving at the dimension it has.
func TestMemberHostileGrowIsBounded(t *testing.T) {
	testleak.Check(t)
	ranks, _ := memberMesh(t, 1)
	victim := ranks[0].tr

	for _, dim := range []int{30, 20} {
		before := victim.MemberDrops()
		conn, err := dialAddr(victim.Addr(), 5*time.Second)
		if err != nil {
			t.Fatal(err)
		}
		conn.Write(wire.AppendHello(nil, wire.Hello{Dim: dim, From: 1, To: 0, Resilient: true}))
		if err := refused(conn); err != nil {
			t.Fatalf("hello from a %d-cube: %v", dim, err)
		}
		if got := victim.MemberDrops(); got != before+1 {
			t.Fatalf("hello from a %d-cube: member_drops %d -> %d, want one counted refusal", dim, before, got)
		}
	}

	// The same dimension in a growth frame, on the link from rank 1.
	before := victim.MemberDrops()
	if err := ranks[1].tr.linkAt(0).writeControl(wire.KindGrow, wire.EncodeGrow(30)); err != nil {
		t.Fatal(err)
	}
	for deadline := time.Now().Add(10 * time.Second); victim.MemberDrops() == before; {
		if !time.Now().Before(deadline) {
			t.Fatal("KindGrow(30) was never counted as dropped")
		}
		time.Sleep(time.Millisecond)
	}

	for i, r := range ranks {
		if d := r.tr.Cube().Dim(); d != 1 || r.tr.GrowEvents() != 0 {
			t.Fatalf("rank %d: dimension %d after %d grow events, want the founding 1-cube untouched", i, d, r.tr.GrowEvents())
		}
	}
	if err := ping(ranks[0], 1, 41); err != nil {
		t.Fatal(err)
	}
	expectPing(t, ranks[1], 41)
	if err := ping(ranks[1], 0, 42); err != nil {
		t.Fatal(err)
	}
	expectPing(t, ranks[0], 42)
}
