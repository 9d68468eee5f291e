package member

import (
	"math/rand"
	"sync"
	"testing"
	"time"

	"repro/internal/cube"
	"repro/internal/wire"
)

// TestViewMergeSemilattice checks the algebra the flood protocol leans
// on: merge is commutative, associative, idempotent, and monotone in
// the epoch.
func TestViewMergeSemilattice(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	randomView := func() View {
		v := empty(3)
		for i := range v.Ver {
			v.Ver[i] = uint32(rng.Intn(4))
			v.Stat[i] = Status(rng.Intn(3))
		}
		return v
	}
	merge := func(a, b View) View {
		c := a.Clone()
		if _, err := c.Merge(b); err != nil {
			t.Fatal(err)
		}
		return c
	}
	for trial := 0; trial < 200; trial++ {
		a, b, c := randomView(), randomView(), randomView()
		ab, ba := merge(a, b), merge(b, a)
		if !ab.Equal(ba) {
			t.Fatalf("merge not commutative:\n%s\n%s", ab, ba)
		}
		if !merge(ab, c).Equal(merge(a, merge(b, c))) {
			t.Fatal("merge not associative")
		}
		if !merge(a, a).Equal(a) {
			t.Fatal("merge not idempotent")
		}
		if ab.Epoch() < a.Epoch() || ab.Epoch() < b.Epoch() {
			t.Fatalf("merge decreased epoch: %d from (%d, %d)", ab.Epoch(), a.Epoch(), b.Epoch())
		}
	}
}

// TestViewBumpAndTiebreak: every event strictly increases the epoch, and
// at equal version the higher status wins the merge in both directions.
// TestViewGrowMergeCommutes checks the property the online growth path
// leans on: growing a view a dimension commutes with merging — it does
// not matter whether a rank widens before or after it folds in a
// peer's flood, so growth racing the view epidemic cannot fork the
// semilattice. Grow adds bottom elements (holes at version 0), which
// is exactly why it commutes.
func TestViewGrowMergeCommutes(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	randomView := func(dim int) View {
		v := empty(dim)
		for i := range v.Ver {
			v.Ver[i] = uint32(rng.Intn(4))
			v.Stat[i] = Status(rng.Intn(3))
		}
		return v
	}
	grow := func(v View) View {
		g := v.Clone()
		if err := g.Grow(); err != nil {
			t.Fatal(err)
		}
		return g
	}
	merge := func(a, b View) View {
		c := a.Clone()
		if _, err := c.Merge(b); err != nil {
			t.Fatal(err)
		}
		return c
	}
	for trial := 0; trial < 200; trial++ {
		a, b := randomView(3), randomView(3)
		// Same-dim peers: grow(a) ⊔ b == grow(a ⊔ b).
		if !merge(grow(a), b).Equal(grow(merge(a, b))) {
			t.Fatalf("grow does not commute with merge:\n%s\n%s", a, b)
		}
		// Mixed dims: an already-grown peer view forces the same result
		// whether the local rank grew first or the merge grew it.
		wide := randomView(4)
		if !merge(grow(a), wide).Equal(merge(a, wide)) {
			t.Fatalf("pre-growing changes a widening merge:\n%s\n%s", a, wide)
		}
		// Growth never moves the epoch — only the join's Bump does.
		if grow(a).Epoch() != a.Epoch() {
			t.Fatalf("grow changed epoch: %d -> %d", a.Epoch(), grow(a).Epoch())
		}
	}
}

func TestViewBumpAndTiebreak(t *testing.T) {
	v := bootstrap(2)
	e0 := v.Epoch()
	v.Bump(1, Dead)
	if v.Epoch() <= e0 {
		t.Fatal("death bump did not advance the epoch")
	}
	// Concurrent same-version bumps: crash detector says Dead, join
	// handler says Alive.
	a, b := bootstrap(2), bootstrap(2)
	a.Bump(1, Dead)
	b.Bump(1, Alive)
	m1, m2 := a.Clone(), b.Clone()
	if _, err := m1.Merge(b); err != nil {
		t.Fatal(err)
	}
	if _, err := m2.Merge(a); err != nil {
		t.Fatal(err)
	}
	if !m1.Equal(m2) || m1.Stat[1] != Alive {
		t.Fatalf("tiebreak: got %s / %s, want rank 1 alive in both", m1, m2)
	}
}

// TestViewEncodeDecode round-trips views, including a grown one.
func TestViewEncodeDecode(t *testing.T) {
	v := bootstrap(3)
	v.Bump(2, Dead)
	v.Bump(5, Drained)
	if err := v.Grow(); err != nil {
		t.Fatal(err)
	}
	v.Bump(12, Alive)
	got, err := decodeView(v.Encode())
	if err != nil {
		t.Fatal(err)
	}
	if !got.Equal(v) {
		t.Fatalf("round trip mismatch:\n got %s\nwant %s", got, v)
	}
	if _, err := decodeView(nil); err == nil {
		t.Fatal("empty encoding accepted")
	}
	if _, err := decodeView([]byte{21}); err == nil {
		t.Fatal("oversized dim accepted")
	}
	enc := v.Encode()
	if _, err := decodeView(enc[:len(enc)-1]); err == nil {
		t.Fatal("truncated encoding accepted")
	}
}

// TestViewHelpers covers the root choice, liveness mask and membership
// listings the collectives derive from an agreed view.
func TestViewHelpers(t *testing.T) {
	v := bootstrap(3)
	v.Bump(0, Dead)
	v.Bump(3, Drained)
	root, ok := v.LowestLive()
	if !ok || root != 1 {
		t.Fatalf("LowestLive = %d, %v; want 1, true", root, ok)
	}
	if v.LiveCount() != 6 {
		t.Fatalf("LiveCount = %d, want 6", v.LiveCount())
	}
	live := v.Live()
	if live.Alive(0) || live.Alive(3) || !live.Alive(7) {
		t.Fatal("liveness mask disagrees with statuses")
	}
	if got := v.Members(); len(got) != 6 || got[0] != 1 {
		t.Fatalf("Members = %v", got)
	}
}

// memberNet wires Managers together with in-memory control delivery so
// the protocol can be driven without a transport. Frames are delivered
// synchronously on the sender's goroutine (like SendControl followed by
// the peer's read pump, minus the socket).
type memberNet struct {
	mu   sync.Mutex
	mgrs map[cube.NodeID]*Manager
	down map[cube.NodeID]bool // crashed ranks drop all frames
}

func newMemberNet() *memberNet {
	return &memberNet{mgrs: make(map[cube.NodeID]*Manager), down: make(map[cube.NodeID]bool)}
}

func (nw *memberNet) sendFrom(from cube.NodeID) func(to cube.NodeID, kind byte, body []byte) error {
	return func(to cube.NodeID, kind byte, body []byte) error {
		nw.mu.Lock()
		dst := nw.mgrs[to]
		dead := nw.down[from] || nw.down[to]
		nw.mu.Unlock()
		if dst == nil || dead {
			return nil
		}
		// Copy: real frames are decoded into fresh buffers per hop.
		dst.OnControl(from, kind, append([]byte(nil), body...))
		return nil
	}
}

func (nw *memberNet) add(m *Manager) {
	nw.mu.Lock()
	nw.mgrs[m.Self()] = m
	nw.mu.Unlock()
}

func (nw *memberNet) crash(r cube.NodeID) {
	nw.mu.Lock()
	nw.down[r] = true
	nw.mu.Unlock()
}

// TestManagerCrashDetectionConverges: one supervisor signal floods a
// death to the whole mesh.
func TestManagerCrashDetectionConverges(t *testing.T) {
	const dim = 3
	nw := newMemberNet()
	var mgrs []*Manager
	for r := 0; r < 1<<dim; r++ {
		m := New(Config{Self: cube.NodeID(r), Dim: dim, Send: nw.sendFrom(cube.NodeID(r))})
		nw.add(m)
		mgrs = append(mgrs, m)
	}
	nw.crash(5)
	// Only rank 4 (a neighbor) detects the death; the flood must carry it
	// to non-neighbors too.
	mgrs[4].OnPeerDown(4, 5, nil)
	want := mgrs[4].View()
	for r, m := range mgrs {
		if r == 5 {
			continue
		}
		if !m.WaitEpochAbove(bootstrap(dim).Epoch(), time.Second) {
			t.Fatalf("rank %d never saw the view change", r)
		}
		if got := m.View(); !got.Equal(want) || got.Alive(5) {
			t.Fatalf("rank %d: view %s, want %s with 5 dead", r, got, want)
		}
	}
}

// TestManagerJoinIntoHole: a dead rank's hole is refilled by a joiner
// that starts from the empty view, and the join wins against the stale
// death record by version, not by luck.
func TestManagerJoinIntoHole(t *testing.T) {
	const dim = 3
	nw := newMemberNet()
	var mgrs []*Manager
	for r := 0; r < 1<<dim; r++ {
		m := New(Config{Self: cube.NodeID(r), Dim: dim, Send: nw.sendFrom(cube.NodeID(r))})
		nw.add(m)
		mgrs = append(mgrs, m)
	}
	nw.crash(6)
	mgrs[2].OnPeerDown(2, 6, nil)
	mgrs[7].OnPeerDown(7, 6, nil)
	deadEpoch := mgrs[0].Epoch()

	// New incarnation of rank 6.
	joiner := New(Config{Self: 6, Dim: dim, Join: true, Send: nw.sendFrom(6)})
	if joiner.Epoch() != 0 {
		t.Fatalf("joiner epoch %d, want 0", joiner.Epoch())
	}
	nw.mu.Lock()
	nw.down[6] = false
	nw.mgrs[6] = joiner
	nw.mu.Unlock()
	joiner.AnnounceJoin()
	if !joiner.WaitAlive(time.Second) {
		t.Fatal("joiner never admitted")
	}
	for r, m := range mgrs {
		if r == 6 {
			continue
		}
		if !m.WaitEpochAbove(deadEpoch, time.Second) {
			t.Fatalf("rank %d never saw the join", r)
		}
		if got := m.View(); !got.Alive(6) {
			t.Fatalf("rank %d: %s, want 6 alive", r, got)
		}
	}
	if !joiner.View().Equal(mgrs[0].View()) {
		t.Fatalf("joiner view %s disagrees with mesh %s", joiner.View(), mgrs[0].View())
	}
}

// TestManagerDrain: a graceful leave marks the rank Drained (not Dead)
// everywhere, and late supervisor noise about the drained peer is not
// re-reported as a crash.
func TestManagerDrain(t *testing.T) {
	const dim = 2
	nw := newMemberNet()
	var mgrs []*Manager
	for r := 0; r < 1<<dim; r++ {
		m := New(Config{Self: cube.NodeID(r), Dim: dim, Send: nw.sendFrom(cube.NodeID(r))})
		nw.add(m)
		mgrs = append(mgrs, m)
	}
	mgrs[3].Drain()
	for r := 0; r < 3; r++ {
		if !mgrs[r].WaitEpochAbove(bootstrap(dim).Epoch(), time.Second) {
			t.Fatalf("rank %d missed the drain", r)
		}
		if got := mgrs[r].View(); got.Stat[3] != Drained {
			t.Fatalf("rank %d: status %s, want drained", r, got.Stat[3])
		}
	}
	// The drained peer's conn teardown often trips supervisors after the
	// fact; that must not flip Drained to Dead.
	e := mgrs[1].Epoch()
	mgrs[1].OnPeerDown(1, 3, nil)
	if mgrs[1].Epoch() != e || mgrs[1].View().Stat[3] != Drained {
		t.Fatal("stale peer-down overwrote the drain")
	}
}

// TestManagerGrowByJoin: a join aimed one rank beyond the cube grows
// the view by a dimension everywhere.
func TestManagerGrowByJoin(t *testing.T) {
	const dim = 2
	nw := newMemberNet()
	var mgrs []*Manager
	for r := 0; r < 1<<dim; r++ {
		m := New(Config{Self: cube.NodeID(r), Dim: dim, Send: nw.sendFrom(cube.NodeID(r))})
		nw.add(m)
		mgrs = append(mgrs, m)
	}
	joiner := New(Config{Self: 4, Dim: dim + 1, Join: true, Send: nw.sendFrom(4)})
	nw.add(joiner)
	joiner.AnnounceJoin()
	if !joiner.WaitAlive(time.Second) {
		t.Fatal("grown joiner never admitted")
	}
	for r, m := range mgrs {
		if !m.WaitEpochAbove(bootstrap(dim).Epoch(), time.Second) {
			t.Fatalf("rank %d missed the growth", r)
		}
		v := m.View()
		if v.Dim != dim+1 || !v.Alive(4) || v.Stat[5] != Dead {
			t.Fatalf("rank %d: %s, want dim %d with 4 alive and 5..7 holes", r, v, dim+1)
		}
	}
}

// TestManagerControlFrameCodec drives OnControl through real wire
// frames, round-tripping a view through the v3 codec.
func TestManagerControlFrameCodec(t *testing.T) {
	m := New(Config{Self: 0, Dim: 2})
	peer := New(Config{Self: 1, Dim: 2})
	peer.OnPeerDown(1, 3, nil)

	frame := wire.AppendMemberFrame(nil, wire.KindView, peer.View().Encode())
	fr, _, err := wire.DecodeAny(frame)
	if err != nil {
		t.Fatal(err)
	}
	m.OnControl(1, fr.Kind, fr.Body)
	if got := m.View(); got.Alive(3) || !got.Equal(peer.View()) {
		t.Fatalf("view after control frame: %s, want %s", got, peer.View())
	}
	// Malformed frames are dropped, not fatal.
	m.OnControl(1, wire.KindView, []byte{0xff})
	m.OnControl(1, wire.KindJoin, nil)
}

// TestEpochDoesNotNameTheView: two managers start from one bootstrap
// view and each records a different peer down. Their epochs are equal
// and their live sets are not — an epoch is a sum over the view's
// entries, not an identity, so anything keyed by the epoch alone (the
// elastic communicator's tag base) can be shared by ranks that disagree
// on the view. Merging the two views yields a third, larger epoch.
func TestEpochDoesNotNameTheView(t *testing.T) {
	const dim = 2
	a := New(Config{Self: 0, Dim: dim})
	b := New(Config{Self: 1, Dim: dim})
	a.OnPeerDown(0, 3, nil)
	b.OnPeerDown(1, 2, nil)
	va, vb := a.View(), b.View()
	if va.Epoch() != vb.Epoch() {
		t.Fatalf("epochs %d and %d differ; the collision this pins is gone", va.Epoch(), vb.Epoch())
	}
	if va.Live().Equal(vb.Live()) {
		t.Fatalf("live sets of %s and %s agree", va, vb)
	}
	m := va.Clone()
	if _, err := m.Merge(vb); err != nil {
		t.Fatal(err)
	}
	if m.Epoch() <= va.Epoch() {
		t.Fatalf("merged epoch %d, want above %d", m.Epoch(), va.Epoch())
	}
}
