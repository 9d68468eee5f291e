package member

import (
	"encoding/binary"
	"fmt"
	"sync"
	"time"

	"repro/internal/cube"
	"repro/internal/wire"
)

// ViewChangedError is the typed failure of an epoch-pinned collective:
// the membership view advanced while the collective was in flight, so
// its tree and tag namespace are stale. Epoch carries the new epoch the
// caller should re-pin for the retry.
type ViewChangedError struct {
	Epoch uint64 // the epoch that superseded the collective's pinned one
	Op    string // the collective that was interrupted
}

func (e *ViewChangedError) Error() string {
	return fmt.Sprintf("member: view changed during %s, retry on epoch %d", e.Op, e.Epoch)
}

// Config parameterizes a Manager.
type Config struct {
	// Self is this node's rank.
	Self cube.NodeID
	// Dim is the cube dimension at start.
	Dim int
	// Join marks a late joiner: it starts from the empty view (epoch 0)
	// and adopts the mesh's view by merge after AnnounceJoin.
	Join bool
	// Send transmits a membership control frame (wire.KindJoin/KindDrain/
	// KindView) to a cube neighbor, best-effort: errors and sends to dead
	// peers may be dropped silently; the flood tolerates loss as long as
	// the live component stays connected.
	Send func(to cube.NodeID, kind byte, body []byte) error
	// Logf, when set, receives membership event logs.
	Logf func(format string, args ...any)
}

// Manager runs the membership protocol for one rank: it folds local
// events (peer death from the transport's link supervisors, drain and
// join announcements from peers, its own drain) into the view, floods
// every change to its cube neighbors, and wakes subscribers and epoch
// waiters. All methods are safe for concurrent use.
type Manager struct {
	cfg Config

	mu   sync.Mutex
	cond *sync.Cond
	view View
	subs []func(View)
}

// New builds a Manager. A bootstrap member starts on the launch view
// (everyone alive); a joiner starts on the empty view and must
// AnnounceJoin and WaitAlive before participating.
func New(cfg Config) *Manager {
	m := &Manager{cfg: cfg}
	m.cond = sync.NewCond(&m.mu)
	if cfg.Join {
		m.view = empty(cfg.Dim)
	} else {
		m.view = bootstrap(cfg.Dim)
	}
	return m
}

// Self returns this node's rank.
func (m *Manager) Self() cube.NodeID { return m.cfg.Self }

// View returns a copy of the current view.
func (m *Manager) View() View {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.view.Clone()
}

// Epoch returns the current epoch.
func (m *Manager) Epoch() uint64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.view.Epoch()
}

// Subscribe registers fn to run after every view change, with a copy of
// the new view, outside the manager lock. Subscribers added before any
// change see only future changes.
func (m *Manager) Subscribe(fn func(View)) {
	m.mu.Lock()
	m.subs = append(m.subs, fn)
	m.mu.Unlock()
}

func (m *Manager) logf(format string, args ...any) {
	if m.cfg.Logf != nil {
		m.cfg.Logf(format, args...)
	}
}

// publish wakes waiters and runs subscribers + flood for a change
// already applied under the lock. Callers pass the post-change clone.
func (m *Manager) publish(v View) {
	for _, s := range m.snapshotSubs() {
		s(v.Clone())
	}
	m.flood(v)
}

func (m *Manager) snapshotSubs() []func(View) {
	m.mu.Lock()
	defer m.mu.Unlock()
	subs := make([]func(View), len(m.subs))
	copy(subs, m.subs)
	return subs
}

// flood pushes the view to every cube neighbor, best-effort. Together
// with "re-flood on every merge that changed something" this is a push
// epidemic: any change reaches the whole connected live component.
func (m *Manager) flood(v View) {
	if m.cfg.Send == nil {
		return
	}
	body := v.Encode()
	for d := 0; d < v.Dim; d++ {
		peer := m.cfg.Self ^ cube.NodeID(1<<uint(d))
		_ = m.cfg.Send(peer, wire.KindView, body)
	}
}

// OnPeerDown folds a transport-level link failure into the view: the
// peer is marked Dead if it was Alive. Supervisor escalations about
// already-drained or already-dead peers are ignored — a stale redial
// failing against a gone process is not news.
func (m *Manager) OnPeerDown(self, peer cube.NodeID, err error) {
	m.mu.Lock()
	if int(peer) >= m.view.Size() || m.view.Stat[peer] != Alive {
		m.mu.Unlock()
		return
	}
	m.view.Bump(peer, Dead)
	v := m.view.Clone()
	m.cond.Broadcast()
	m.mu.Unlock()
	m.logf("member %d: peer %d down (%v) -> %s", m.cfg.Self, peer, err, v)
	m.publish(v)
}

// OnControl folds a membership wire frame from a peer into the view.
// It is the transport hook for KindJoin, KindDrain and KindView.
func (m *Manager) OnControl(from cube.NodeID, kind byte, body []byte) {
	switch kind {
	case wire.KindJoin:
		r, n := binary.Uvarint(body)
		if n <= 0 {
			m.logf("member %d: malformed join from %d", m.cfg.Self, from)
			return
		}
		m.handleJoin(cube.NodeID(r))
	case wire.KindDrain:
		m.handleDrain(from)
	case wire.KindAttach:
		// Transport-level announcement from a joiner that grow-attached:
		// same admission as a join request (the address rides along for
		// logs; routing uses the already-established link).
		r, addr, err := wire.DecodeAttach(body)
		if err != nil {
			m.logf("member %d: malformed attach from %d: %v", m.cfg.Self, from, err)
			return
		}
		m.logf("member %d: rank %d attached from %s", m.cfg.Self, r, addr)
		m.handleJoin(r)
	case wire.KindView:
		v, err := decodeView(body)
		if err != nil {
			m.logf("member %d: bad view from %d: %v", m.cfg.Self, from, err)
			return
		}
		m.handleView(v)
	default:
		m.logf("member %d: unknown control kind %d from %d", m.cfg.Self, kind, from)
	}
}

// handleJoin admits rank r: the view grows if r lies beyond the current
// cube, and r is bumped Alive. The handler — not the joiner — assigns
// the version, so a joiner ignorant of the hole's version history still
// wins the merge against every stale record of the dead incarnation.
func (m *Manager) handleJoin(r cube.NodeID) {
	m.mu.Lock()
	for int(r) >= m.view.Size() {
		if err := m.view.Grow(); err != nil {
			m.mu.Unlock()
			m.logf("member %d: cannot admit rank %d: %v", m.cfg.Self, r, err)
			return
		}
	}
	m.view.Bump(r, Alive)
	v := m.view.Clone()
	m.cond.Broadcast()
	m.mu.Unlock()
	m.logf("member %d: rank %d joined -> %s", m.cfg.Self, r, v)
	m.publish(v)
}

// handleDrain records a peer's graceful leave.
func (m *Manager) handleDrain(r cube.NodeID) {
	m.mu.Lock()
	if int(r) >= m.view.Size() || m.view.Stat[r] != Alive {
		m.mu.Unlock()
		return
	}
	m.view.Bump(r, Drained)
	v := m.view.Clone()
	m.cond.Broadcast()
	m.mu.Unlock()
	m.logf("member %d: rank %d drained -> %s", m.cfg.Self, r, v)
	m.publish(v)
}

// handleView merges a flooded view; only a merge that changed something
// re-floods, which terminates the epidemic.
func (m *Manager) handleView(o View) {
	m.mu.Lock()
	changed, err := m.view.Merge(o)
	if err != nil {
		m.mu.Unlock()
		m.logf("member %d: view merge: %v", m.cfg.Self, err)
		return
	}
	if !changed {
		m.mu.Unlock()
		return
	}
	v := m.view.Clone()
	m.cond.Broadcast()
	m.mu.Unlock()
	m.publish(v)
}

// AnnounceJoin broadcasts this node's join request to its cube
// neighbors. Any live neighbor admits the rank and floods the new view
// back, at which point WaitAlive unblocks.
func (m *Manager) AnnounceJoin() {
	if m.cfg.Send == nil {
		return
	}
	body := binary.AppendUvarint(nil, uint64(m.cfg.Self))
	m.mu.Lock()
	dim := m.view.Dim
	m.mu.Unlock()
	for d := 0; d < dim; d++ {
		peer := m.cfg.Self ^ cube.NodeID(1<<uint(d))
		_ = m.cfg.Send(peer, wire.KindJoin, body)
	}
}

// Drain announces this node's graceful leave: it bumps itself Drained
// and sends the drain to every neighbor. The caller should stop issuing
// collectives first and close its transport (with BYE) after.
func (m *Manager) Drain() {
	m.mu.Lock()
	if m.view.Stat[m.cfg.Self] != Alive && !m.cfg.Join {
		m.mu.Unlock()
		return
	}
	m.view.Bump(m.cfg.Self, Drained)
	v := m.view.Clone()
	m.cond.Broadcast()
	m.mu.Unlock()
	m.logf("member %d: draining -> %s", m.cfg.Self, v)
	if m.cfg.Send != nil {
		for d := 0; d < v.Dim; d++ {
			peer := m.cfg.Self ^ cube.NodeID(1<<uint(d))
			_ = m.cfg.Send(peer, wire.KindDrain, nil)
		}
	}
	// Flood the updated view too: KindDrain handles the common case, the
	// view flood covers peers whose drain frame was lost.
	m.publish(v)
}

// WaitEpochAbove blocks until the epoch exceeds e or the timeout
// elapses, reporting whether it did.
func (m *Manager) WaitEpochAbove(e uint64, timeout time.Duration) bool {
	deadline := time.Now().Add(timeout)
	timer := time.AfterFunc(timeout, func() {
		m.mu.Lock()
		m.cond.Broadcast()
		m.mu.Unlock()
	})
	defer timer.Stop()
	m.mu.Lock()
	defer m.mu.Unlock()
	for m.view.Epoch() <= e {
		if time.Now().After(deadline) {
			return false
		}
		m.cond.Wait()
	}
	return true
}

// WaitAlive blocks until this rank is Alive in the view — a joiner's
// admission — or the timeout elapses, reporting whether it is.
func (m *Manager) WaitAlive(timeout time.Duration) bool {
	deadline := time.Now().Add(timeout)
	timer := time.AfterFunc(timeout, func() {
		m.mu.Lock()
		m.cond.Broadcast()
		m.mu.Unlock()
	})
	defer timer.Stop()
	m.mu.Lock()
	defer m.mu.Unlock()
	for !m.view.Alive(m.cfg.Self) {
		if time.Now().After(deadline) {
			return false
		}
		m.cond.Wait()
	}
	return true
}
