package comm

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/cube"
	"repro/internal/member"
	"repro/internal/mpx"
	"repro/internal/svc"
	"repro/internal/transport"
)

// elasticRes keeps crash-detection cycles short for tests.
func elasticRes() transport.ResilienceOptions {
	return transport.ResilienceOptions{
		Enabled:     true,
		MaxAttempts: 4,
		Budget:      1500 * time.Millisecond,
		BaseBackoff: 2 * time.Millisecond,
		MaxBackoff:  30 * time.Millisecond,
	}
}

func startElastic(t *testing.T, dim int, id cube.NodeID, join bool) *Elastic {
	t.Helper()
	e, err := NewElastic(ElasticOptions{
		Dim: dim, Self: id, Join: join,
		Resilience:       elasticRes(),
		HandshakeTimeout: 10 * time.Second,
	})
	if err != nil {
		t.Fatalf("NewElastic(%d): %v", id, err)
	}
	t.Cleanup(func() { e.Close() })
	return e
}

// elasticMesh bootstraps a full d-cube of elastic endpoints.
func elasticMesh(t *testing.T, dim int) ([]*Elastic, []string) {
	t.Helper()
	n := 1 << uint(dim)
	eps := make([]*Elastic, n)
	addrs := make([]string, n)
	for i := 0; i < n; i++ {
		eps[i] = startElastic(t, dim, cube.NodeID(i), false)
		addrs[i] = eps[i].Addr()
	}
	errs := make(chan error, n)
	for _, e := range eps {
		go func(e *Elastic) { errs <- e.Connect(addrs) }(e)
	}
	for i := 0; i < n; i++ {
		if err := <-errs; err != nil {
			t.Fatalf("Connect: %v", err)
		}
	}
	return eps, addrs
}

// TestElasticStableView: on a full, unchanging view the ViewComm
// collectives behave like the plain ones — broadcast reaches everyone,
// gather assembles every rank's payload at the root.
func TestElasticStableView(t *testing.T) {
	const dim = 2
	eps, _ := elasticMesh(t, dim)
	errs := make(chan error, len(eps))
	for _, e := range eps {
		go func(e *Elastic) {
			errs <- e.Run(func(s *Session) error {
				vc, err := s.Pin()
				if err != nil {
					return err
				}
				if vc.Root() != 0 {
					return fmt.Errorf("root %d, want 0", vc.Root())
				}
				var data []byte
				if vc.Rank() == vc.Root() {
					data = []byte("elastic hello")
				}
				got, err := vc.Bcast(data)
				if err != nil {
					return err
				}
				if string(got) != "elastic hello" {
					return fmt.Errorf("rank %d: bcast got %q", vc.Rank(), got)
				}
				sums, err := vc.Gather([]byte{byte(vc.Rank())})
				if err != nil {
					return err
				}
				if vc.Rank() == vc.Root() {
					for r := 0; r < vc.Size(); r++ {
						if len(sums[r]) != 1 || sums[r][0] != byte(r) {
							return fmt.Errorf("gather[%d] = %v", r, sums[r])
						}
					}
				}
				return nil
			})
		}(e)
	}
	for range eps {
		if err := <-errs; err != nil {
			t.Fatal(err)
		}
	}
}

// ---- churn drill (in-process twin of `hypercomm churn`) ----

// drillPayload is the root's round signature: round number, stop flag,
// and a round-determined filler the receivers verify byte-for-byte.
func drillPayload(round int, stop bool) []byte {
	b := make([]byte, 64)
	binary.BigEndian.PutUint32(b, uint32(round))
	if stop {
		b[4] = 1
	}
	for i := 5; i < len(b); i++ {
		b[i] = byte(round*31 + i)
	}
	return b
}

type drillStats struct {
	completed atomic.Int64 // rounds finished (deduplicated)
	vchanged  atomic.Int64 // view-change retries observed
}

func isViewChanged(err error) bool {
	var vce *member.ViewChangedError
	return errors.As(err, &vce)
}

// drillFollower participates in root-signed rounds until the stop round
// arrives: receive the round broadcast, verify it byte-for-byte, echo
// it into the gather. Rounds replayed after a view change (the root
// retries an interrupted round on the new view) are deduplicated.
func drillFollower(s *Session, st *drillStats) error {
	last := -1
	for {
		vc, err := s.Pin()
		if err != nil {
			return err
		}
		data, err := vc.Bcast(nil)
		if isViewChanged(err) {
			st.vchanged.Add(1)
			continue
		}
		if err != nil {
			return err
		}
		if len(data) != 64 {
			return fmt.Errorf("rank %d: short round payload (%d bytes)", vc.Rank(), len(data))
		}
		round := int(binary.BigEndian.Uint32(data))
		stop := data[4] == 1
		if want := drillPayload(round, stop); !bytes.Equal(data, want) {
			return fmt.Errorf("rank %d: round %d payload corrupted", vc.Rank(), round)
		}
		_, err = vc.Gather(data)
		if isViewChanged(err) {
			st.vchanged.Add(1)
			continue
		}
		if err != nil {
			return err
		}
		if round != last {
			st.completed.Add(1)
			last = round
		}
		if stop {
			return nil
		}
	}
}

// drillRoot drives rounds: broadcast the signed payload, gather every
// live rank's echo, verify byte-exact delivery. A view change mid-round
// (a *member.ViewChangedError) retries the same round on a newly pinned
// view. It stops once stopNow reports true AND two further rounds
// completed on the then-current view.
func drillRoot(s *Session, st *drillStats, stopNow func() bool) error {
	graceLeft := -1
	for round := 0; ; round++ {
		if graceLeft < 0 && stopNow() {
			graceLeft = 2
		}
		stop := graceLeft == 0
		payload := drillPayload(round, stop)
		err := retryOnViewChange(s, func(vc *ViewComm) error {
			if _, err := vc.Bcast(payload); err != nil {
				return err
			}
			sums, err := vc.Gather(payload)
			if err != nil {
				return err
			}
			for r := 0; r < vc.Size(); r++ {
				if !vc.View().Alive(cube.NodeID(r)) {
					continue
				}
				if !bytes.Equal(sums[r], payload) {
					return fmt.Errorf("round %d: rank %d echoed %d bytes, want the %d-byte signature",
						round, r, len(sums[r]), len(payload))
				}
			}
			return nil
		})
		if err != nil {
			return err
		}
		st.completed.Add(1)
		if graceLeft > 0 {
			graceLeft--
		}
		if stop {
			return nil
		}
	}
}

// waitCount waits for an atomic counter to reach at least want.
func waitCount(t *testing.T, c *atomic.Int64, want int64, what string) {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for c.Load() < want {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s (have %d, want %d)", what, c.Load(), want)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestElasticChurn is the in-process churn drill: a 2-cube runs
// root-signed collective rounds while rank 3 crashes, a fresh
// incarnation joins back into the hole, and rank 2 drains gracefully.
// Every round either completes byte-exactly on some epoch or fails with
// a ViewChangedError and is retried on the repaired view; the run ends
// with a verified broadcast over the final (3-member) view.
func TestElasticChurn(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-second crash-detection budgets")
	}
	const dim = 2
	eps, addrs := elasticMesh(t, dim)
	var st drillStats
	var churnDone atomic.Bool

	done := make(chan error, 5)
	run := func(e *Elastic, prog func(*Session) error) {
		go func() { done <- e.Run(prog) }()
	}
	run(eps[0], func(s *Session) error {
		return drillRoot(s, &st, churnDone.Load)
	})
	for _, r := range []int{1, 2, 3} {
		run(eps[r], func(s *Session) error { return drillFollower(s, &st) })
	}

	// Phase 1: clean rounds on the full view.
	waitCount(t, &st.completed, 2, "pre-churn rounds")

	// Phase 2: rank 3 crashes mid-traffic; survivors detect, repair,
	// and keep completing rounds on the 3-member view.
	e0 := eps[0].Manager().Epoch()
	eps[3].Crash()
	if !epochAbove(eps[0].Manager(), e0, 20*time.Second) {
		t.Fatal("crash never detected")
	}
	pre := st.completed.Load()
	waitCount(t, &st.completed, pre+2, "post-crash rounds")

	// Phase 3: a fresh incarnation of rank 3 joins through the hole.
	reborn := startElastic(t, dim, 3, true)
	joinAddrs := append([]string(nil), addrs...)
	joinAddrs[3] = ""
	if err := reborn.Join(joinAddrs, 20*time.Second); err != nil {
		t.Fatalf("Join: %v", err)
	}
	run(reborn, func(s *Session) error { return drillFollower(s, &st) })
	pre = st.completed.Load()
	waitCount(t, &st.completed, pre+2, "post-join rounds")

	// Phase 4: rank 2 drains gracefully (Drained, not Dead).
	e2 := eps[0].Manager().Epoch()
	go eps[2].Drain(200 * time.Millisecond)
	if !epochAbove(eps[0].Manager(), e2, 20*time.Second) {
		t.Fatal("drain never observed")
	}
	pre = st.completed.Load()
	waitCount(t, &st.completed, pre+2, "post-drain rounds")

	// Phase 5: stop. The final rounds ARE the post-storm verified
	// broadcast: the root byte-checks every live rank's echo.
	churnDone.Store(true)
	finished := 0
	for finished < 5 {
		select {
		case err := <-done:
			finished++
			// The crashed rank and the drained rank end with shutdown
			// errors by design; survivors must end clean.
			if err != nil && !isExpectedChurnExit(err) {
				t.Fatalf("program exited: %v", err)
			}
		case <-time.After(60 * time.Second):
			t.Fatalf("programs still running (%d/5 done)", finished)
		}
	}

	if st.vchanged.Load() == 0 {
		t.Fatal("no view-change retries observed — the churn never interrupted a collective")
	}
	v := eps[0].Manager().View()
	if !v.Alive(0) || !v.Alive(1) || !v.Alive(3) {
		t.Fatalf("final view %s, want 0,1,3 alive", v)
	}
	if v.Stat[2] != member.Drained {
		t.Fatalf("final view %s, want rank 2 drained", v)
	}
}

// TestElasticGrow is the in-process growth drill: a 2-cube runs
// root-signed collective rounds while rank 4 — beyond the founding
// four — grow-attaches into the live mesh. Every surviving endpoint
// must re-dimension online (no process restarted), and the run ends
// with byte-exact rounds on the 3-cube in which the grown rank's echo
// is verified by the root like any founder's.
func TestElasticGrow(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-second growth budgets")
	}
	const dim = 2
	eps, addrs := elasticMesh(t, dim)
	var st drillStats
	var growDone atomic.Bool

	done := make(chan error, 5)
	run := func(e *Elastic, prog func(*Session) error) {
		go func() { done <- e.Run(prog) }()
	}
	run(eps[0], func(s *Session) error {
		return drillRoot(s, &st, growDone.Load)
	})
	for _, r := range []int{1, 2, 3} {
		run(eps[r], func(s *Session) error { return drillFollower(s, &st) })
	}

	// Phase 1: clean rounds on the founding 2-cube.
	waitCount(t, &st.completed, 2, "pre-growth rounds")

	// Phase 2: rank 4 joins mid-traffic. It is born at dim 3 and dials
	// its only live neighbor (rank 0) through the grow-attach handshake;
	// the survivors widen their link sets online.
	joiner := startElastic(t, dim+1, 4, true)
	joinAddrs := make([]string, 1<<uint(dim+1))
	copy(joinAddrs, addrs)
	if err := joiner.Join(joinAddrs, 20*time.Second); err != nil {
		t.Fatalf("Join: %v", err)
	}
	run(joiner, func(s *Session) error { return drillFollower(s, &st) })

	// Every surviving endpoint must reach dim 3 — the epoch-gated
	// cutover means the view (and hence the pinned sessions) flip as a
	// unit, so rounds completing below all include rank 4's echo.
	deadline := time.Now().Add(20 * time.Second)
	for _, e := range eps {
		for e.dimNow() < dim+1 {
			if time.Now().After(deadline) {
				t.Fatalf("rank %d never re-dimensioned (dim %d)", e.self, e.dimNow())
			}
			time.Sleep(5 * time.Millisecond)
		}
	}

	// Phase 3: verified rounds on the grown cube. drillRoot byte-checks
	// every live rank's gather echo, which now includes rank 4.
	pre := st.completed.Load()
	waitCount(t, &st.completed, pre+3, "post-growth rounds")

	// Phase 4: stop and collect.
	growDone.Store(true)
	for finished := 0; finished < 5; finished++ {
		select {
		case err := <-done:
			if err != nil {
				t.Fatalf("program exited: %v", err)
			}
		case <-time.After(60 * time.Second):
			t.Fatalf("programs still running (%d/5 done)", finished)
		}
	}

	v := eps[0].Manager().View()
	if v.Dim != dim+1 {
		t.Fatalf("final view %s, want a %d-cube", v, dim+1)
	}
	for r := 0; r <= 4; r++ {
		if !v.Alive(cube.NodeID(r)) {
			t.Fatalf("final view %s, want ranks 0..4 alive", v)
		}
	}
	var grown, accepted int64
	for _, e := range eps {
		grown += e.tr.Stats().GrowEvents
		accepted += e.tr.Stats().GrowAccepts
	}
	if grown != int64(len(eps)) {
		t.Fatalf("survivors recorded %d grow events, want %d (one each)", grown, len(eps))
	}
	if accepted == 0 {
		t.Fatal("no survivor accepted a grow-attach handshake")
	}
}

// isExpectedChurnExit accepts the ways a killed or drained rank's
// program legitimately ends: transport shutdown underneath it, or its
// own rank leaving the view.
func isExpectedChurnExit(err error) bool {
	s := err.Error()
	return bytes.Contains([]byte(s), []byte("machine stopped")) ||
		bytes.Contains([]byte(s), []byte("connection lost")) ||
		bytes.Contains([]byte(s), []byte("is not alive in view")) ||
		bytes.Contains([]byte(s), []byte("transport is closed"))
}

// ---- epoch keys on the dispatcher, in process ----

// localElastics builds one Elastic per rank of a dim-cube with no
// transport: each manager starts on the bootstrap view and changes only
// when a test feeds it an event, so views move exactly when a test says.
func localElastics(dim int) []*Elastic {
	eps := make([]*Elastic, 1<<uint(dim))
	for i := range eps {
		mgr := member.New(member.Config{Self: cube.NodeID(i), Dim: dim})
		e := &Elastic{self: cube.NodeID(i), mgr: mgr, dim: dim, re: newRepairer(dim)}
		mgr.Subscribe(e.onView)
		e.re.Rebind(mgr.Epoch(), mgr.View().Live())
		eps[i] = e
	}
	return eps
}

// runLocal runs program as every rank's Session on an in-process
// machine, rank r on eps[r]. A failing rank shuts the machine down, so
// the others unwind instead of waiting for it.
func runLocal(t *testing.T, eps []*Elastic, program func(s *Session) error) {
	t.Helper()
	dim := eps[0].dim
	m := mpx.NewWithTransport(mpx.NewChanTransport(dim, CollectiveDepth(dim), nil), nil)
	defer m.Shutdown()
	err := m.Run(func(nd *mpx.Node) error {
		err := eps[nd.ID].runOn(nd, program)
		if err != nil {
			m.Shutdown()
		}
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
}

// retryOnViewChange pins a view and runs fn on it until fn returns
// anything but a *member.ViewChangedError.
func retryOnViewChange(s *Session, fn func(vc *ViewComm) error) error {
	for {
		vc, err := s.Pin()
		if err != nil {
			return err
		}
		err = fn(vc)
		var vce *member.ViewChangedError
		if !errors.As(err, &vce) {
			return err
		}
	}
}

// pinBarrier pins the current view and runs a barrier on it: a gather
// to the view root and a broadcast back down.
func pinBarrier(s *Session) (*ViewComm, error) {
	vc, err := s.Pin()
	if err != nil {
		return nil, err
	}
	_, err = sumOnView(vc, 0)
	return vc, err
}

// sumOnView adds every live rank's b on the view root and broadcasts
// the sum back down.
func sumOnView(vc *ViewComm, b byte) (byte, error) {
	got, err := vc.Gather([]byte{b})
	if err != nil {
		return 0, err
	}
	var sum []byte
	if vc.Rank() == vc.Root() {
		sum = []byte{0}
		for _, g := range got {
			if len(g) == 1 {
				sum[0] += g[0]
			}
		}
	}
	sum, err = vc.Bcast(sum)
	if err != nil {
		return 0, err
	}
	return sum[0], nil
}

var errRank3Gone = errors.New("rank 3 gone")

// TestElasticLateViewNotice forces the race a view-change notice can
// lose. On each survivor, onView reads the open epoch and then parks
// (viewHook) until the rank has pinned the new view; only then does it
// act. The notice names a key that Pin has already closed, so each
// survivor must then run 50 sums (a gather and a broadcast each) on the
// new view with no error.
func TestElasticLateViewNotice(t *testing.T) {
	const dim, survivors, rounds = 2, 3, 50
	eps := localElastics(dim)
	e0 := eps[0].mgr.Epoch()
	var reached, release [survivors]chan struct{}
	for r := range survivors {
		reached[r], release[r] = make(chan struct{}), make(chan struct{})
		var once sync.Once
		eps[r].mu.Lock()
		eps[r].viewHook = func(uint64) {
			once.Do(func() {
				close(reached[r])
				<-release[r]
			})
		}
		eps[r].mu.Unlock()
	}
	runLocal(t, eps, func(s *Session) error {
		if _, err := pinBarrier(s); err != nil || s.e.self == 3 {
			return err
		}
		r := s.e.self
		noticed := make(chan struct{})
		go func() {
			s.e.mgr.OnPeerDown(r, 3, errRank3Gone)
			close(noticed)
		}()
		select {
		case <-reached[r]:
		case <-time.After(10 * time.Second):
			return fmt.Errorf("rank %d: onView never saw the view change", r)
		}
		vc, err := s.Pin()
		close(release[r])
		<-noticed
		if err != nil {
			return err
		}
		if vc.epoch == e0 {
			return fmt.Errorf("rank %d: pinned epoch %d again after the view change", r, e0)
		}
		for i := range rounds {
			got, err := sumOnView(vc, 1)
			if err != nil {
				return fmt.Errorf("rank %d: collective %d on epoch %d: %w", r, i, vc.epoch, err)
			}
			if got != survivors {
				return fmt.Errorf("rank %d: collective %d summed %d, want %d", r, i, got, survivors)
			}
		}
		return nil
	})
}

// TestElasticClosedKeyDropsStragglers: once rank 0 pinned a new view, a
// message sent under the old view's key is a straggler. It never reaches
// the new view's communicator, while a message under the new key does.
func TestElasticClosedKeyDropsStragglers(t *testing.T) {
	eps := localElastics(2)
	e0 := eps[0].mgr.Epoch()
	pinned := make(chan uint64, 1)
	stale := elasticBase(e0) | svc.StreamTag(0, 1)
	runLocal(t, eps, func(s *Session) error {
		if _, err := pinBarrier(s); err != nil {
			return err
		}
		switch s.e.self {
		case 0:
			s.e.mgr.OnPeerDown(0, 3, errRank3Gone)
			vc, err := s.Pin()
			if err != nil {
				return err
			}
			pinned <- vc.epoch
			fence := elasticBase(vc.epoch) | svc.StreamTag(0, 1)
			if _, err := s.c.recvTag(fence); err != nil {
				return err
			}
			s.c.mu.Lock()
			defer s.c.mu.Unlock()
			if s.c.mailbox.has(stale) || len(s.c.mailbox.other) > 0 {
				return fmt.Errorf("a straggler of epoch %d reached epoch %d's communicator", e0, vc.epoch)
			}
		case 1:
			ep := <-pinned
			s.nd.SendTo(0, mpx.Message{Tag: stale})
			s.nd.SendTo(0, mpx.Message{Tag: elasticBase(ep) | svc.StreamTag(0, 1)})
		}
		return nil
	})
}

// TestElasticEarlyArrivalDelivered: a message sent under a view rank 0
// has not pinned yet waits for it and is delivered once it pins that
// view.
func TestElasticEarlyArrivalDelivered(t *testing.T) {
	eps := localElastics(2)
	sent := make(chan uint64, 1)
	runLocal(t, eps, func(s *Session) error {
		if _, err := pinBarrier(s); err != nil {
			return err
		}
		switch s.e.self {
		case 0:
			ep := <-sent
			s.e.mgr.OnPeerDown(0, 3, errRank3Gone)
			vc, err := s.Pin()
			if err != nil {
				return err
			}
			if vc.epoch != ep {
				return fmt.Errorf("rank 0 pinned epoch %d, rank 1 sent under %d", vc.epoch, ep)
			}
			env, ok, err := s.c.recvTagWait(elasticBase(ep)|svc.StreamTag(0, 1), 5*time.Second)
			if err != nil || !ok || string(env.Parts[0].Data) != "early" {
				return fmt.Errorf("early arrival: %+v, %v, %v", env, ok, err)
			}
		case 1:
			s.e.mgr.OnPeerDown(1, 3, errRank3Gone)
			ep := s.e.mgr.Epoch()
			s.nd.SendTo(0, mpx.Message{Tag: elasticBase(ep) | svc.StreamTag(0, 1), Parts: []mpx.Part{{Dest: 0, Data: []byte("early")}}})
			sent <- ep
		}
		return nil
	})
}

// TestElasticCloseWaitsForDrainAnnouncement: a draining rank's own Pin
// fails as soon as its view marks it drained, before Drain has told any
// peer, so its program can return and Close the endpoint while the
// announcement is still to go out. Here that Close lands exactly there,
// from Drain's own diagnostic, and rank 0 must still see rank 1 drained.
func TestElasticCloseWaitsForDrainAnnouncement(t *testing.T) {
	const dim = 1
	eps := make([]*Elastic, 2)
	addrs := make([]string, 2)
	closed := make(chan struct{})
	for i := range eps {
		opt := ElasticOptions{Dim: dim, Self: cube.NodeID(i), Resilience: elasticRes(), HandshakeTimeout: 10 * time.Second}
		if i == 1 {
			opt.Logf = func(format string, _ ...any) {
				if !strings.Contains(format, "draining") {
					return
				}
				go func() {
					eps[1].Close()
					close(closed)
				}()
				select { // give the Close every chance to cut the announcement off
				case <-eps[1].tr.Done():
				case <-time.After(300 * time.Millisecond):
				}
			}
		}
		e, err := NewElastic(opt)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { e.Close() })
		eps[i], addrs[i] = e, e.Addr()
	}
	errs := make(chan error, len(eps))
	for _, e := range eps {
		go func(e *Elastic) { errs <- e.Connect(addrs) }(e)
	}
	for range eps {
		if err := <-errs; err != nil {
			t.Fatalf("Connect: %v", err)
		}
	}
	e0 := eps[0].mgr.Epoch()
	eps[1].Drain(0)
	<-closed
	if !epochAbove(eps[0].mgr, e0, 5*time.Second) {
		t.Fatal("rank 0 never saw the drain of rank 1")
	}
	if v := eps[0].mgr.View(); v.Stat[1] != member.Drained {
		t.Fatalf("rank 0's view %s, want rank 1 drained", v)
	}
}

// epochAbove polls m until its epoch exceeds e or d elapses, reporting
// whether it did.
func epochAbove(m *member.Manager, e uint64, d time.Duration) bool {
	for end := time.Now().Add(d); m.Epoch() <= e; time.Sleep(time.Millisecond) {
		if time.Now().After(end) {
			return false
		}
	}
	return true
}
