package comm

import (
	"math/rand"
	"slices"
	"sync"
	"testing"

	"repro/internal/mpx"
	"repro/internal/svc"
)

// refMailbox is the mailbox as one map from tag to queue: what the
// table, the map and the moves between them must add up to.
type refMailbox struct {
	cur   int
	q     map[int][]mpx.Envelope
	gone  map[int]bool
	ready []int // tags
}

func (r *refMailbox) put(env mpx.Envelope) bool {
	if r.gone[env.Tag] {
		return false
	}
	r.q[env.Tag] = append(r.q[env.Tag], env)
	if env.Tag-svc.StreamSub(env.Tag) == r.cur {
		r.ready = append(r.ready, env.Tag)
	}
	return true
}

func (r *refMailbox) pop(tag int) (env mpx.Envelope, ok bool) {
	if q := r.q[tag]; len(q) > 0 {
		env, ok, r.q[tag] = q[0], true, q[1:]
	}
	return env, ok
}

func (r *refMailbox) popAny() (env mpx.Envelope, ok bool) {
	for !ok && len(r.ready) > 0 {
		env, ok = r.pop(r.ready[0])
		r.ready = r.ready[1:]
	}
	return env, ok
}

// advance reseeds ready with the new collective's queues in tag order.
func (r *refMailbox) advance(cur int) {
	r.cur, r.ready = cur, nil
	for tag, q := range r.q {
		for i := 0; i < len(q) && tag-svc.StreamSub(tag) == cur; i++ {
			r.ready = append(r.ready, tag)
		}
	}
	slices.Sort(r.ready)
}

// TestMailboxMatchesMapReference drives the mailbox and refMailbox with
// the same seeded events — deliveries for the current collective, the
// next, a past one, another key (a foreign frame) and subtags past
// tableCap; receives by tag and by arrival; abandons, advances and
// resets to a new key — and requires the
// same envelopes in the same order, the same stale reports and the same
// ready order.
func TestMailboxMatchesMapReference(t *testing.T) {
	keys := [2]int{svc.Tag{Tenant: 1, Job: 2}.MustEncode(), svc.Tag{Tenant: 3, Job: 4}.MustEncode()}
	for seed := int64(1); seed <= 300; seed++ {
		rng := rand.New(rand.NewSource(seed))
		base, seq := keys[0], 0
		m := mailbox{cur: base}
		ref := refMailbox{cur: base, q: map[int][]mpx.Envelope{}, gone: map[int]bool{}}
		// tag picks a tag near the current collective, or under the other key.
		tag := func() int {
			sub := rng.Intn(5)
			if rng.Intn(8) == 0 {
				sub += tableCap - 1
			}
			if rng.Intn(6) == 0 {
				return keys[0] ^ keys[1] ^ base | svc.StreamTag(rng.Intn(3), sub)
			}
			return base | svc.StreamTag(max(0, seq+rng.Intn(4)-1), sub)
		}
		for step := 0; step < 400; step++ {
			fail := func(format string, args ...any) {
				t.Helper()
				t.Fatalf("seed %d step %d: "+format, append([]any{seed, step}, args...)...)
			}
			switch op := rng.Intn(20); {
			case op < 8:
				env := mpx.Envelope{Message: mpx.Message{Tag: tag()}, Port: step}
				if got, want := m.put(env), ref.put(env); got != want {
					fail("put(%#x) = %v, reference %v", env.Tag, got, want)
				}
			case op < 11:
				tg := tag()
				got, ok := m.pop(tg)
				want, wok := ref.pop(tg)
				if ok != wok || got.Tag != want.Tag || got.Port != want.Port {
					fail("pop(%#x) = %#x/%d %v, reference %#x/%d %v", tg, got.Tag, got.Port, ok, want.Tag, want.Port, wok)
				}
				if m.has(tg) != (len(ref.q[tg]) > 0) {
					fail("has(%#x) = %v after pop", tg, m.has(tg))
				}
			case op < 14:
				got, ok := m.popAny()
				want, wok := ref.popAny()
				if ok != wok || got.Tag != want.Tag || got.Port != want.Port {
					fail("popAny = %#x/%d %v, reference %#x/%d %v", got.Tag, got.Port, ok, want.Tag, want.Port, wok)
				}
			case op < 15:
				tg := base | svc.StreamTag(seq, rng.Intn(5))
				isStale := func(k int) bool {
					return len(ref.q[k]) > 0 && svc.JobKeyOf(k) == svc.JobKeyOf(tg) &&
						svc.StreamSub(k) == svc.StreamSub(tg) && svc.StreamSeq(k) < seq
				}
				env, k, ok := m.stale(tg)
				if ok && (!isStale(k) || ref.q[k][0].Port != env.Port) {
					fail("stale(%#x) = %#x, not a stale queue head of the reference", tg, k)
				}
				for rk := range ref.q {
					if !ok && isStale(rk) {
						fail("stale(%#x) missed %#x", tg, rk)
					}
				}
			case op < 16:
				tg := tag()
				m.abandon(tg)
				ref.gone[tg] = true
				delete(ref.q, tg)
			case op < 19:
				seq++
				m.advance(base | svc.StreamTag(seq, 0))
				ref.advance(base | svc.StreamTag(seq, 0))
			default:
				base, seq = keys[rng.Intn(2)], 0
				m.reset(base)
				ref = refMailbox{cur: base, q: map[int][]mpx.Envelope{}, gone: map[int]bool{}}
			}
			var ready []int
			for _, sub := range m.ready[m.readyHead:] {
				ready = append(ready, m.cur+sub)
			}
			if !slices.Equal(ready, ref.ready) {
				fail("ready %x, reference %x", ready, ref.ready)
			}
		}
	}
}

// TestMailboxZeroAllocs: once warm, a delivery and its receive by tag,
// or by arrival, allocate nothing.
func TestMailboxZeroAllocs(t *testing.T) {
	c := &Comm{nd: &mpx.Node{ID: 1}, n: 3, seq: 4}
	c.cond = sync.NewCond(&c.mu)
	c.mailbox.advance(c.tagFor(0))
	parts := []mpx.Part{{Dest: 1, Data: []byte("payload")}}
	for _, tag := range []int{c.tagFor(2), anyTag} {
		env := mpx.Envelope{Message: mpx.Message{Tag: c.tagFor(2), Parts: parts}, From: 3}
		roundTrip := func() {
			c.deliver(env)
			if got, err := c.recvTag(tag); err != nil || got.From != 3 {
				t.Fatalf("recvTag(%d) = %+v, %v", tag, got, err)
			}
		}
		roundTrip()
		if allocs := testing.AllocsPerRun(1000, roundTrip); allocs != 0 {
			t.Errorf("deliver and recvTag(%d) allocate %.1f times, want 0", tag, allocs)
		}
	}
}

// TestAllNodeReservesReadyQueue: making the all-node state reserves the
// mailbox's ready queue, so a fresh communicator's first all-node burst
// — N−1 arrivals, one per tree — does not grow it in put (where it would
// allocate once, at its high-water mark, in some timed call).
func TestAllNodeReservesReadyQueue(t *testing.T) {
	const n, N = 6, 1 << 6
	c := &Comm{nd: &mpx.Node{ID: 1}, n: n, seq: 4}
	c.cond = sync.NewCond(&c.mu)
	c.mailbox.advance(c.tagFor(0))
	c.allNode()
	before := cap(c.mailbox.ready)
	for r := 0; r < N; r++ {
		if r != int(c.Rank()) {
			c.deliver(mpx.Envelope{Message: mpx.Message{Tag: c.tagFor(r + 1)}, From: 0})
		}
	}
	if got := len(c.mailbox.ready); got != N-1 {
		t.Fatalf("%d ready entries after the burst, want %d", got, N-1)
	}
	if after := cap(c.mailbox.ready); after != before {
		t.Fatalf("put grew the ready queue from %d to %d entries: the all-node state reserved too little", before, after)
	}
}
