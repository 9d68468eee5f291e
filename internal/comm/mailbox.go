package comm

import (
	"slices"

	"repro/internal/mpx"
	"repro/internal/svc"
)

// mailbox is a communicator's tag-matched store of delivered envelopes,
// guarded by Comm.mu. The current collective — one (job key, sequence)
// — is filed in a table indexed by subtag, so the hot path matches a tag
// by index rather than by hash. The map holds everything else: early
// arrivals of later sequences, stragglers of past ones and subtags past
// tableCap, which only a foreign frame carries. Other keys do not reach
// it: a dispatcher feeds a job's or an elastic view's communicator its
// key's traffic only, and standalone communicators all use key 0.
// advance moves envelopes across that line when the collective changes,
// so each tag's queue stays first in, first out wherever it sits.
type mailbox struct {
	cur   int                    // the current collective's tag for subtag 0
	table [][]mpx.Envelope       // the current collective's queues, by subtag
	other map[int][]mpx.Envelope // every other queue, by tag; made on first use
	free  [][]mpx.Envelope       // drained map queues, recycled by keep
	gone  map[int]bool           // tags given up on (abandon); made on first use

	// ready is a FIFO of the subtags of the current collective's
	// envelopes, one entry per envelope, in arrival order: popAny takes
	// ready[readyHead] — O(1) per wake-up, in arrival order — and rewinds
	// to the front of the array once the queue drains, so put keeps
	// reusing one backing array. advance reseeds it, in subtag order, with
	// the new collective's early arrivals. An entry goes stale when pop
	// drains the same subtag first; popAny skips it.
	ready     []int
	readyHead int
}

// tableCap bounds the table's subtags. It covers every subtag the
// collectives send at d ≤ 8 with room to spare: the all-node ones use
// rank+1 (N = 256 at most), ProbeLiveness sweeps·n, the rest n or less.
const tableCap = 1 << 10

// current returns tag's subtag and whether tag is filed in the table:
// the current collective's, under tableCap.
func (m *mailbox) current(tag int) (int, bool) {
	sub := svc.StreamSub(tag)
	return sub, tag-sub == m.cur && sub < tableCap
}

// put files env unless its tag was abandoned, and reports whether it did.
func (m *mailbox) put(env mpx.Envelope) bool {
	if len(m.gone) > 0 && m.gone[env.Tag] {
		return false
	}
	if sub, ok := m.current(env.Tag); ok {
		q := m.slot(sub)
		*q = append(*q, env)
		m.ready = append(m.ready, sub)
		return true
	}
	m.keep(env.Tag, env)
	if sub := svc.StreamSub(env.Tag); env.Tag-sub == m.cur { // past tableCap
		m.ready = append(m.ready, sub)
	}
	return true
}

// slot returns the table's queue for sub, growing the table to hold it.
func (m *mailbox) slot(sub int) *[]mpx.Envelope {
	if sub >= len(m.table) {
		m.table = append(m.table, make([][]mpx.Envelope, sub+1-len(m.table))...)
	}
	return &m.table[sub]
}

// keep appends envs to the map's queue under tag, starting the queue
// from the free list.
func (m *mailbox) keep(tag int, envs ...mpx.Envelope) {
	if m.other == nil {
		m.other = make(map[int][]mpx.Envelope)
	}
	q, ok := m.other[tag]
	if n := len(m.free); !ok && n > 0 {
		q, m.free = m.free[n-1], m.free[:n-1]
	}
	m.other[tag] = append(q, envs...)
}

// release empties a queue the map no longer holds into the free list.
func (m *mailbox) release(q []mpx.Envelope) {
	clear(q) // do not pin the payloads
	m.free = append(m.free, q[:0])
}

// has reports whether an envelope is queued under tag.
func (m *mailbox) has(tag int) bool {
	if sub, ok := m.current(tag); ok {
		return sub < len(m.table) && len(m.table[sub]) > 0
	}
	return len(m.other[tag]) > 0
}

// pop takes the oldest envelope queued under tag. The queue keeps its
// array, so the usual one message per tag allocates nothing once warm.
func (m *mailbox) pop(tag int) (mpx.Envelope, bool) {
	if sub, ok := m.current(tag); ok {
		if sub >= len(m.table) || len(m.table[sub]) == 0 {
			return mpx.Envelope{}, false
		}
		env, q := shift(m.table[sub])
		m.table[sub] = q
		return env, true
	}
	q := m.other[tag]
	if len(q) == 0 {
		return mpx.Envelope{}, false
	}
	env, q := shift(q)
	if len(q) == 0 {
		delete(m.other, tag)
		m.release(q)
	} else {
		m.other[tag] = q
	}
	return env, true
}

// shift takes q's oldest envelope and moves the rest up.
func shift(q []mpx.Envelope) (mpx.Envelope, []mpx.Envelope) {
	env := q[0]
	n := copy(q, q[1:])
	q[n] = mpx.Envelope{} // do not pin the payload
	return env, q[:n]
}

// popAny takes the current collective's oldest envelope under any
// subtag, in arrival order.
func (m *mailbox) popAny() (mpx.Envelope, bool) {
	for m.readyHead < len(m.ready) {
		sub := m.ready[m.readyHead]
		if m.readyHead++; m.readyHead == len(m.ready) {
			m.ready, m.readyHead = m.ready[:0], 0
		}
		if env, ok := m.pop(m.cur + sub); ok {
			return env, true
		}
	}
	return mpx.Envelope{}, false
}

// abandon gives tag up: what is queued under it is dropped, its leases
// given back, and so is every later arrival (see put).
func (m *mailbox) abandon(tag int) {
	if m.gone == nil {
		m.gone = make(map[int]bool)
	}
	m.gone[tag] = true
	for {
		env, ok := m.pop(tag)
		if !ok {
			return
		}
		env.Lease.Release()
	}
}

// stale finds a queued envelope under tag's key and subtag but an
// earlier sequence — a corrupt collective stream — and returns it with
// its tag. Past sequences are never current, so only the map is searched.
func (m *mailbox) stale(tag int) (mpx.Envelope, int, bool) {
	key, sub, seq := svc.JobKeyOf(tag), svc.StreamSub(tag), svc.StreamSeq(tag)
	for k, q := range m.other {
		if len(q) > 0 && svc.JobKeyOf(k) == key && svc.StreamSub(k) == sub && svc.StreamSeq(k) < seq {
			return q[0], k, true
		}
	}
	return mpx.Envelope{}, 0, false
}

// advance makes cur the current collective. The old one's leftovers
// move to the map, where stale finds them; the new one's early arrivals
// move from the map into the table and reseed the ready queue in subtag
// order (the map does not remember their arrival order).
func (m *mailbox) advance(cur int) {
	old := m.cur
	m.cur = cur
	m.ready, m.readyHead = m.ready[:0], 0
	for sub, q := range m.table {
		if len(q) > 0 && old != cur {
			m.keep(old+sub, q...)
			clear(q)
			m.table[sub] = q[:0]
		}
	}
	for tag, q := range m.other {
		sub, ok := m.current(tag)
		if !ok {
			if tag-sub == cur { // past tableCap: it stays, but is ready
				for range q {
					m.ready = append(m.ready, sub)
				}
			}
			continue
		}
		slot := m.slot(sub)
		*slot = append(*slot, q...)
		delete(m.other, tag)
		m.release(q)
	}
	over := len(m.ready)
	for sub, q := range m.table {
		for range q {
			m.ready = append(m.ready, sub)
		}
	}
	if over > 0 {
		slices.Sort(m.ready)
	}
}

// reset empties the mailbox for a new stream whose first collective's
// tag for subtag 0 is cur, giving back the leases of what it drops. The
// table's and free list's arrays are kept.
func (m *mailbox) reset(cur int) {
	for sub, q := range m.table {
		releaseAll(q)
		m.table[sub] = q[:0]
	}
	for _, q := range m.other {
		releaseAll(q)
	}
	m.other, m.gone = nil, nil
	m.ready, m.readyHead = m.ready[:0], 0
	m.cur = cur
}

// releaseAll gives back the leases of dropped envelopes and clears them,
// so as not to pin their payloads.
func releaseAll(q []mpx.Envelope) {
	for _, env := range q {
		env.Lease.Release()
	}
	clear(q)
}
