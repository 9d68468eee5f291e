package svc

import (
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"repro/internal/mpx"
)

// refDispatcher is the dispatcher as it was with four maps — open sinks,
// pending queues, done tombstones and aborted marks — kept as the
// reference the one-map Dispatcher must match, with a fifth for the
// payload each key received.
type refDispatcher struct {
	open    map[int]jobSink
	pending map[int][]mpx.Envelope
	done    map[int]bool
	aborted map[int]bool
	payload map[int]int64
	down    bool
}

type jobSink struct {
	put    func(mpx.Envelope)
	closed func()
}

func newRefDispatcher() *refDispatcher {
	return &refDispatcher{
		open:    map[int]jobSink{},
		pending: map[int][]mpx.Envelope{},
		done:    map[int]bool{},
		aborted: map[int]bool{},
		payload: map[int]int64{},
	}
}

func (d *refDispatcher) Deliver(env mpx.Envelope) {
	key := JobKeyOf(env.Tag)
	if js, ok := d.open[key]; ok {
		d.payload[key] += int64(env.Size())
		js.put(env)
	} else if !d.done[key] && !d.aborted[key] {
		d.payload[key] += int64(env.Size())
		d.pending[key] = append(d.pending[key], env)
	}
}

func (d *refDispatcher) Down() {
	d.down = true
	for _, js := range d.open {
		js.closed()
	}
}

func (d *refDispatcher) Open(key int, put func(mpx.Envelope), closed func()) {
	delete(d.done, key)
	for _, env := range d.pending[key] {
		put(env)
	}
	delete(d.pending, key)
	d.open[key] = jobSink{put, closed}
	if d.aborted[key] || d.down {
		closed()
	}
}

func (d *refDispatcher) CloseJob(key int) int64 {
	payload := d.payload[key]
	delete(d.payload, key)
	delete(d.open, key)
	delete(d.aborted, key)
	delete(d.pending, key)
	d.done[key] = true
	delete(d.done, JobKey(KeyTenant(key), 1+(KeyJob(key)+MaxJob/2)%MaxJob))
	return payload
}

func (d *refDispatcher) Abort(key int) {
	if !d.done[key] {
		d.aborted[key] = true
		if js, ok := d.open[key]; ok {
			js.closed()
		}
		delete(d.pending, key)
	}
}

// tagOf is a message tag of job key, subtag sub.
func tagOf(key, sub int) int {
	return Tag{Tenant: KeyTenant(key), Job: KeyJob(key)}.MustEncode() | StreamTag(0, sub)
}

// dispatcher is what the differential test drives on both.
type dispatcher interface {
	Deliver(mpx.Envelope)
	Down()
	Open(key int, put func(mpx.Envelope), closed func())
	CloseJob(key int) int64
	Abort(key int)
}

// TestDispatcherMatchesFourMapReference drives the Dispatcher and the
// four-map reference through the same random sequences of deliveries,
// opens, closes, aborts and a machine going down, over keys that include
// each other's half-ring tombstone partners, and requires the same
// envelopes in the same sinks, the same closed calls in the same order,
// and the same payload count from every CloseJob.
func TestDispatcherMatchesFourMapReference(t *testing.T) {
	half := func(job int) int { return 1 + (job+MaxJob/2)%MaxJob }
	var keys []int
	for _, tenant := range []int{1, 2} {
		for _, job := range []int{1, 2, 3, MaxJob} {
			keys = append(keys, JobKey(tenant, job), JobKey(tenant, half(job)))
		}
	}
	for seed := int64(1); seed <= 300; seed++ {
		rng := rand.New(rand.NewSource(seed))
		ds := [2]dispatcher{NewDispatcher(), newRefDispatcher()}
		var logs [2][]string
		for step := 0; step <= 400; step++ {
			key := keys[rng.Intn(len(keys))]
			op := 1 + rng.Intn(100)
			if step == 400 || rng.Intn(200) == 0 {
				op = 0 // the machine goes down, rarely: nothing opens cleanly after it
			}
			var got [2][]string
			for i, d := range ds {
				log := &got[i]
				switch {
				case op == 0:
					d.Down()
				case op <= 45:
					parts := []mpx.Part{{Data: make([]byte, step%5)}, {Data: make([]byte, step%3)}}
					d.Deliver(mpx.Envelope{Message: mpx.Message{Tag: tagOf(key, step), Parts: parts}})
				case op <= 65:
					d.Open(key, func(env mpx.Envelope) {
						*log = append(*log, fmt.Sprintf("sink %d got %#x", step, env.Tag))
					}, func() {
						*log = append(*log, fmt.Sprintf("sink %d closed", step))
					})
				case op <= 90:
					*log = append(*log, fmt.Sprintf("close %d: %d bytes", step, d.CloseJob(key)))
				default:
					d.Abort(key)
				}
				if op == 0 {
					slices.Sort(*log) // Down closes the open sinks in map order
				}
				logs[i] = append(logs[i], *log...)
			}
			if !reflect.DeepEqual(got[0], got[1]) {
				t.Fatalf("seed %d step %d (op %d on key %#x): dispatcher logged %q, reference %q\nafter %q",
					seed, step, op, key, got[0], got[1], logs[1][max(0, len(logs[1])-8):])
			}
		}
	}
}

// TestDispatcherZeroAllocs: once warm, a job's life on the dispatcher —
// an early arrival, Open, a delivery into the open sink, CloseJob —
// allocates nothing: a closed key's state is reused.
func TestDispatcherZeroAllocs(t *testing.T) {
	d := NewDispatcher()
	sink, closed := func(mpx.Envelope) {}, func() {}
	job := 0
	life := func() {
		job = 1 + job%64
		key := JobKey(1, job)
		d.Deliver(mpx.Envelope{Message: mpx.Message{Tag: tagOf(key, 1)}})
		d.Open(key, sink, closed)
		d.Deliver(mpx.Envelope{Message: mpx.Message{Tag: tagOf(key, 2)}})
		d.CloseJob(key)
	}
	for range 256 {
		life()
	}
	if got := testing.AllocsPerRun(1000, life); got != 0 {
		t.Fatalf("%.2f allocations per job, want 0", got)
	}
}
