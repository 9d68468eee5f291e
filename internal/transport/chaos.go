package transport

import (
	"math/rand"
	"sync"
	"sync/atomic"
	"time"
)

// ChaosKind names one class of live-connection fault the chaos agent
// can inject.
type ChaosKind string

const (
	// ChaosKill closes one live socket. A resilient link heals it
	// (reconnect + replay); a plain link escalates to a fatal PeerError.
	ChaosKill ChaosKind = "kill"
	// ChaosFlap kills the same link repeatedly for the hold window —
	// each heal is immediately severed again.
	ChaosFlap ChaosKind = "flap"
	// ChaosDelay stalls every flush on one link for the hold window (a
	// slow link, not a dead one).
	ChaosDelay ChaosKind = "delay"
)

// ChaosOptions configures a chaos agent.
type ChaosOptions struct {
	// Seed makes the schedule (pauses, kinds, victims) reproducible.
	Seed int64
	// Kinds is the fault mix; empty means {kill, flap}.
	Kinds []ChaosKind
	// MinPause/MaxPause bound the idle time between events.
	// 0 means 30ms / 150ms.
	MinPause, MaxPause time.Duration
	// Hold is how long flap and delay faults persist. 0 means
	// 120ms. Keep it well under the resilience budget: a flap held past
	// the budget escalates by design.
	Hold time.Duration
	// Events, when > 0, stops the agent after that many injected events.
	Events int
	// Log, when non-nil, receives one line per injected event.
	Log func(format string, args ...any)
}

// Chaos is a transport-level fault agent: it severs, flaps, delays and
// partitions the transport's live connections on a seeded schedule,
// exercising the self-healing path (or, on a plain transport, the fatal
// escalation path) from outside the protocol. Start one per endpoint
// after Connect; Stop it before asserting final state.
type Chaos struct {
	t        *TCP
	stop     chan struct{}
	stopOnce sync.Once
	done     chan struct{}
	events   atomic.Int64
	severed  atomic.Int64
}

// StartChaos launches a chaos agent against this transport's remote
// links. Call after Connect (links must exist). The agent stops on its
// own when the transport shuts down, when opts.Events is reached, or
// when Stop is called.
func (t *TCP) StartChaos(opts ChaosOptions) *Chaos {
	if len(opts.Kinds) == 0 {
		opts.Kinds = []ChaosKind{ChaosKill, ChaosFlap}
	}
	if opts.MinPause <= 0 {
		opts.MinPause = 30 * time.Millisecond
	}
	if opts.MaxPause < opts.MinPause {
		opts.MaxPause = 150 * time.Millisecond
		if opts.MaxPause < opts.MinPause {
			opts.MaxPause = opts.MinPause
		}
	}
	if opts.Hold <= 0 {
		opts.Hold = 120 * time.Millisecond
	}
	if opts.Log == nil {
		opts.Log = func(string, ...any) {}
	}
	c := &Chaos{t: t, stop: make(chan struct{}), done: make(chan struct{})}
	go c.run(opts, t.allLinks())
	return c
}

// Stop halts the agent and waits for it to finish; any in-progress hold
// is released. Idempotent.
func (c *Chaos) Stop() {
	c.stopOnce.Do(func() { close(c.stop) })
	<-c.done
}

// Events reports how many faults the agent injected.
func (c *Chaos) Events() int64 { return c.events.Load() }

// Severed reports how many live sockets the agent actually closed
// (kills, plus each closure within a flap).
func (c *Chaos) Severed() int64 { return c.severed.Load() }

func (c *Chaos) run(opts ChaosOptions, links []*link) {
	defer close(c.done)
	if len(links) == 0 {
		return
	}
	rng := rand.New(rand.NewSource(opts.Seed))
	for {
		if opts.Events > 0 && c.events.Load() >= int64(opts.Events) {
			return
		}
		pause := opts.MinPause
		if d := opts.MaxPause - opts.MinPause; d > 0 {
			pause += time.Duration(rng.Int63n(int64(d) + 1))
		}
		if !c.sleep(pause) {
			return
		}
		kind := opts.Kinds[rng.Intn(len(opts.Kinds))]
		l := links[rng.Intn(len(links))]
		switch kind {
		case ChaosKill:
			if c.sever(l) {
				c.events.Add(1)
				opts.Log("chaos: kill link %d<->%d", l.self, l.peer)
			}
		case ChaosFlap:
			n := 0
			deadline := time.Now().Add(opts.Hold)
			for time.Now().Before(deadline) {
				if c.sever(l) {
					n++
				}
				if !c.sleep(opts.Hold / 4) {
					return
				}
			}
			if n > 0 {
				c.events.Add(1)
				opts.Log("chaos: flap link %d<->%d (%d severs over %v)", l.self, l.peer, n, opts.Hold)
			}
		case ChaosDelay:
			l.chaosDelay.Store(int64(opts.Hold / 8))
			c.events.Add(1)
			opts.Log("chaos: delay link %d<->%d by %v for %v", l.self, l.peer, opts.Hold/8, opts.Hold)
			ok := c.sleep(opts.Hold)
			l.chaosDelay.Store(0)
			if !ok {
				return
			}
		}
	}
}

// sleep pauses for d, returning false if the agent should stop.
func (c *Chaos) sleep(d time.Duration) bool {
	if d <= 0 {
		d = time.Millisecond
	}
	timer := time.NewTimer(d)
	defer timer.Stop()
	select {
	case <-c.stop:
		return false
	case <-c.t.down:
		return false
	case <-timer.C:
		return true
	}
}

// sever closes l's live socket from outside the protocol, exactly like
// a dropped connection: pumps observe the error and either heal
// (resilient) or escalate (plain). Reports whether a live, healthy
// socket was actually closed.
func (c *Chaos) sever(l *link) bool {
	l.mu.Lock()
	conn := l.conn
	ok := conn != nil && l.err == nil && (l.r == nil || l.r.connected)
	l.mu.Unlock()
	if !ok {
		return false
	}
	conn.Close()
	c.severed.Add(1)
	l.t.severed.Add(1)
	return true
}
