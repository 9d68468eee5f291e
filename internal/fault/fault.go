// Package fault models component failures of a Boolean-cube
// multicomputer: dead nodes, dead links, and per-link message faults
// (drop, duplicate, delay, corrupt). A Plan is a deterministic, seeded
// description of which faults exist; an Injector derived from it is
// consulted by the runtime (internal/mpx) on every send and by the
// discrete-event simulator (internal/sim) when scheduling transmissions.
//
// The paper's MSBT structure — n rotated, pairwise edge-disjoint spanning
// binomial trees — is precisely the redundancy needed to survive up to
// n-1 link faults: a broadcast replicated down all n ERSBTs reaches every
// node as long as one tree per node stays intact, and edge-disjointness
// guarantees that k < n dead links sever at most k of the n trees on any
// node's paths. Degraded-mode routing for personalized communication
// instead reroutes tree subtrees around faults (see Regraft in route.go).
package fault

import (
	"fmt"
	"math/rand"
	"sort"
	"sync/atomic"

	"repro/internal/cube"
)

// Kind enumerates per-link message fault behaviors.
type Kind int

const (
	// Drop loses the message silently.
	Drop Kind = iota
	// Duplicate delivers the message twice. A resilient socket link
	// (internal/transport) writes it once: it counts frames by their
	// place in the stream, so a second copy would be a second delivery.
	Duplicate
	// Corrupt flips payload bytes in flight (checksums still match the
	// original payload, so receivers can detect the damage).
	Corrupt
)

func (k Kind) String() string {
	switch k {
	case Drop:
		return "drop"
	case Duplicate:
		return "duplicate"
	case Corrupt:
		return "corrupt"
	}
	return fmt.Sprintf("Kind(%d)", int(k))
}

// Rule is one message fault on a directed link: the Nth message crossing
// Link suffers the fault (Nth counts from 0; Nth == EveryMessage matches
// every crossing).
type Rule struct {
	Link cube.Edge
	Kind Kind
	Nth  int
}

// EveryMessage as Rule.Nth makes the rule match every crossing.
const EveryMessage = -1

// Outcome is an Injector's verdict on one message about to cross a link.
// The zero value delivers the message untouched.
type Outcome struct {
	Drop      bool
	Duplicate bool
	Corrupt   bool
}

// IsZero reports whether the outcome delivers the message untouched, so
// transports can take their fault-free fast path without enumerating
// every field.
func (o Outcome) IsZero() bool { return o == Outcome{} }

// Injector is consulted by the message-passing runtime on every send. A
// nil Injector means a fault-free machine; implementations must be safe
// for concurrent use (one goroutine per node).
type Injector interface {
	// NodeDead reports whether the node is failed: its program never runs
	// and messages to or from it vanish.
	NodeDead(id cube.NodeID) bool
	// LinkDead reports whether the directed link from->to is severed.
	// Link failure is locally detectable at either endpoint, as on real
	// hardware (link-layer self test).
	LinkDead(from, to cube.NodeID) bool
	// OnSend decides the fate of one message crossing from->to. It is
	// called only for links that are not dead, between live nodes.
	OnSend(from, to cube.NodeID) Outcome
}

// Plan is a deterministic description of every fault in one experiment:
// dead nodes, dead links (both directions), and per-link message rules.
// Build one with NewPlan plus the Kill*/AddRule methods, or use a
// Scenario. The zero value is unusable.
type Plan struct {
	dim       int
	deadNode  []bool
	deadLink  map[cube.Edge]bool
	rules     map[cube.Edge][]Rule
	ruleCount int
}

// NewPlan returns an empty (fault-free) plan for an n-cube.
func NewPlan(n int) *Plan {
	c := cube.New(n) // validates n
	return &Plan{
		dim:      n,
		deadNode: make([]bool, c.Nodes()),
		deadLink: map[cube.Edge]bool{},
		rules:    map[cube.Edge][]Rule{},
	}
}

// KillNode marks a node failed.
func (p *Plan) KillNode(id cube.NodeID) *Plan {
	p.deadNode[id] = true
	return p
}

// KillLink severs the undirected link between a and b (both directions).
func (p *Plan) KillLink(a, b cube.NodeID) *Plan {
	p.deadLink[cube.Edge{From: a, To: b}] = true
	p.deadLink[cube.Edge{From: b, To: a}] = true
	return p
}

// AddRule attaches a message fault rule to its link.
func (p *Plan) AddRule(r Rule) *Plan {
	p.rules[r.Link] = append(p.rules[r.Link], r)
	p.ruleCount++
	return p
}

// RuleCount reports how many message rules the plan carries. Structural
// plans (only dead nodes/links) have zero; harnesses use this to decide
// whether delivery is exactly predictable from topology alone.
func (p *Plan) RuleCount() int { return p.ruleCount }

// NodeDead reports whether the plan marks the node failed.
func (p *Plan) NodeDead(id cube.NodeID) bool { return p.deadNode[id] }

// LinkDead reports whether the plan severs the directed link from->to.
func (p *Plan) LinkDead(from, to cube.NodeID) bool {
	return p.deadLink[cube.Edge{From: from, To: to}]
}

// DeadNodes returns the failed nodes in increasing order.
func (p *Plan) DeadNodes() []cube.NodeID {
	var out []cube.NodeID
	for i, d := range p.deadNode {
		if d {
			out = append(out, cube.NodeID(i))
		}
	}
	return out
}

// DeadLinks returns the severed directed edges in deterministic order.
func (p *Plan) DeadLinks() []cube.Edge {
	out := make([]cube.Edge, 0, len(p.deadLink))
	for e := range p.deadLink {
		out = append(out, e)
	}
	sort.Slice(out, func(a, b int) bool {
		if out[a].From != out[b].From {
			return out[a].From < out[b].From
		}
		return out[a].To < out[b].To
	})
	return out
}

// Liveness returns the node-liveness mask implied by the plan (dead nodes
// cleared, everything else alive).
func (p *Plan) Liveness() Liveness {
	l := AllAlive(p.dim)
	for i, d := range p.deadNode {
		if d {
			l.Clear(cube.NodeID(i))
		}
	}
	return l
}

func (p *Plan) String() string {
	return fmt.Sprintf("fault.Plan{n=%d dead nodes=%d dead links=%d rules=%d}",
		p.dim, len(p.DeadNodes()), len(p.deadLink)/2, p.ruleCount)
}

// Injector derives a runtime injector from the plan. Each call returns an
// independent injector with fresh per-link message counters.
func (p *Plan) Injector() Injector {
	inj := &planInjector{plan: p}
	if p.ruleCount > 0 {
		inj.crossings = map[cube.Edge]*int64{}
		for e := range p.rules {
			inj.crossings[e] = new(int64)
		}
	}
	return inj
}

// planInjector applies a Plan. The rules map is read-only after
// construction; per-link crossing counters are advanced atomically.
type planInjector struct {
	plan      *Plan
	crossings map[cube.Edge]*int64
}

func (inj *planInjector) NodeDead(id cube.NodeID) bool { return inj.plan.NodeDead(id) }

func (inj *planInjector) LinkDead(from, to cube.NodeID) bool {
	return inj.plan.LinkDead(from, to)
}

func (inj *planInjector) OnSend(from, to cube.NodeID) Outcome {
	if inj.crossings == nil {
		return Outcome{}
	}
	e := cube.Edge{From: from, To: to}
	ctr := inj.crossings[e]
	if ctr == nil {
		return Outcome{}
	}
	nth := int(atomic.AddInt64(ctr, 1)) - 1
	var out Outcome
	for _, r := range inj.plan.rules[e] {
		if r.Nth != EveryMessage && r.Nth != nth {
			continue
		}
		switch r.Kind {
		case Drop:
			out.Drop = true
		case Duplicate:
			out.Duplicate = true
		case Corrupt:
			out.Corrupt = true
		}
	}
	return out
}

// Scenario is a named, parameterized fault plan for experiment harnesses
// and CLI flags: Kind selects the builder, Count its magnitude, Seed the
// deterministic randomness.
//
//	links     — Count random dead (undirected) links
//	nodes     — Count random dead nodes, never the protected node
//	neighbor  — the protected node's port-0 neighbor dies
//	drop      — Count links drop every message
//	corrupt   — Count links corrupt every message
//	duplicate — Count links duplicate every message
//	none      — fault-free plan
type Scenario struct {
	Kind  string
	Count int
	Seed  int64
}

// Plan materializes the scenario on an n-cube. protect (typically the
// broadcast source) is never killed by the node scenarios.
func (s Scenario) Plan(n int, protect cube.NodeID) (*Plan, error) {
	switch s.Kind {
	case "", "none":
		return NewPlan(n), nil
	case "links":
		return RandomDeadLinks(n, s.Count, s.Seed), nil
	case "nodes":
		return RandomDeadNodes(n, s.Count, s.Seed, protect), nil
	case "neighbor":
		return deadSourceNeighbor(n, protect, 0), nil
	case "drop":
		return randomMessageFaults(n, Drop, s.Count, s.Seed), nil
	case "corrupt":
		return randomMessageFaults(n, Corrupt, s.Count, s.Seed), nil
	case "duplicate":
		return randomMessageFaults(n, Duplicate, s.Count, s.Seed), nil
	}
	return nil, fmt.Errorf("fault: unknown scenario kind %q (want links|nodes|neighbor|drop|corrupt|duplicate|none)", s.Kind)
}

// RandomDeadLinks returns a plan with k distinct random undirected dead
// links, chosen deterministically from the seed.
func RandomDeadLinks(n, k int, seed int64) *Plan {
	p := NewPlan(n)
	c := cube.New(n)
	links := undirectedLinks(c)
	rng := rand.New(rand.NewSource(seed))
	rng.Shuffle(len(links), func(i, j int) { links[i], links[j] = links[j], links[i] })
	if k > len(links) {
		k = len(links)
	}
	for _, e := range links[:k] {
		p.KillLink(e.From, e.To)
	}
	return p
}

// RandomDeadNodes returns a plan with k distinct random dead nodes, never
// killing any of the protected nodes.
func RandomDeadNodes(n, k int, seed int64, protect ...cube.NodeID) *Plan {
	p := NewPlan(n)
	c := cube.New(n)
	prot := map[cube.NodeID]bool{}
	for _, id := range protect {
		prot[id] = true
	}
	ids := make([]cube.NodeID, 0, c.Nodes())
	for i := 0; i < c.Nodes(); i++ {
		if !prot[cube.NodeID(i)] {
			ids = append(ids, cube.NodeID(i))
		}
	}
	rng := rand.New(rand.NewSource(seed))
	rng.Shuffle(len(ids), func(i, j int) { ids[i], ids[j] = ids[j], ids[i] })
	if k > len(ids) {
		k = len(ids)
	}
	for _, id := range ids[:k] {
		p.KillNode(id)
	}
	return p
}

// deadSourceNeighbor returns a plan where the neighbor of src across the
// given port is dead — the scenario that forces every structure rooted at
// src to route around a failed first hop.
func deadSourceNeighbor(n int, src cube.NodeID, port int) *Plan {
	c := cube.New(n)
	return NewPlan(n).KillNode(c.Neighbor(src, port))
}

// randomMessageFaults returns a plan where k random directed links apply
// the given fault kind to every crossing message.
func randomMessageFaults(n int, kind Kind, k int, seed int64) *Plan {
	p := NewPlan(n)
	c := cube.New(n)
	edges := c.DirectedEdges()
	rng := rand.New(rand.NewSource(seed))
	rng.Shuffle(len(edges), func(i, j int) { edges[i], edges[j] = edges[j], edges[i] })
	if k > len(edges) {
		k = len(edges)
	}
	for _, e := range edges[:k] {
		p.AddRule(Rule{Link: e, Kind: kind, Nth: EveryMessage})
	}
	return p
}

// undirectedLinks returns one representative (From < To) per cube link.
func undirectedLinks(c *cube.Cube) []cube.Edge {
	out := make([]cube.Edge, 0, c.Links())
	for _, e := range c.DirectedEdges() {
		if e.From < e.To {
			out = append(out, e)
		}
	}
	return out
}

// Liveness is a node-liveness bitmask over the cube: bit i set means node
// i is believed alive. It is the unit of knowledge exchanged by the
// heartbeat round in internal/comm and the input to degraded-mode routing.
type Liveness struct {
	n    int
	bits []uint64
}

func livenessWords(n int) int { return ((1 << uint(n)) + 63) / 64 }

// AllAlive returns a mask with every node of the n-cube alive.
func AllAlive(n int) Liveness {
	l := NoneAlive(n)
	nodes := 1 << uint(n)
	for w := range l.bits {
		l.bits[w] = ^uint64(0)
	}
	// Clear padding above 2^n so LiveCount stays exact.
	if rem := nodes % 64; rem != 0 {
		l.bits[len(l.bits)-1] = (uint64(1) << uint(rem)) - 1
	}
	return l
}

// NoneAlive returns a mask with every node dead — the start state of a
// heartbeat probe, before any node has proven itself.
func NoneAlive(n int) Liveness {
	return Liveness{n: n, bits: make([]uint64, livenessWords(n))}
}

// Dim returns the cube dimension of the mask.
func (l Liveness) Dim() int { return l.n }

// Alive reports whether node id is marked alive.
func (l Liveness) Alive(id cube.NodeID) bool {
	return l.bits[id/64]&(1<<(uint(id)%64)) != 0
}

// Set marks node id alive.
func (l Liveness) Set(id cube.NodeID) { l.bits[id/64] |= 1 << (uint(id) % 64) }

// Clear marks node id dead.
func (l Liveness) Clear(id cube.NodeID) { l.bits[id/64] &^= 1 << (uint(id) % 64) }

// Merge ORs other into l: a node alive in either is alive in l.
func (l Liveness) Merge(other Liveness) {
	for w := range l.bits {
		l.bits[w] |= other.bits[w]
	}
}

// Clone returns an independent copy.
func (l Liveness) Clone() Liveness {
	c := Liveness{n: l.n, bits: make([]uint64, len(l.bits))}
	copy(c.bits, l.bits)
	return c
}

// LiveCount returns the number of nodes marked alive.
func (l Liveness) LiveCount() int {
	total := 0
	for _, w := range l.bits {
		for ; w != 0; w &= w - 1 {
			total++
		}
	}
	return total
}

// Bytes serializes the mask (little-endian words) for heartbeat payloads.
func (l Liveness) Bytes() []byte {
	out := make([]byte, 8*len(l.bits))
	for w, v := range l.bits {
		for b := 0; b < 8; b++ {
			out[8*w+b] = byte(v >> (8 * uint(b)))
		}
	}
	return out
}

// LivenessFromBytes rebuilds an n-cube mask from Bytes output.
func LivenessFromBytes(n int, data []byte) (Liveness, error) {
	l := NoneAlive(n)
	if len(data) != 8*len(l.bits) {
		return l, fmt.Errorf("fault: liveness payload is %d bytes, want %d", len(data), 8*len(l.bits))
	}
	for w := range l.bits {
		var v uint64
		for b := 0; b < 8; b++ {
			v |= uint64(data[8*w+b]) << (8 * uint(b))
		}
		l.bits[w] = v
	}
	return l, nil
}
