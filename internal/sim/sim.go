// Package sim is a packet-switched discrete-event simulator of an
// iPSC-like Boolean-cube multiprocessor, the substitute substrate for the
// paper's Intel iPSC/d7 measurements (see DESIGN.md).
//
// A simulation executes a set of transmissions. Each transmission moves
// Elems elements across one directed cube link and costs
//
//	ceil(Elems / InternalPacket) * Tau  +  Elems * Tc
//
// of link time (the iPSC splits user messages into internal packets of at
// most 1 KB, paying one start-up per internal packet; InternalPacket = 0
// models an unbounded packet size, costing a single Tau). Transmissions
// carry explicit dependencies: a transmission may not start before every
// dependency has been fully delivered to its sending node — store-and-
// forward packet switching.
//
// Per-node concurrency is constrained by the paper's three port models:
//
//	OneSendOrRecv  — one communication action at a time per node
//	OneSendAndRecv — one send concurrent with one receive
//	AllPorts       — all log N ports concurrently (links still serialize)
//
// The Overlap parameter models the iPSC behaviour the paper observed in
// §5.2 ("the 20% overlap in communications actions"): a node's port
// resources are released after (1-Overlap) of a transmission's duration,
// while the link itself stays busy for the full duration.
//
// Scheduling is greedy and deterministic: whenever resources free up,
// dependency-ready transmissions start in priority order (per sending
// node, lowest priority first; ties across ports by priority then index).
// The paper's schedules are conflict-free by construction, so the greedy
// executor attains their analytic bounds; for ad-hoc schedules it is a
// faithful "what would the machine do" executor.
//
// The executor is an engine whose state is entirely flat and reusable:
// per-link ready min-heaps, one typed event heap, CSR dependency lists,
// epoch-stamped affected-node sets, and a flat per-link busy table (the
// Result's edge map is materialized once at the end). A warm engine runs
// a schedule with zero allocations in the steady-state event loop;
// multi-million-transmission schedules (Figure 5 at d = 10-12 with
// 16-byte packets) execute in seconds. The package-level Run draws
// engines from a pool and returns an independent Result.
package sim

import (
	"fmt"
	"math"
	"sync"

	"repro/internal/cube"
	"repro/internal/fault"
	"repro/internal/model"
)

// Config describes the simulated machine.
type Config struct {
	Dim            int             // cube dimension n
	Model          model.PortModel // per-node port constraint
	Tau            float64         // start-up time per (internal) packet
	Tc             float64         // transfer time per element
	Overlap        float64         // in [0,1): fraction of node-resource time released early
	InternalPacket float64         // max elements per internal packet; 0 = unlimited

	// Faults, when non-nil, applies the plan's structural faults to the
	// run: a transmission whose sender or receiver is dead or whose link
	// is severed is lost, and — store-and-forward — so is every
	// transmission depending on it, transitively. Lost transmissions keep
	// NaN start/finish times and are excluded from the makespan; message
	// rules (drop/duplicate/delay/corrupt) are a runtime phenomenon and
	// are modelled only by the executable substrate (internal/mpx).
	Faults *fault.Plan
}

// Xmit is one store-and-forward transmission over a directed cube link.
type Xmit struct {
	From, To cube.NodeID
	Elems    float64 // message size in elements; must be > 0
	Prio     int64   // per-sender order: lower starts first
	Deps     []int   // indices of transmissions that must be delivered to From first
}

// Result reports the outcome of a simulation run.
type Result struct {
	// Finish[i] is the delivery time of transmission i.
	Finish []float64
	// Start[i] is the time transmission i began occupying its link.
	Start []float64
	// Makespan is the latest delivery time.
	Makespan float64
	// LinkBusy maps each used directed edge to its total busy time; the
	// bandwidth bottleneck is its maximum.
	LinkBusy map[cube.Edge]float64
	// Steps is Makespan / (Tau + B*Tc) rounded when every transmission has
	// identical unit cost (single-packet analyses); otherwise 0.
	Steps int
	// Lost[i] reports that transmission i could not be delivered under the
	// configured fault plan (dead endpoint, dead link, or a lost
	// dependency); its Start and Finish are NaN. Nil on fault-free runs.
	Lost []bool
	// Delivered counts the transmissions that completed.
	Delivered int
}

// MaxLinkBusy returns the busiest link's total busy time and the edge.
func (r *Result) MaxLinkBusy() (cube.Edge, float64) {
	var best cube.Edge
	var max float64
	for e, b := range r.LinkBusy {
		if b > max {
			best, max = e, b
		}
	}
	return best, max
}

// cost returns the link occupancy time of a transmission.
func (c *Config) cost(elems float64) float64 {
	packets := 1.0
	if c.InternalPacket > 0 {
		packets = math.Ceil(elems / c.InternalPacket)
		if packets < 1 {
			packets = 1
		}
	}
	return packets*c.Tau + elems*c.Tc
}

// enginePool recycles engines (and so all their flat state) across
// package-level Run calls.
var enginePool = sync.Pool{New: func() any { return newEngine() }}

// Run executes the transmissions on the simulated machine. The returned
// Result is independent of any engine state.
func Run(cfg Config, xs []Xmit) (*Result, error) {
	e := enginePool.Get().(*engine)
	defer enginePool.Put(e)
	res, err := e.Run(cfg, xs)
	if err != nil {
		return nil, err
	}
	out := &Result{
		Finish:    append([]float64(nil), res.Finish...),
		Start:     append([]float64(nil), res.Start...),
		Makespan:  res.Makespan,
		LinkBusy:  make(map[cube.Edge]float64, len(res.LinkBusy)),
		Steps:     res.Steps,
		Delivered: res.Delivered,
	}
	for k, v := range res.LinkBusy {
		out.LinkBusy[k] = v
	}
	if res.Lost != nil {
		out.Lost = append([]bool(nil), res.Lost...)
	}
	return out, nil
}

// event kinds in the engine's single time-ordered heap.
const (
	evDeliver = iota // id = transmission index: delivery completes
	evRelease        // id = transmission index: its node resources release
)

type event struct {
	t    float64
	kind uint8
	id   int32
}

// engine executes transmission schedules, reusing all scratch state
// between runs: after the first run of a given size, the steady-state
// event loop performs no allocations. An engine is not safe for
// concurrent use; the Result returned by Run aliases engine-owned buffers
// and is valid only until the next Run on the same engine (the
// package-level Run copies it out).
type engine struct {
	cfg Config
	cb  *cube.Cube
	n   int
	xs  []Xmit

	// Per-transmission state (length == len(xs)).
	start, finish []float64
	lost          []bool
	depsLeft      []int32
	depHead       []int32 // CSR offsets into depList; length len(xs)+1
	depList       []int32 // dependents: depList[depHead[i]:depHead[i+1]] wait on i

	// Per-directed-link state (length N*n), indexed by linkIndex.
	ready    []xmitHeap
	linkFree []float64
	linkBusy []float64

	// Per-node state (length N). Resource semantics per port model:
	//   OneSendOrRecv:  chanFree — single shared resource
	//   OneSendAndRecv: sendFree / recvFree
	//   AllPorts:       unused
	chanFree, sendFree, recvFree []float64

	// Epoch-stamped affected-node set; a stamp equal to the current epoch
	// marks membership, so clearing is a counter increment.
	epoch    uint64
	affStamp []uint64
	affList  []cube.NodeID

	// Indexed min-heap of nodes with a startable candidate transmission,
	// keyed by candItem (unique (prio, idx) pairs, so the global minimum
	// is deterministic). candPos[v] is v's heap position, -1 when absent.
	candItem []readyItem
	candPort []int32
	candHeap []cube.NodeID
	candPos  []int32

	events eventHeap
	queue  []int32 // scratch for fault-loss propagation

	res         Result
	resLinkBusy map[cube.Edge]float64
}

// newEngine returns an empty engine; buffers are sized on first Run.
func newEngine() *engine {
	return &engine{resLinkBusy: map[cube.Edge]float64{}}
}

// linkIndex maps the directed edge (from, port) to a dense index.
func (e *engine) linkIndex(from cube.NodeID, port int) int {
	return int(from)*e.n + port
}

// Run executes the transmissions on the simulated machine. The returned
// Result aliases engine-owned buffers: it is valid until the next Run.
func (e *engine) Run(cfg Config, xs []Xmit) (*Result, error) {
	cb := e.cb
	if cb == nil || cb.Dim() != cfg.Dim {
		cb = cube.New(cfg.Dim)
	}
	if cfg.Overlap < 0 || cfg.Overlap >= 1 {
		return nil, fmt.Errorf("sim: overlap %f out of [0,1)", cfg.Overlap)
	}
	for i, x := range xs {
		if !cb.ValidEdge(cube.Edge{From: x.From, To: x.To}) {
			return nil, fmt.Errorf("sim: transmission %d uses non-edge %d->%d", i, x.From, x.To)
		}
		if x.Elems <= 0 {
			return nil, fmt.Errorf("sim: transmission %d has size %f", i, x.Elems)
		}
		for _, d := range x.Deps {
			if d < 0 || d >= len(xs) {
				return nil, fmt.Errorf("sim: transmission %d has bad dep %d", i, d)
			}
			if xs[d].To != x.From {
				return nil, fmt.Errorf("sim: transmission %d depends on %d, which delivers to %d not %d",
					i, d, xs[d].To, x.From)
			}
		}
	}

	e.cfg, e.cb, e.n, e.xs = cfg, cb, cfg.Dim, xs
	e.reset()
	e.buildDeps()
	e.markLost()
	for i := range xs {
		if e.depsLeft[i] == 0 && !e.lost[i] {
			x := &xs[i]
			li := e.linkIndex(x.From, cb.Port(x.From, x.To))
			e.ready[li].push(readyItem{prio: x.Prio, idx: i})
		}
	}
	e.loop()
	return e.finalize()
}

// reset resizes every buffer for the current run and clears carried-over
// state. Buffers only grow; a warm engine re-running the same shape of
// schedule allocates nothing.
func (e *engine) reset() {
	m := len(e.xs)
	N := e.cb.Nodes()
	L := N * e.n

	e.start = growF(e.start, m)
	e.finish = growF(e.finish, m)
	for i := range e.start {
		e.start[i] = math.NaN()
		e.finish[i] = math.NaN()
	}
	e.lost = growB(e.lost, m)
	e.depsLeft = grow32(e.depsLeft, m)
	clear(e.lost)

	if cap(e.ready) < L {
		old := e.ready
		e.ready = make([]xmitHeap, L)
		copy(e.ready, old) // keep the old heaps' capacity
	} else {
		e.ready = e.ready[:L]
	}
	for i := range e.ready {
		e.ready[i].h = e.ready[i].h[:0]
	}
	e.linkFree = growF(e.linkFree, L)
	e.linkBusy = growF(e.linkBusy, L)
	clear(e.linkFree)
	clear(e.linkBusy)

	e.chanFree = growF(e.chanFree, N)
	e.sendFree = growF(e.sendFree, N)
	e.recvFree = growF(e.recvFree, N)
	clear(e.chanFree)
	clear(e.sendFree)
	clear(e.recvFree)

	// Stamps survive across runs: the epoch counter never resets, so a
	// stale stamp can never equal a future epoch (fresh buffers start at
	// zero and epochs start at one).
	e.affStamp = growU(e.affStamp, N)
	e.candItem = growRI(e.candItem, N)
	e.candPort = grow32(e.candPort, N)
	if cap(e.candPos) < N {
		e.candPos = make([]int32, N)
		for i := range e.candPos {
			e.candPos[i] = -1
		}
	} else {
		e.candPos = e.candPos[:N]
	}
	e.candHeap = e.candHeap[:0]
	if cap(e.affList) < N {
		e.affList = make([]cube.NodeID, 0, N)
	}

	e.events.h = e.events.h[:0]
}

// buildDeps assembles the CSR dependents lists and dependency counters.
func (e *engine) buildDeps() {
	m := len(e.xs)
	if cap(e.depHead) < m+1 {
		e.depHead = make([]int32, m+1)
	} else {
		e.depHead = e.depHead[:m+1]
		clear(e.depHead)
	}
	total := 0
	for i := range e.xs {
		deps := e.xs[i].Deps
		e.depsLeft[i] = int32(len(deps))
		total += len(deps)
		for _, d := range deps {
			e.depHead[d+1]++
		}
	}
	for i := 0; i < m; i++ {
		e.depHead[i+1] += e.depHead[i]
	}
	e.depList = grow32(e.depList, total)
	// Fill using depHead itself as the write cursor, then restore the
	// offsets by shifting right — no separate cursor array.
	for i := range e.xs {
		for _, d := range e.xs[i].Deps {
			e.depList[e.depHead[d]] = int32(i)
			e.depHead[d]++
		}
	}
	// depHead[d] now points one past d's range end == old depHead[d+1];
	// restore by shifting right.
	for d := m; d > 0; d-- {
		e.depHead[d] = e.depHead[d-1]
	}
	e.depHead[0] = 0
}

// markLost seeds the lost set with structurally impossible transmissions
// (dead sender, receiver or link) and propagates loss forward through
// dependency edges — data that never reached a node cannot be forwarded
// by it.
func (e *engine) markLost() {
	p := e.cfg.Faults
	if p == nil {
		return
	}
	e.queue = e.queue[:0]
	for i := range e.xs {
		x := &e.xs[i]
		if p.NodeDead(x.From) || p.NodeDead(x.To) || p.LinkDead(x.From, x.To) {
			e.lost[i] = true
			e.queue = append(e.queue, int32(i))
		}
	}
	for k := 0; k < len(e.queue); k++ {
		i := e.queue[k]
		for _, d := range e.depList[e.depHead[i]:e.depHead[i+1]] {
			if !e.lost[d] {
				e.lost[d] = true
				e.queue = append(e.queue, d)
			}
		}
	}
}

// touch adds v to the current round's affected set.
func (e *engine) touch(v cube.NodeID) {
	if e.affStamp[v] != e.epoch {
		e.affStamp[v] = e.epoch
		e.affList = append(e.affList, v)
	}
}

// loop is the event loop: rounds of simultaneous (equal-time) deliveries
// and resource releases, each followed by a greedy start pass over the
// nodes the round affected.
func (e *engine) loop() {
	e.epoch++
	e.affList = e.affList[:0]
	for i := range e.xs {
		e.touch(e.xs[i].From)
	}
	e.attemptNodes(0)

	for e.events.len() > 0 {
		t := e.events.h[0].t
		e.epoch++
		e.affList = e.affList[:0]
		for e.events.len() > 0 && e.events.h[0].t == t {
			ev := e.events.pop()
			x := &e.xs[ev.id]
			if ev.kind == evDeliver {
				e.deliver(int(ev.id))
			} else {
				// Released nodes' own queues may proceed, and so may any
				// neighbor whose head transmission targets them.
				e.touch(x.From)
				e.touch(x.To)
				for j := 0; j < e.n; j++ {
					e.touch(e.cb.Neighbor(x.From, j))
					e.touch(e.cb.Neighbor(x.To, j))
				}
			}
		}
		e.attemptNodes(t)
	}
}

// deliver marks transmission i delivered; nodes whose queues may have new
// work join the affected set.
func (e *engine) deliver(i int) {
	for _, d := range e.depList[e.depHead[i]:e.depHead[i+1]] {
		e.depsLeft[d]--
		if e.depsLeft[d] == 0 && !e.lost[d] {
			dx := &e.xs[d]
			li := e.linkIndex(dx.From, e.cb.Port(dx.From, dx.To))
			e.ready[li].push(readyItem{prio: dx.Prio, idx: int(d)})
			e.touch(dx.From)
		}
	}
	// The link From->To freed: its queue may proceed.
	e.touch(e.xs[i].From)
}

// attemptNodes starts every transmission that can begin at time t from the
// affected nodes, in GLOBAL priority order: at each step the lowest-
// priority startable transmission over all affected nodes starts first.
// This matters under the one-port models — a child forwarding an old
// packet must beat the root injecting a newer one, exactly as the paper's
// cycle-numbered schedules prescribe. Within one instant resources only
// get busier, so candidates are recomputed just for the two endpoint
// nodes of each started transmission. (prio, idx) pairs are unique, so
// the global minimum — and hence the schedule — is deterministic.
func (e *engine) attemptNodes(t float64) {
	for _, v := range e.affList {
		e.updateCand(v, t)
	}
	for len(e.candHeap) > 0 {
		v := e.candHeap[0]
		item, port := e.candItem[v], e.candPort[v]
		// Revalidate: an earlier start in this instant may have consumed
		// the receiver or sender this candidate needs.
		x := &e.xs[item.idx]
		if !e.senderFree(v, t) || !e.receiverFree(x.To, t) ||
			e.linkFree[e.linkIndex(v, int(port))] > t {
			e.updateCand(v, t)
			continue
		}
		e.ready[e.linkIndex(v, int(port))].pop()
		e.startXmit(item.idx, int(port), t)
		e.updateCand(v, t)
		// Starting can only consume resources, never free them, so only
		// nodes already holding a candidate need refreshing — and only
		// the two endpoints changed.
		if x.To != v && e.candPos[x.To] >= 0 {
			e.updateCand(x.To, t)
		}
	}
}

// updateCand recomputes node v's best startable transmission and
// repositions v in (or removes it from) the candidate heap.
func (e *engine) updateCand(v cube.NodeID, t float64) {
	item, port, ok := e.bestCandidate(v, t)
	if ok {
		e.candItem[v], e.candPort[v] = item, int32(port)
		if e.candPos[v] < 0 {
			e.candHeap = append(e.candHeap, v)
			e.candPos[v] = int32(len(e.candHeap) - 1)
			e.candUp(int(e.candPos[v]))
		} else {
			i := int(e.candPos[v])
			e.candDown(i)
			e.candUp(int(e.candPos[v]))
		}
	} else if e.candPos[v] >= 0 {
		e.candRemove(int(e.candPos[v]))
	}
}

func (e *engine) candLess(a, b cube.NodeID) bool {
	return e.candItem[a].less(e.candItem[b])
}

func (e *engine) candUp(i int) {
	for i > 0 {
		p := (i - 1) / 2
		if !e.candLess(e.candHeap[i], e.candHeap[p]) {
			break
		}
		e.candSwap(i, p)
		i = p
	}
}

func (e *engine) candDown(i int) {
	n := len(e.candHeap)
	for {
		l, r := 2*i+1, 2*i+2
		m := i
		if l < n && e.candLess(e.candHeap[l], e.candHeap[m]) {
			m = l
		}
		if r < n && e.candLess(e.candHeap[r], e.candHeap[m]) {
			m = r
		}
		if m == i {
			return
		}
		e.candSwap(i, m)
		i = m
	}
}

func (e *engine) candSwap(i, j int) {
	e.candHeap[i], e.candHeap[j] = e.candHeap[j], e.candHeap[i]
	e.candPos[e.candHeap[i]] = int32(i)
	e.candPos[e.candHeap[j]] = int32(j)
}

func (e *engine) candRemove(i int) {
	n := len(e.candHeap) - 1
	v := e.candHeap[i]
	e.candPos[v] = -1
	if i != n {
		moved := e.candHeap[n]
		e.candHeap[i] = moved
		e.candPos[moved] = int32(i)
		e.candHeap = e.candHeap[:n]
		e.candDown(i)
		e.candUp(int(e.candPos[moved]))
	} else {
		e.candHeap = e.candHeap[:n]
	}
}

// bestCandidate returns the lowest-priority transmission node v could
// start at time t across its per-port ready queues, or ok == false.
func (e *engine) bestCandidate(v cube.NodeID, t float64) (readyItem, int, bool) {
	if !e.senderFree(v, t) {
		return readyItem{}, 0, false
	}
	bestPort := -1
	var best readyItem
	base := int(v) * e.n
	for p := 0; p < e.n; p++ {
		li := base + p
		h := &e.ready[li]
		if len(h.h) == 0 || e.linkFree[li] > t {
			continue
		}
		item := h.peek()
		if !e.receiverFree(e.xs[item.idx].To, t) {
			continue
		}
		if bestPort < 0 || item.less(best) {
			bestPort, best = p, item
		}
	}
	if bestPort < 0 {
		return readyItem{}, 0, false
	}
	return best, bestPort, true
}

func (e *engine) senderFree(v cube.NodeID, t float64) bool {
	switch e.cfg.Model {
	case model.OneSendOrRecv:
		return e.chanFree[v] <= t
	case model.OneSendAndRecv:
		return e.sendFree[v] <= t
	default:
		return true
	}
}

func (e *engine) receiverFree(v cube.NodeID, t float64) bool {
	switch e.cfg.Model {
	case model.OneSendOrRecv:
		return e.chanFree[v] <= t
	case model.OneSendAndRecv:
		return e.recvFree[v] <= t
	default:
		return true
	}
}

func (e *engine) startXmit(i, port int, t float64) {
	x := &e.xs[i]
	d := e.cfg.cost(x.Elems)
	e.start[i] = t
	fin := t + d
	e.finish[i] = fin
	li := e.linkIndex(x.From, port)
	e.linkFree[li] = fin
	e.linkBusy[li] += d
	e.events.push(event{t: fin, kind: evDeliver, id: int32(i)})
	if e.cfg.Model != model.AllPorts {
		rel := t + d*(1-e.cfg.Overlap)
		switch e.cfg.Model {
		case model.OneSendOrRecv:
			e.chanFree[x.From] = rel
			e.chanFree[x.To] = rel
		case model.OneSendAndRecv:
			e.sendFree[x.From] = rel
			e.recvFree[x.To] = rel
		}
		e.events.push(event{t: rel, kind: evRelease, id: int32(i)})
	}
}

// finalize assembles the engine-owned Result: makespan, delivered count,
// uniform-cost step count, and the per-edge busy map from the flat table.
func (e *engine) finalize() (*Result, error) {
	res := &e.res
	res.Finish = e.finish
	res.Start = e.start
	res.Makespan = 0
	res.Delivered = 0
	res.Steps = 0
	res.Lost = nil
	if e.cfg.Faults != nil {
		res.Lost = e.lost
	}
	var unit float64
	uniform, unitSet := true, false
	for i := range e.xs {
		if e.lost[i] {
			continue
		}
		if math.IsNaN(e.finish[i]) {
			return nil, fmt.Errorf("sim: transmission %d never started (circular or unsatisfiable deps)", i)
		}
		res.Delivered++
		if e.finish[i] > res.Makespan {
			res.Makespan = e.finish[i]
		}
		if c := e.cfg.cost(e.xs[i].Elems); !unitSet {
			unit, unitSet = c, true
		} else if c != unit {
			uniform = false
		}
	}
	if uniform && unitSet && unit > 0 {
		res.Steps = int(math.Round(res.Makespan / unit))
	}
	clear(e.resLinkBusy)
	for li, busy := range e.linkBusy {
		if busy == 0 {
			continue
		}
		from := cube.NodeID(li / e.n)
		e.resLinkBusy[cube.Edge{From: from, To: e.cb.Neighbor(from, li%e.n)}] = busy
	}
	res.LinkBusy = e.resLinkBusy
	return res, nil
}

// Buffer growth helpers: reslice when capacity suffices, reallocate
// otherwise. Contents are unspecified; callers clear what needs clearing.

func growF(s []float64, n int) []float64 {
	if cap(s) < n {
		return make([]float64, n)
	}
	return s[:n]
}

func grow32(s []int32, n int) []int32 {
	if cap(s) < n {
		return make([]int32, n)
	}
	return s[:n]
}

func growB(s []bool, n int) []bool {
	if cap(s) < n {
		return make([]bool, n)
	}
	return s[:n]
}

func growU(s []uint64, n int) []uint64 {
	if cap(s) < n {
		return make([]uint64, n)
	}
	return s[:n]
}

func growRI(s []readyItem, n int) []readyItem {
	if cap(s) < n {
		return make([]readyItem, n)
	}
	return s[:n]
}

// readyItem is a heap entry: a dependency-ready transmission.
type readyItem struct {
	prio int64
	idx  int
}

func (a readyItem) less(b readyItem) bool {
	if a.prio != b.prio {
		return a.prio < b.prio
	}
	return a.idx < b.idx
}

// xmitHeap is a binary min-heap of readyItems.
type xmitHeap struct {
	h []readyItem
}

func (q *xmitHeap) peek() readyItem { return q.h[0] }

func (q *xmitHeap) push(v readyItem) {
	q.h = append(q.h, v)
	i := len(q.h) - 1
	for i > 0 {
		p := (i - 1) / 2
		if !q.h[i].less(q.h[p]) {
			break
		}
		q.h[p], q.h[i] = q.h[i], q.h[p]
		i = p
	}
}

func (q *xmitHeap) pop() readyItem {
	v := q.h[0]
	n := len(q.h) - 1
	q.h[0] = q.h[n]
	q.h = q.h[:n]
	if n > 0 {
		q.siftDown(0)
	}
	return v
}

func (q *xmitHeap) siftDown(i int) {
	n := len(q.h)
	for {
		l, r := 2*i+1, 2*i+2
		m := i
		if l < n && q.h[l].less(q.h[m]) {
			m = l
		}
		if r < n && q.h[r].less(q.h[m]) {
			m = r
		}
		if m == i {
			return
		}
		q.h[i], q.h[m] = q.h[m], q.h[i]
		i = m
	}
}

// eventHeap is a binary min-heap of events ordered by time. Events with
// equal times form one simultaneous round; their pop order within the
// round is irrelevant (deliveries and releases only accumulate state for
// the round's start pass).
type eventHeap struct {
	h []event
}

func (t *eventHeap) len() int { return len(t.h) }

func (t *eventHeap) push(v event) {
	t.h = append(t.h, v)
	i := len(t.h) - 1
	for i > 0 {
		p := (i - 1) / 2
		if t.h[p].t <= t.h[i].t {
			break
		}
		t.h[p], t.h[i] = t.h[i], t.h[p]
		i = p
	}
}

func (t *eventHeap) pop() event {
	v := t.h[0]
	n := len(t.h) - 1
	t.h[0] = t.h[n]
	t.h = t.h[:n]
	if n > 0 {
		t.siftDown(0)
	}
	return v
}

func (t *eventHeap) siftDown(i int) {
	n := len(t.h)
	for {
		l, r := 2*i+1, 2*i+2
		m := i
		if l < n && t.h[l].t < t.h[m].t {
			m = l
		}
		if r < n && t.h[r].t < t.h[m].t {
			m = r
		}
		if m == i {
			return
		}
		t.h[i], t.h[m] = t.h[m], t.h[i]
		i = m
	}
}
