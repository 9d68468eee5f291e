package comm

import (
	"errors"
	"runtime"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/cube"
	"repro/internal/mpx"
	"repro/internal/testleak"
)

// TestMalformedBundleFailsAtTheRelay sends rank 1 of a 4-cube — a relay
// with two children (3, then 5) in the BST rooted at 0, whose bundle is
// laid out [1 3 7 15 5] — one message that breaks the layout contract or
// the all-node tag rules, from a rank 0 that otherwise stays out of the
// collective. Rank 1 must fail the collective with an error naming the op,
// itself and the offending rank, having forwarded nothing; nobody panics,
// and everybody else stops when the run aborts.
func TestMalformedBundleFailsAtTheRelay(t *testing.T) {
	const (
		n     = 4
		relay = cube.NodeID(1)
	)
	data := make([][]byte, 1<<n)
	for i := range data {
		data[i] = []byte{byte(i)}
	}
	// good is what rank 1 should get down the tree rooted at 0.
	good := func() []mpx.Part { return bundle(nil, []cube.NodeID{1, 3, 7, 15, 5}, data) }
	bundles := []struct {
		name  string
		parts []mpx.Part
		want  string // after "<op> bundle at rank 1: "
	}{
		{"one part short", good()[:4], "ends after 4 of 5 parts, before the one for 5"},
		{"one part long", append(good(), mpx.Part{Dest: 9}), "part 5, for 9, is past the 5 of its subtree"},
		{"foreign dest", slices.Replace(good(), 2, 3, mpx.Part{Dest: 9}), "part 2 is for 9, want 7"},
		{"children's runs swapped", bundle(nil, []cube.NodeID{1, 5, 3, 7, 15}, data), "part 1 is for 5, want 3"},
		{"own part missing", good()[1:], "part 0 is for 3, want 1"},
	}
	type malformed struct {
		name string
		sub  int // subtag rank 0 sends under
		msgs [][]mpx.Part
		want string
	}
	scatter := func(c *Comm) error { _, err := c.Scatter(0, nil); return err }
	allToAll := func(c *Comm) error { _, err := c.AllToAll(data); return err }
	allGather := func(c *Comm) error { _, err := c.AllGather(data[c.Rank()]); return err }
	ops := []struct {
		name  string
		sub   int        // subtag of the tree rooted at 0
		valid []mpx.Part // what rank 0 would send rank 1
		call  func(c *Comm) error
	}{
		{"scatter", 0, good(), scatter},
		{"alltoall", 1, good(), allToAll},
		{"allgather", 1, good()[:1], allGather},
	}
	eachTransport(t, func(t *testing.T, run func(int, func(*Comm) error) error) {
		for _, op := range ops {
			var cases []malformed
			if op.name != "allgather" {
				for _, b := range bundles {
					cases = append(cases, malformed{b.name, op.sub, [][]mpx.Part{b.parts},
						op.name + " bundle at rank 1: " + b.want})
				}
			}
			if op.name != "scatter" {
				dup := "duplicate " + op.name + " payload from "
				cases = append(cases,
					malformed{"duplicate source", op.sub, [][]mpx.Part{op.valid, op.valid}, dup + "0"},
					malformed{"subtag 0", 0, [][]mpx.Part{op.valid}, dup + "-1"},
					malformed{"subtag N+1", 1<<n + 1, [][]mpx.Part{op.valid}, dup + "16"})
			}
			for _, tc := range cases {
				name := op.name + ": " + tc.name
				var relayErr error
				finished := make([]bool, 1<<n)
				done := make(chan error, 1)
				go func() {
					done <- run(n, func(c *Comm) error {
						if c.Rank() != 0 {
							err := op.call(c)
							if c.Rank() == relay {
								relayErr = err
							}
							finished[c.Rank()] = err == nil
							return err
						}
						for _, parts := range tc.msgs {
							c.send(relay, tc.sub, parts)
						}
						c.next()
						return c.Barrier() // parked until the relay's error aborts the run
					})
				}()
				select {
				case err := <-done:
					if err == nil {
						t.Fatalf("%s: the run succeeded", name)
					}
				case <-time.After(20 * time.Second):
					buf := make([]byte, 1<<20)
					t.Fatalf("%s: hung\n%s", name, buf[:runtime.Stack(buf, true)])
				}
				if relayErr == nil || !strings.Contains(relayErr.Error(), tc.want) {
					t.Fatalf("%s: rank %d failed with %v, want an error containing %q", name, relay, relayErr, tc.want)
				}
				// Rank 1's children in the tree rooted at 0 got nothing to
				// finish with, nor did anybody else — unless the offence was
				// a second message, after a first that was rightly forwarded.
				if r := slices.Index(finished, true); r >= 0 && len(tc.msgs) == 1 {
					t.Fatalf("%s: rank %d finished the collective", name, r)
				}
			}
		}
	})
}

// meshMallocs runs call on every rank of an in-process d-cube — warm-up
// rounds first — and returns the heap allocations per measured round
// across the whole mesh (the ranks share one heap). The barrier that
// closes the measured window is inside it, a few allocations per rank
// spread over all the rounds.
func meshMallocs(t *testing.T, d, rounds int, call func(c *Comm) error) float64 {
	t.Helper()
	return runMallocs(t, Run, (*Comm).Barrier, d, 3, rounds, call)
}

// runMallocs is meshMallocs on the mesh run builds — Run, or a loopback
// socket mesh whose read pumps and flushers share the heap too — after
// warm rounds, with the measured window opened and closed by step on
// every rank.
func runMallocs(t *testing.T, run func(int, func(*Comm) error) error, step func(*Comm) error, d, warm, rounds int, call func(c *Comm) error) float64 {
	t.Helper()
	var perRound float64
	err := run(d, func(c *Comm) error {
		var before, after runtime.MemStats
		for i := -warm; i < rounds; i++ {
			if i == 0 {
				if err := step(c); err != nil {
					return err
				}
				if c.Rank() == 0 {
					runtime.ReadMemStats(&before)
				}
			}
			if err := call(c); err != nil {
				return err
			}
		}
		if err := step(c); err != nil {
			return err
		}
		if c.Rank() == 0 {
			runtime.ReadMemStats(&after)
			perRound = float64(after.Mallocs-before.Mallocs) / float64(rounds)
		}
		// No rank shuts its endpoint down, and no peer's pump reads its
		// goodbye, before rank 0 has read.
		return step(c)
	})
	if err != nil {
		t.Fatal(err)
	}
	return perRound
}

// allocBudget fails the test if a warm call makes more than budget
// allocations across the ranks of an in-process 4-cube.
func allocBudget(t *testing.T, what string, budget float64, call func(c *Comm) error) {
	t.Helper()
	got := meshMallocs(t, 4, 100, call)
	if got > budget {
		t.Fatalf("%s makes %.1f allocations per 16-rank call, budget %.1f", what, got, budget)
	}
	t.Logf("%.1f allocations per 16-rank call", got)
}

// TestAllToAllAllocBudget: a warm AllToAll allocates nothing — its own
// tree's bundle and the result table are the communicator's, recycled
// (see allNode) — and nothing per envelope received or forwarded. The
// budget, N/4 per call, fails if a quarter of the ranks allocate one
// object per call; the bundle and the table were two per rank.
func TestAllToAllAllocBudget(t *testing.T) {
	mine := make([][]byte, 16)
	allocBudget(t, "AllToAll", 4, func(c *Comm) error {
		_, err := c.AllToAll(mine)
		return err
	})
}

// TestAllGatherAllocBudget: the same for AllGather, whose one-part own
// message was allocated once per child send and its table once per call.
func TestAllGatherAllocBudget(t *testing.T) {
	mine := make([][]byte, 16)
	for i := range mine {
		mine[i] = []byte{byte(i)}
	}
	allocBudget(t, "AllGather", 4, func(c *Comm) error {
		_, err := c.AllGather(mine[c.Rank()])
		return err
	})
}

// TestBarrierAllocBudget: a warm AllReduce allocates nothing on the way
// up or down the tree — the part each rank sends is recycled by call
// parity with its snapshot, the SBT children by the communicator — and
// a Barrier's empty result is nil. An allocation per send (30 per call)
// would be far over the budget.
func TestBarrierAllocBudget(t *testing.T) {
	allocBudget(t, "Barrier", 2, (*Comm).Barrier)
}

// TestScanAllocBudget: a warm Scan allocates only the prefix it returns,
// one per rank. Its snapshots ride the recycled parts and its operand
// copies the communicator's scratch; one rank allocating in each of its
// 4 steps would be over the budget of the 16 results and 2.
func TestScanAllocBudget(t *testing.T) {
	add := func(a, b []byte) []byte {
		for i := range a {
			a[i] += b[i]
		}
		return a
	}
	mine := make([][]byte, 16)
	for i := range mine {
		mine[i] = []byte{byte(i), 1, 2, 3}
	}
	allocBudget(t, "Scan", 16+2, func(c *Comm) error {
		_, err := c.Scan(mine[c.Rank()], add)
		return err
	})
}

// TestScatterRelayAllocBudget: the root cuts one bundle per Scatter and
// every relay forwards sub-slices of what it received, allocating
// nothing — the 4-cube's BST has 9 relays, so a budget below 9 per call
// fails if any one of them allocates per forward. A barrier after every
// call keeps the root, which never waits, from running ahead and growing
// its children's mailboxes; its own allocations are measured alone and
// taken off.
func TestScatterRelayAllocBudget(t *testing.T) {
	const d, N = 4, 1 << 4
	data := make([][]byte, N)
	for i := range data {
		data[i] = []byte{byte(i)}
	}
	barrier := meshMallocs(t, d, 200, (*Comm).Barrier)
	got := meshMallocs(t, d, 200, func(c *Comm) error {
		if _, err := c.Scatter(0, data); err != nil {
			return err
		}
		return c.Barrier()
	}) - barrier
	if budget := 5.0; got > budget {
		t.Fatalf("Scatter makes %.1f allocations per %d-rank call, budget %.0f (the root's bundle and slack)", got, N, budget)
	}
	t.Logf("%.1f allocations per %d-rank call (a barrier makes %.1f)", got, N, barrier)
}

// TestScatterSocketAllocBudget is TestScatterRelayAllocBudget on loopback
// sockets, with the spine row's 1 KiB per rank. Every bundle arrives in a
// receive record its read pump took from the endpoint's free list; the
// receiving rank copies its own part out into a buffer of its
// communicator's, and its next collective gives the record back, so once
// warm the root's bundle is the one allocation of a call. Reading each
// bundle into a fresh body with fresh part tables cost about 3
// allocations per receiving rank per call, 45 for this mesh. An endpoint
// makes as many records as its pumps and rank ever hold at once, and
// such peaks are rare: hence the long warm-up, and the slack of a record
// made now and then (1.00 per call in most runs, 1.01 in some). The
// ranks keep step on a barrier of the test's own, as the spine's
// workloads do: Barrier's own frames, about 90 allocations per call on
// sockets before every collective gave its frames back, would have to be
// taken off again, and how many of them share a batch frame varies from
// run to run by more than this budget.
func TestScatterSocketAllocBudget(t *testing.T) {
	testleak.Check(t)
	const d, N, size, warm, rounds = 4, 1 << 4, 1 << 10, 1000, 500
	data := make([][]byte, N)
	for i := range data {
		data[i] = landingPayload(size, i)
	}
	tcp := func(n int, program func(*Comm) error) error { return RunTCPWith(n, TCPRunOptions{}, program) }
	step := newLockstep(N)
	got := runMallocs(t, tcp, step.wait, d, warm, rounds, func(c *Comm) error {
		if _, err := c.Scatter(0, data); err != nil {
			step.abort()
			return err
		}
		return step.wait(c)
	})
	// The same budget holds under -race: the links' free lists lose
	// nothing to the race detector (1.00–1.01 per call over ten runs).
	if budget := 1.1; got > budget {
		t.Fatalf("Scatter makes %.2f allocations per %d-rank socket call, budget %.1f (the root's bundle and slack)", got, N, budget)
	}
	t.Logf("%.2f allocations per %d-rank socket call", got, N)
}

// lockstep is a cyclic barrier for the n ranks of one process that sends
// nothing: wait parks until all n have arrived; abort releases them all
// for good, with an error.
type lockstep struct {
	mu      sync.Mutex
	cond    sync.Cond
	n       int
	waiting int
	gen     int
	broken  bool
}

func newLockstep(n int) *lockstep {
	s := &lockstep{n: n}
	s.cond.L = &s.mu
	return s
}

func (s *lockstep) wait(*Comm) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	gen := s.gen
	if s.waiting++; s.waiting == s.n {
		s.waiting = 0
		s.gen++
		s.cond.Broadcast()
	}
	for gen == s.gen && !s.broken {
		s.cond.Wait()
	}
	if s.broken {
		return errors.New("lockstep: another rank failed")
	}
	return nil
}

func (s *lockstep) abort() {
	s.mu.Lock()
	s.broken = true
	s.cond.Broadcast()
	s.mu.Unlock()
}
