package comm

import (
	"runtime"
	"slices"
	"strings"
	"testing"
	"time"

	"repro/internal/cube"
	"repro/internal/mpx"
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
	good := func() []mpx.Part { return bundle([]cube.NodeID{1, 3, 7, 15, 5}, data) }
	bundles := []struct {
		name  string
		parts []mpx.Part
		want  string // after "<op> bundle at rank 1: "
	}{
		{"one part short", good()[:4], "ends after 4 of 5 parts, before the one for 5"},
		{"one part long", append(good(), mpx.Part{Dest: 9}), "part 5, for 9, is past the 5 of its subtree"},
		{"foreign dest", slices.Replace(good(), 2, 3, mpx.Part{Dest: 9}), "part 2 is for 9, want 7"},
		{"children's runs swapped", bundle([]cube.NodeID{1, 5, 3, 7, 15}, data), "part 1 is for 5, want 3"},
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
	var perRound float64
	err := Run(d, func(c *Comm) error {
		var before, after runtime.MemStats
		for i := -3; i < rounds; i++ {
			if i == 0 {
				if err := c.Barrier(); err != nil {
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
		if err := c.Barrier(); err != nil {
			return err
		}
		if c.Rank() == 0 {
			runtime.ReadMemStats(&after)
			perRound = float64(after.Mallocs-before.Mallocs) / float64(rounds)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return perRound
}

// TestAllToAllAllocBudget: a warm AllToAll allocates its result slice and
// its own tree's bundle — two objects per rank per call — and nothing per
// envelope received or forwarded. One allocation per arriving bundle
// (what re-bucketing cost) would be N−1 more per rank.
func TestAllToAllAllocBudget(t *testing.T) {
	const d, N = 4, 1 << 4
	mine := make([][]byte, N)
	got := meshMallocs(t, d, 100, func(c *Comm) error {
		_, err := c.AllToAll(mine)
		return err
	})
	if budget := 3.0 * N; got > budget {
		t.Fatalf("AllToAll makes %.1f allocations per %d-rank call, budget %.0f (2 per rank and slack)", got, N, budget)
	}
	t.Logf("%.1f allocations per %d-rank call", got, N)
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
