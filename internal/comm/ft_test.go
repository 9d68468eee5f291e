package comm

import (
	"bytes"
	"fmt"
	"strings"
	"sync"
	"testing"

	"repro/internal/cube"
	"repro/internal/fault"
	"repro/internal/mpx"
	"repro/internal/svc"
)

func TestBcastFTFaultFree(t *testing.T) {
	payload := []byte("redundant broadcast payload")
	for n := 1; n <= 4; n++ {
		err := Run(n, func(c *Comm) error {
			got, err := c.BcastFT(0, payload)
			if err != nil {
				return err
			}
			if !bytes.Equal(got, payload) {
				return fmt.Errorf("rank %d got %q", c.Rank(), got)
			}
			return nil
		})
		if err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
	}
}

// TestBcastFTExhaustiveSingleLink4Cube kills each of the 32 links of a
// 4-cube in turn and checks that every node still receives the exact
// payload: one dead link severs at most one of the four edge-disjoint
// ERSBTs, and the remaining three always cover the cube.
func TestBcastFTExhaustiveSingleLink4Cube(t *testing.T) {
	const n = 4
	c4 := cube.New(n)
	payload := []byte("every live node must still hear this")
	links := 0
	for _, e := range c4.DirectedEdges() {
		if e.From > e.To {
			continue
		}
		links++
		plan := fault.NewPlan(n).KillLink(e.From, e.To)
		delivered := make([][]byte, c4.Nodes())
		err := RunFaulty(n, plan.Injector(), func(c *Comm) error {
			got, err := c.BcastFT(0, payload)
			if err != nil {
				return err
			}
			delivered[c.Rank()] = got
			return nil
		})
		if err != nil {
			t.Fatalf("dead link %d-%d: %v", e.From, e.To, err)
		}
		for id, got := range delivered {
			if !bytes.Equal(got, payload) {
				t.Errorf("dead link %d-%d: node %d received %q", e.From, e.To, id, got)
			}
		}
	}
	if links != n<<(n-1) {
		t.Fatalf("covered %d links, want %d", links, n<<(n-1))
	}
}

// TestBcastFTToleratesNMinusOneDeadLinks severs n-1 of one node's n links;
// the surviving link carries exactly one tree's copy, which must suffice.
func TestBcastFTToleratesNMinusOneDeadLinks(t *testing.T) {
	const n = 3
	plan := fault.NewPlan(n).KillLink(7, 6).KillLink(7, 5) // only 7-3 survives
	payload := []byte("one tree left")
	err := RunFaulty(n, plan.Injector(), func(c *Comm) error {
		got, err := c.BcastFT(0, payload)
		if err != nil {
			return err
		}
		if !bytes.Equal(got, payload) {
			return fmt.Errorf("rank %d got %q", c.Rank(), got)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestBcastFTSurvivesCorruptingLink damages every message on one link;
// checksum verification rejects those copies and another tree's copy is
// accepted instead — corruption triggers retry-by-redundancy, not failure.
func TestBcastFTSurvivesCorruptingLink(t *testing.T) {
	const n = 3
	plan := fault.NewPlan(n).
		AddRule(fault.Rule{Link: cube.Edge{From: 0, To: 1}, Kind: fault.Corrupt, Nth: fault.EveryMessage}).
		AddRule(fault.Rule{Link: cube.Edge{From: 1, To: 0}, Kind: fault.Corrupt, Nth: fault.EveryMessage})
	payload := []byte("checksums catch the flip")
	err := RunFaulty(n, plan.Injector(), func(c *Comm) error {
		got, err := c.BcastFT(0, payload)
		if err != nil {
			return err
		}
		if !bytes.Equal(got, payload) {
			return fmt.Errorf("rank %d accepted corrupt payload %q", c.Rank(), got)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestProbeLivenessFaultFree(t *testing.T) {
	const n = 3
	err := Run(n, func(c *Comm) error {
		live, err := c.ProbeLiveness()
		if err != nil {
			return err
		}
		if live.LiveCount() != c.Size() {
			return fmt.Errorf("rank %d sees %d live nodes, want %d (%v)", c.Rank(), live.LiveCount(), c.Size(), live)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestProbeLivenessDetectsDeadNode(t *testing.T) {
	const n = 3
	dead := cube.NodeID(5)
	plan := fault.NewPlan(n).KillNode(dead)
	var mu sync.Mutex
	masks := map[cube.NodeID]fault.Liveness{}
	err := RunFaulty(n, plan.Injector(), func(c *Comm) error {
		live, err := c.ProbeLiveness()
		if err != nil {
			return err
		}
		mu.Lock()
		masks[c.Rank()] = live
		mu.Unlock()
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(masks) != 7 {
		t.Fatalf("%d ranks reported, want 7", len(masks))
	}
	for id, live := range masks {
		if live.Alive(dead) {
			t.Errorf("rank %d believes dead node %d alive", id, dead)
		}
		if live.LiveCount() != 7 {
			t.Errorf("rank %d sees %d live nodes, want 7 (%v)", id, live.LiveCount(), live)
		}
	}
}

func TestScatterFTFaultFreeMatchesScatter(t *testing.T) {
	const n = 3
	data := make([][]byte, 1<<n)
	for i := range data {
		data[i] = []byte{byte(i), byte(i * 3)}
	}
	err := Run(n, func(c *Comm) error {
		plain, err := c.Scatter(2, data)
		if err != nil {
			return err
		}
		ft, err := c.ScatterFT(2, data, fault.AllAlive(n))
		if err != nil {
			return err
		}
		if !bytes.Equal(plain, ft) {
			return fmt.Errorf("rank %d: ScatterFT %v != Scatter %v", c.Rank(), ft, plain)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestScatterFTAroundDeadNode removes a mid-tree node; every other rank
// still receives exactly its payload over the regrafted balanced tree.
func TestScatterFTAroundDeadNode(t *testing.T) {
	const n = 3
	root := cube.NodeID(0)
	dead := cube.NodeID(1) // a direct child of the BST root
	plan := fault.NewPlan(n).KillNode(dead)
	live := plan.Liveness()
	data := make([][]byte, 1<<n)
	for i := range data {
		data[i] = []byte(fmt.Sprintf("payload-%d", i))
	}
	var mu sync.Mutex
	got := map[cube.NodeID][]byte{}
	err := RunFaulty(n, plan.Injector(), func(c *Comm) error {
		mine, err := c.ScatterFT(root, data, live)
		if err != nil {
			return err
		}
		mu.Lock()
		got[c.Rank()] = mine
		mu.Unlock()
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 1<<n; i++ {
		id := cube.NodeID(i)
		if id == dead {
			if _, ran := got[id]; ran {
				t.Errorf("dead node %d ran", id)
			}
			continue
		}
		if !bytes.Equal(got[id], data[i]) {
			t.Errorf("rank %d received %q, want %q", id, got[id], data[i])
		}
	}
}

// TestStaleSequenceErrorDetail pins the corruption diagnostic (who sent
// it, which tag, which sequences) by planting an out-of-order message.
func TestStaleSequenceErrorDetail(t *testing.T) {
	c := &Comm{nd: &mpx.Node{ID: 3}, n: 3, seq: 2}
	c.cond = sync.NewCond(&c.mu)
	c.mailbox.advance(c.tagFor(0))
	staleTag := svc.Tag{Seq: 1, Sub: 5}.MustEncode() // one collective behind
	c.deliver(mpx.Envelope{Message: mpx.Message{Tag: staleTag}, From: 6})
	_, err := c.recvTag(c.tagFor(5))
	if err == nil {
		t.Fatal("stale collective message went undetected")
	}
	for _, want := range []string{"rank 6", fmt.Sprintf("%#x", staleTag), "sequence 1", "expected sequence 2"} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("error %q does not mention %q", err, want)
		}
	}
}
