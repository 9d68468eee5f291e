package fault

import (
	"testing"

	"repro/internal/cube"
)

func TestPlanDeadNodesAndLinks(t *testing.T) {
	p := NewPlan(3).KillNode(5).KillLink(0, 1).KillDirectedLink(2, 6)
	if !p.NodeDead(5) || p.NodeDead(4) {
		t.Error("dead-node bookkeeping wrong")
	}
	if !p.LinkDead(0, 1) || !p.LinkDead(1, 0) {
		t.Error("KillLink must sever both directions")
	}
	if !p.LinkDead(2, 6) || p.LinkDead(6, 2) {
		t.Error("KillDirectedLink must sever one direction")
	}
	if got := p.DeadNodes(); len(got) != 1 || got[0] != 5 {
		t.Errorf("DeadNodes = %v", got)
	}
	if got := len(p.DeadLinks()); got != 3 {
		t.Errorf("%d dead directed links, want 3", got)
	}
	live := p.Liveness()
	if live.Alive(5) || !live.Alive(0) || live.LiveCount() != 7 {
		t.Errorf("liveness %v inconsistent with plan", live)
	}
}

func TestInjectorAppliesRulesToNthCrossing(t *testing.T) {
	link := cube.Edge{From: 0, To: 1}
	p := NewPlan(3).
		AddRule(Rule{Link: link, Kind: Drop, Nth: 1}).
		AddRule(Rule{Link: link, Kind: Corrupt, Nth: EveryMessage}).
		AddRule(Rule{Link: link, Kind: Duplicate, Nth: 0})
	inj := p.Injector()
	first := inj.OnSend(0, 1)
	if first.Drop || !first.Corrupt || !first.Duplicate {
		t.Errorf("crossing 0 outcome %+v", first)
	}
	second := inj.OnSend(0, 1)
	if !second.Drop || !second.Corrupt || second.Duplicate {
		t.Errorf("crossing 1 outcome %+v", second)
	}
	if out := inj.OnSend(1, 0); out != (Outcome{}) {
		t.Errorf("unruled link outcome %+v", out)
	}
	// A fresh injector restarts the crossing counters.
	if out := p.Injector().OnSend(0, 1); out.Drop {
		t.Error("fresh injector did not reset crossing counter")
	}
}

func TestScenarioBuildersAreDeterministic(t *testing.T) {
	a := RandomDeadLinks(4, 3, 42)
	b := RandomDeadLinks(4, 3, 42)
	if len(a.DeadLinks()) != 6 { // 3 undirected = 6 directed
		t.Fatalf("%d directed dead links, want 6", len(a.DeadLinks()))
	}
	for i, e := range a.DeadLinks() {
		if b.DeadLinks()[i] != e {
			t.Fatal("same seed produced different dead links")
		}
	}
	if c := RandomDeadLinks(4, 3, 43); len(c.DeadLinks()) == 6 {
		same := true
		for i, e := range c.DeadLinks() {
			if a.DeadLinks()[i] != e {
				same = false
			}
		}
		if same {
			t.Error("different seeds produced identical dead links")
		}
	}

	nodes := RandomDeadNodes(4, 5, 7, 0, 15)
	if got := len(nodes.DeadNodes()); got != 5 {
		t.Fatalf("%d dead nodes, want 5", got)
	}
	for _, id := range nodes.DeadNodes() {
		if id == 0 || id == 15 {
			t.Errorf("protected node %d was killed", id)
		}
	}

	if p := deadSourceNeighbor(4, 5, 2); !p.NodeDead(5 ^ 4) {
		t.Error("deadSourceNeighbor killed the wrong node")
	}

	msgs := randomMessageFaults(3, Corrupt, 4, 1)
	if msgs.ruleCount != 4 {
		t.Fatalf("%d rules, want 4", msgs.ruleCount)
	}
}

func TestScenarioPlanByKind(t *testing.T) {
	for _, kind := range []string{"none", "links", "nodes", "neighbor", "drop", "corrupt", "duplicate"} {
		if _, err := (Scenario{Kind: kind, Count: 2, Seed: 1}).Plan(4, 0); err != nil {
			t.Errorf("scenario %q: %v", kind, err)
		}
	}
	if _, err := (Scenario{Kind: "bogus"}).Plan(4, 0); err == nil {
		t.Error("bogus scenario accepted")
	}
}

func TestLivenessMask(t *testing.T) {
	for _, n := range []int{1, 3, 6, 7} {
		l := AllAlive(n)
		if l.LiveCount() != 1<<uint(n) {
			t.Fatalf("n=%d: AllAlive count %d", n, l.LiveCount())
		}
		l.Clear(1)
		if l.Alive(1) || l.LiveCount() != 1<<uint(n)-1 {
			t.Fatalf("n=%d: clear failed", n)
		}
		round, err := LivenessFromBytes(n, l.Bytes())
		if err != nil {
			t.Fatal(err)
		}
		if !round.Equal(l) {
			t.Fatalf("n=%d: bytes round-trip changed mask", n)
		}
		other := NoneAlive(n)
		other.Set(1)
		round.Merge(other)
		if !round.Equal(AllAlive(n)) {
			t.Fatalf("n=%d: merge did not restore full mask", n)
		}
	}
	if _, err := LivenessFromBytes(3, []byte{1, 2}); err == nil {
		t.Error("short liveness payload accepted")
	}
}
