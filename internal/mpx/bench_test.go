package mpx

import (
	"testing"

	"repro/internal/fault"
)

// pingProgram bounces count messages between nodes 0 and 1 of a 1-cube.
func pingProgram(count int) func(nd *Node) error {
	return func(nd *Node) error {
		if nd.ID == 0 {
			for i := 0; i < count; i++ {
				nd.Send(0, Message{Tag: i})
				nd.Recv()
			}
			return nil
		}
		for i := 0; i < count; i++ {
			nd.Recv()
			nd.Send(0, Message{Tag: i})
		}
		return nil
	}
}

// TestFaultFreeSendPathAddsNoAllocations is the hot-path guard: a machine
// built without an injector must allocate exactly as little per send as
// the pre-fault-subsystem runtime did — zero per Send/Recv pair (the
// round-trip cost is the goroutine setup of Run, not the sends). A
// regression here means the nil-injector check grew an allocation.
func TestFaultFreeSendPathAddsNoAllocations(t *testing.T) {
	const rounds = 64
	perRun := testing.AllocsPerRun(10, func() {
		m := New(1, 1)
		if err := m.Run(pingProgram(rounds)); err != nil {
			t.Fatal(err)
		}
	})
	// Run itself allocates (machine, channels, goroutines) a fixed amount
	// independent of rounds; give it a generous fixed budget. What must
	// NOT happen is an extra allocation per send, which would add ~4*rounds.
	const fixedBudget = 40
	if perRun > fixedBudget {
		t.Errorf("fault-free machine allocates %.0f per run (budget %d): the send path is allocating per message", perRun, fixedBudget)
	}

	// The same program on an injector-equipped (but fault-free-plan)
	// machine may pay for the injector consult, but a nil injector must
	// cost the same as the seed runtime: compare nil-injector runs against
	// the explicit New to pin the equivalence.
	perRunNil := testing.AllocsPerRun(10, func() {
		m := NewWithInjector(1, 1, nil)
		if err := m.Run(pingProgram(rounds)); err != nil {
			t.Fatal(err)
		}
	})
	if perRunNil != perRun {
		t.Errorf("NewWithInjector(nil) allocates %.0f per run, New allocates %.0f — nil hooks must be free", perRunNil, perRun)
	}
}

// BenchmarkSendRecv measures the fault-free hot path: one message bounced
// between two nodes, no injector.
func BenchmarkSendRecv(b *testing.B) {
	b.ReportAllocs()
	m := New(1, 1)
	if err := m.Run(benchLoop(b)); err != nil {
		b.Fatal(err)
	}
}

// BenchmarkSendRecvNilInjector is the same loop on a machine constructed
// through the injector path with a nil injector — the diff against
// BenchmarkSendRecv is the true cost of the fault hooks when disabled.
func BenchmarkSendRecvNilInjector(b *testing.B) {
	b.ReportAllocs()
	m := NewWithInjector(1, 1, nil)
	if err := m.Run(benchLoop(b)); err != nil {
		b.Fatal(err)
	}
}

// BenchmarkSendRecvEmptyPlanInjector measures the enabled-but-idle fault
// path: an injector from an empty plan (no faults) on every send.
func BenchmarkSendRecvEmptyPlanInjector(b *testing.B) {
	b.ReportAllocs()
	m := NewWithInjector(1, 1, fault.NewPlan(1).Injector())
	if err := m.Run(benchLoop(b)); err != nil {
		b.Fatal(err)
	}
}

func benchLoop(b *testing.B) func(nd *Node) error {
	return func(nd *Node) error {
		msg := Message{Parts: []Part{{Dest: 1, Data: []byte("x")}}}
		if nd.ID == 0 {
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				nd.Send(0, msg)
				nd.Recv()
			}
			return nil
		}
		for i := 0; i < b.N; i++ {
			nd.Recv()
			nd.Send(0, msg)
		}
		return nil
	}
}

// TestSendRecvZeroAllocsSteadyState pins the fault-free hot path at
// exactly zero allocations per Send/Recv pair on a warmed machine. The
// measuring node runs AllocsPerRun inside its program (allocation counts
// are process-wide, so the peer's matching Recv/Send is included — it
// must be free too).
func TestSendRecvZeroAllocsSteadyState(t *testing.T) {
	if testing.Short() {
		t.Skip("alloc guard skipped in -short mode")
	}
	const runs = 100
	m := New(1, 1)
	var perPair float64
	err := m.Run(func(nd *Node) error {
		msg := Message{Parts: []Part{{Dest: 1, Data: []byte("x")}}}
		if nd.ID == 0 {
			// Warm both directions before measuring.
			nd.Send(0, msg)
			nd.Recv()
			perPair = testing.AllocsPerRun(runs, func() {
				nd.Send(0, msg)
				nd.Recv()
			})
			return nil
		}
		// AllocsPerRun invokes its function runs+1 times (one warm-up),
		// plus our explicit warm-up round above.
		for i := 0; i < runs+2; i++ {
			nd.Recv()
			nd.Send(0, msg)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if perPair != 0 {
		t.Errorf("warm Send/Recv pair allocates %.1f, want 0", perPair)
	}

	// The attached path: Send runs the consumer's sink itself.
	tr := NewChanTransport(1, 1, nil)
	defer tr.Close()
	delivered := 0
	tr.Attach(1, Consumer{Sink: func(Envelope) { delivered++ }, Closed: func() {}})
	msg := Message{Parts: []Part{{Dest: 1, Data: []byte("x")}}}
	perSend := testing.AllocsPerRun(runs, func() {
		if err := tr.Send(0, 0, msg); err != nil {
			t.Fatal(err)
		}
	})
	if perSend != 0 || delivered != runs+1 {
		t.Errorf("Send into an attached sink allocates %.1f (want 0) and delivered %d of %d", perSend, delivered, runs+1)
	}
}
