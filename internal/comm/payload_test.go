package comm

import (
	"bytes"
	"strings"
	"testing"

	"repro/internal/cube"
	"repro/internal/fault"
	"repro/internal/mpx"
	"repro/internal/svc"
)

// randBytes materialises the first n bytes of seed's payload stream.
func randBytes(seed int64, n int) []byte {
	out := make([]byte, n)
	fill(out, seed, 0)
	return out
}

// FuzzPayloadWindow pins the generator's one contract — the stream is a
// pure function of (seed, offset) — and the checker's: payloadEqual is
// bytes.Equal against that stream, down to any single flipped bit.
func FuzzPayloadWindow(f *testing.F) {
	f.Add(int64(0), uint16(0), uint16(0))
	f.Add(int64(77), uint16(0), uint16(646))
	f.Add(int64(-1), uint16(3), uint16(5)) // inside one word
	f.Add(int64(1<<62), uint16(7), uint16(17))
	f.Add(int64(12345), uint16(646*15), uint16(646)) // rank 15's scatter slice
	f.Fuzz(func(t *testing.T, seed int64, off16, n16 uint16) {
		off, n := int(off16), int(n16)%700
		whole := randBytes(seed, off+n)
		win := make([]byte, n)
		fill(win, seed, off)
		if !bytes.Equal(win, whole[off:]) {
			t.Fatalf("fill(seed %d, off %d, n %d) is not that slice of the whole stream", seed, off, n)
		}
		if !payloadEqual(win, seed, off) {
			t.Fatalf("payloadEqual rejects fill's own bytes (seed %d, off %d, n %d)", seed, off, n)
		}
		// A window read at the wrong offset or seed is some other stream.
		if n >= 8 && (payloadEqual(win, seed, off+1) || payloadEqual(win, seed+1, off)) {
			t.Fatalf("payloadEqual accepts a shifted window (seed %d, off %d, n %d)", seed, off, n)
		}
		for bit := 0; bit < 8*n; bit++ {
			win[bit/8] ^= 1 << (bit % 8)
			if payloadEqual(win, seed, off) {
				t.Fatalf("payloadEqual misses bit %d flipped (seed %d, off %d, n %d)", bit, seed, off, n)
			}
			win[bit/8] ^= 1 << (bit % 8)
		}
	})
}

// TestPayloadEqualZeroAllocs: the check is free of the heap, so a
// non-root rank's share of a job allocates only what the collective does.
func TestPayloadEqualZeroAllocs(t *testing.T) {
	got := randBytes(9, 646)
	if a := testing.AllocsPerRun(100, func() {
		if !payloadEqual(got[3:], 9, 3) {
			t.Fatal("mismatch")
		}
	}); a != 0 {
		t.Fatalf("payloadEqual allocates %v times per call, want 0", a)
	}
}

// TestCorruptedJobPayloadFailsSelfCheck shows the self-check still
// bites: rank 3's outgoing links flip a byte of every delivered part, so
// a job rooted there (or an allreduce, which crosses every link) fails
// on a receiving rank with the payload-mismatch error, while a sibling
// tenant's jobs rooted at 0 — whose trees never leave rank 3 — complete.
func TestCorruptedJobPayloadFailsSelfCheck(t *testing.T) {
	const n = 2
	plan := fault.NewPlan(n)
	for _, to := range []cube.NodeID{1, 2} {
		plan.AddRule(fault.Rule{Link: cube.Edge{From: 3, To: to}, Kind: fault.Corrupt, Nth: fault.EveryMessage})
	}
	inj := plan.Injector()
	rt := svc.New(mpx.NewWithTransport(mpx.NewChanTransport(n, CollectiveDepth(n), inj), inj), svc.Options{})
	rt.Start()
	cl := &Cluster{rts: []*svc.Runtime{rt}}
	for kind := JobKind(0); kind < numJobKinds; kind++ {
		victim, err := cl.SubmitSpec(JobSpec{Tenant: 1, Kind: kind, Root: 3, Seed: 40 + int64(kind), Bytes: 301})
		if err != nil {
			t.Fatal(err)
		}
		sibKind := kind
		if kind == JobAllReduce {
			sibKind = JobBcast // an allreduce would cross rank 3's links itself
		}
		sibling, err := cl.SubmitSpec(JobSpec{Tenant: 2, Kind: sibKind, Root: 0, Seed: 50 + int64(kind), Bytes: 301})
		if err != nil {
			t.Fatal(err)
		}
		err = victim.Wait()
		if err == nil || !strings.Contains(err.Error(), "payload mismatch") {
			t.Errorf("%v over corrupting links: error %v, want a payload mismatch", kind, err)
		} else if strings.Contains(err.Error(), "rank 3:") {
			t.Errorf("%v: rank 3 receives nothing corrupted, yet it reported %v", kind, err)
		}
		if err := sibling.Wait(); err != nil {
			t.Errorf("sibling tenant's job beside a corrupted %v: %v", kind, err)
		}
	}
	if err := cl.Drain(); err == nil {
		t.Error("Drain did not surface the failed jobs")
	}
}
