package svc

import (
	"math/rand"
	"testing"
)

// decodeTag unpacks a raw tag with the extractors the runtime routes on.
func decodeTag(raw int) Tag {
	key := JobKeyOf(raw)
	return Tag{Tenant: KeyTenant(key), Job: KeyJob(key), Seq: StreamSeq(raw), Sub: StreamSub(raw)}
}

func TestTagRoundTrip(t *testing.T) {
	cases := []Tag{
		{},
		{Tenant: 1, Job: 2, Seq: 3, Sub: 4},
		{Tenant: MaxTenant, Job: MaxJob, Seq: maxSeq, Sub: maxSub},
		{Sub: maxSub},
		{Seq: maxSeq},
		{Job: MaxJob},
		{Tenant: MaxTenant},
	}
	for _, want := range cases {
		raw, err := want.Encode()
		if err != nil {
			t.Fatalf("Encode(%+v): %v", want, err)
		}
		if got := decodeTag(raw); got != want {
			t.Fatalf("decodeTag(Encode(%+v)) = %+v", want, got)
		}
	}
}

func TestTagRoundTripRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 10000; i++ {
		want := Tag{
			Tenant: rng.Intn(MaxTenant + 1),
			Job:    rng.Intn(MaxJob + 1),
			Seq:    rng.Intn(maxSeq + 1),
			Sub:    rng.Intn(maxSub + 1),
		}
		raw := want.MustEncode()
		if got := decodeTag(raw); got != want {
			t.Fatalf("round trip %+v -> %#x -> %+v", want, raw, got)
		}
		if JobKeyOf(raw) != JobKey(want.Tenant, want.Job) {
			t.Fatalf("JobKeyOf(%#x) = %d, want JobKey(%d,%d) = %d",
				raw, JobKeyOf(raw), want.Tenant, want.Job, JobKey(want.Tenant, want.Job))
		}
		if StreamSeq(raw) != want.Seq || StreamSub(raw) != want.Sub {
			t.Fatalf("stream fields of %#x: seq=%d sub=%d, want %d/%d",
				raw, StreamSeq(raw), StreamSub(raw), want.Seq, want.Sub)
		}
	}
}

func TestTagRangeValidation(t *testing.T) {
	bad := []Tag{
		{Tenant: -1}, {Tenant: MaxTenant + 1},
		{Job: -1}, {Job: MaxJob + 1},
		{Seq: -1}, {Seq: maxSeq + 1},
		{Sub: -1}, {Sub: maxSub + 1},
	}
	for _, tg := range bad {
		if _, err := tg.Encode(); err == nil {
			t.Fatalf("Encode(%+v): want range error, got nil", tg)
		}
	}
}

func TestMustEncodePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("MustEncode on out-of-range tag did not panic")
		}
	}()
	Tag{Sub: maxSub + 1}.MustEncode()
}

func TestStreamTagPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("StreamTag(maxSeq+1, 0) did not panic")
		}
	}()
	StreamTag(maxSeq+1, 0)
}

func TestBaseComposesWithStreamTag(t *testing.T) {
	base, err := Tag{Tenant: 7, Job: 42}.Encode()
	if err != nil {
		t.Fatal(err)
	}
	raw := base | StreamTag(9, 3)
	want := Tag{Tenant: 7, Job: 42, Seq: 9, Sub: 3}
	if got := decodeTag(raw); got != want {
		t.Fatalf("base|stream = %+v, want %+v", got, want)
	}
}

func TestLegacyLayoutCompatible(t *testing.T) {
	// The legacy communicator encoded seq<<16|sub with tenant = job = 0.
	// The structured layout must be bit-identical there, so old traffic
	// and standalone communicators share the tag space unchanged.
	raw := Tag{Seq: 5, Sub: 9}.MustEncode()
	if raw != 5<<16|9 {
		t.Fatalf("legacy tag (seq=5, sub=9) = %#x, want %#x", raw, 5<<16|9)
	}
	if JobKeyOf(raw) != 0 {
		t.Fatalf("legacy tag has job key %d, want 0", JobKeyOf(raw))
	}
}

func TestKeyHalves(t *testing.T) {
	key := JobKey(MaxTenant, MaxJob)
	if KeyTenant(key) != MaxTenant || KeyJob(key) != MaxJob {
		t.Fatalf("KeyTenant/KeyJob(%d) = %d/%d, want %d/%d",
			key, KeyTenant(key), KeyJob(key), MaxTenant, MaxJob)
	}
}
