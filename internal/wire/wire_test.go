package wire

import (
	"bytes"
	"errors"
	"io"
	"math/rand"
	"testing"

	"repro/internal/cube"
	"repro/internal/mpx"
)

// sampleMessages covers the shapes the runtime actually sends: empty
// control messages, single-part broadcasts, multi-part scatter bundles
// with offsets and checksums, and empty payloads.
func sampleMessages() []mpx.Message {
	return []mpx.Message{
		{},
		{Tag: 7},
		{Tag: 3, Parts: []mpx.Part{{Dest: 5, Data: []byte("hello")}}},
		{Tag: 0x7FFF0001, Parts: []mpx.Part{
			{Dest: 0, Offset: 0, Data: bytes.Repeat([]byte{0xAB}, 300), Sum: 0xDEADBEEF},
			{Dest: 1023, Offset: 4096, Data: nil, Sum: 1},
			{Dest: 2, Offset: 12, Data: []byte{0}},
		}},
		{Tag: -4, Parts: []mpx.Part{{Dest: 1, Offset: -8, Data: []byte("negative fields")}}},
	}
}

// msgEqual compares messages treating nil and empty slices as equal (the
// codec cannot distinguish them).
func msgEqual(a, b mpx.Message) bool {
	if a.Tag != b.Tag || len(a.Parts) != len(b.Parts) {
		return false
	}
	for i := range a.Parts {
		p, q := a.Parts[i], b.Parts[i]
		if p.Dest != q.Dest || p.Offset != q.Offset || p.Sum != q.Sum || !bytes.Equal(p.Data, q.Data) {
			return false
		}
	}
	return true
}

// appendFrame is AppendFrameV with the one version byte the decoders
// accept.
func appendFrame(dst []byte, msg mpx.Message) []byte {
	return AppendFrameV(dst, MaxVersion, msg)
}

// decodeMsg is DecodeAny for tests that only look at the message.
func decodeMsg(buf []byte) (mpx.Message, int, error) {
	fr, n, err := DecodeAny(buf)
	return fr.Msg, n, err
}

func TestRoundTrip(t *testing.T) {
	for i, msg := range sampleMessages() {
		frame := appendFrame(nil, msg)
		got, n, err := decodeMsg(frame)
		if err != nil {
			t.Fatalf("msg %d: decode: %v", i, err)
		}
		if n != len(frame) {
			t.Fatalf("msg %d: consumed %d of %d bytes", i, n, len(frame))
		}
		if !msgEqual(got, msg) {
			t.Fatalf("msg %d: round trip mismatch:\n got %#v\nwant %#v", i, got, msg)
		}
	}
}

func TestRoundTripRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for iter := 0; iter < 200; iter++ {
		msg := mpx.Message{Tag: rng.Intn(1 << 20)}
		for p := rng.Intn(5); p > 0; p-- {
			data := make([]byte, rng.Intn(200))
			rng.Read(data)
			msg.Parts = append(msg.Parts, mpx.Part{
				Dest:   cube.NodeID(rng.Intn(1 << 14)),
				Offset: rng.Intn(1 << 20),
				Data:   data,
				Sum:    rng.Uint32(),
			})
		}
		frame := appendFrame(nil, msg)
		got, _, err := decodeMsg(frame)
		if err != nil {
			t.Fatalf("iter %d: %v", iter, err)
		}
		if !msgEqual(got, msg) {
			t.Fatalf("iter %d: mismatch", iter)
		}
	}
}

// TestCoalescedStream decodes many frames appended into one buffer, as
// the transport's write coalescing produces them, via both DecodeAny
// and the streaming Reader.
func TestCoalescedStream(t *testing.T) {
	msgs := sampleMessages()
	var buf []byte
	for _, m := range msgs {
		buf = appendFrame(buf, m)
	}
	buf = AppendBye(buf)

	// Slice-based decoding.
	rest := buf
	for i, want := range msgs {
		got, n, err := decodeMsg(rest)
		if err != nil {
			t.Fatalf("frame %d: %v", i, err)
		}
		if !msgEqual(got, want) {
			t.Fatalf("frame %d mismatch", i)
		}
		rest = rest[n:]
	}
	if _, n, err := decodeMsg(rest); !errors.Is(err, ErrBye) || n != 2 {
		t.Fatalf("tail: got n=%d err=%v, want BYE", n, err)
	}

	// Streaming decoding.
	r := NewReader(bytes.NewReader(buf))
	for i, want := range msgs {
		got, err := readAny(r)
		if err != nil {
			t.Fatalf("stream frame %d: %v", i, err)
		}
		if !msgEqual(got.Msg, want) {
			t.Fatalf("stream frame %d mismatch", i)
		}
	}
	if _, err := readAny(r); !errors.Is(err, ErrBye) {
		t.Fatalf("stream tail: %v, want ErrBye", err)
	}
	if _, err := readAny(r); err != io.EOF {
		t.Fatalf("after BYE: %v, want EOF", err)
	}
}

// TestBitFlipDetected flips every byte of an encoded frame in turn; no
// position may yield a silently wrong message, and body flips must be
// reported as checksum failures that consume the whole frame.
func TestBitFlipDetected(t *testing.T) {
	msg := mpx.Message{Tag: 9, Parts: []mpx.Part{
		{Dest: 3, Offset: 16, Data: []byte("payload-bytes"), Sum: 77},
		{Dest: 12, Data: []byte("x")},
	}}
	frame := appendFrame(nil, msg)
	body := BodyStart(frame)
	if body < 0 {
		t.Fatal("BodyStart failed on a valid frame")
	}
	for i := range frame {
		mut := append([]byte(nil), frame...)
		mut[i] ^= 0x40
		got, n, err := decodeMsg(mut)
		if err == nil && msgEqual(got, msg) && n == len(frame) {
			// The flip produced the identical message — impossible for a
			// deterministic codec unless the byte is ignored.
			t.Fatalf("flip at byte %d went undetected", i)
		}
		if i >= body && i < len(frame)-4 {
			if !errors.Is(err, ErrChecksum) {
				t.Fatalf("body flip at %d: err=%v, want ErrChecksum", i, err)
			}
			if n != len(frame) {
				t.Fatalf("body flip at %d consumed %d bytes, want whole frame %d", i, n, len(frame))
			}
		}
	}
}

func TestTruncationDetected(t *testing.T) {
	frame := appendFrame(nil, sampleMessages()[3])
	for cut := 0; cut < len(frame); cut++ {
		if _, _, err := decodeMsg(frame[:cut]); err == nil {
			t.Fatalf("truncation to %d bytes decoded successfully", cut)
		}
		r := NewReader(bytes.NewReader(frame[:cut]))
		if _, err := readAny(r); err == nil {
			t.Fatalf("stream truncation to %d bytes decoded successfully", cut)
		}
	}
}

// TestVersionMismatch: there is one version byte. Every frame kind and
// both hello forms stamped 1, 2, 3 (the retired versions) or 5 are
// rejected with errVersion by the slice decoder, the stream reader and
// ReadHello, before anything else about them is looked at.
func TestVersionMismatch(t *testing.T) {
	msg := sampleMessages()[3]
	batch, st := BeginBatch(nil)
	batch = SealBatch(AppendBatchMsg(batch, msg), st)
	frames := map[string][]byte{
		"data":   appendFrame(nil, msg),
		"seq":    AppendSeqFrame(nil, 7, msg),
		"batch":  batch,
		"ack":    AppendAck(nil, 5),
		"nack":   AppendNack(nil, 2),
		"bye":    AppendBye(nil),
		"join":   AppendMemberFrame(nil, KindJoin, []byte("j")),
		"drain":  AppendMemberFrame(nil, KindDrain, nil),
		"view":   AppendMemberFrame(nil, KindView, []byte("v")),
		"grow":   AppendMemberFrame(nil, KindGrow, EncodeGrow(3)),
		"attach": AppendMemberFrame(nil, KindAttach, EncodeAttach(4, "127.0.0.1:1")),
	}
	hellos := map[string][]byte{
		"HCUB": AppendHello(nil, Hello{Dim: 3, From: 1, To: 5}),
		"HCRX": AppendHello(nil, Hello{Dim: 3, From: 1, To: 5, Resilient: true, RecvSeq: 9}),
	}
	for _, ver := range []byte{1, 2, 3, MaxVersion + 1} {
		for name, frame := range frames {
			if frame[0] != MaxVersion {
				t.Fatalf("%s frame is stamped %d, want %d", name, frame[0], MaxVersion)
			}
			bad := append([]byte(nil), frame...)
			bad[0] = ver
			if _, n, err := DecodeAny(bad); !errors.Is(err, errVersion) || n != 0 {
				t.Fatalf("%s frame stamped %d: DecodeAny n=%d err=%v, want errVersion", name, ver, n, err)
			}
			if _, err := readAny(NewReader(bytes.NewReader(bad))); !errors.Is(err, errVersion) {
				t.Fatalf("%s frame stamped %d: ReadAny err=%v, want errVersion", name, ver, err)
			}
			var fr Frame
			if err := NewReader(bytes.NewReader(bad)).ReadAnyInto(&fr); !errors.Is(err, errVersion) {
				t.Fatalf("%s frame stamped %d: ReadAnyInto err=%v, want errVersion", name, ver, err)
			}
		}
		for name, hello := range hellos {
			bad := append([]byte(nil), hello...)
			bad[4] = ver
			if _, err := ReadHello(bytes.NewReader(bad)); !errors.Is(err, errVersion) {
				t.Fatalf("%s hello stamped %d: err=%v, want errVersion", name, ver, err)
			}
		}
		// The byte AppendFrameV is handed is the byte it stamps.
		if _, _, err := DecodeAny(AppendFrameV(nil, ver, msg)); !errors.Is(err, errVersion) {
			t.Fatalf("AppendFrameV(ver=%d): err=%v, want errVersion", ver, err)
		}
	}
}

// TestSeqFrameRoundTrip covers the sequenced data frame across the
// sequence-number range the replay protocol uses (1 upward; 0 is the
// "nothing sent" handshake watermark, still encodable) through both the
// slice decoder and the streaming reader.
func TestSeqFrameRoundTrip(t *testing.T) {
	seqs := []uint64{0, 1, 2, 127, 128, 1 << 20, 1<<64 - 1}
	for _, seq := range seqs {
		for i, msg := range sampleMessages() {
			frame := AppendSeqFrame(nil, seq, msg)
			fr, n, err := DecodeAny(frame)
			if err != nil {
				t.Fatalf("seq %d msg %d: decode: %v", seq, i, err)
			}
			if n != len(frame) {
				t.Fatalf("seq %d msg %d: consumed %d of %d bytes", seq, i, n, len(frame))
			}
			if fr.Kind != KindSeqData || fr.Seq != seq || !msgEqual(fr.Msg, msg) {
				t.Fatalf("seq %d msg %d: got kind=%d seq=%d", seq, i, fr.Kind, fr.Seq)
			}
			sf, err := readAny(NewReader(bytes.NewReader(frame)))
			if err != nil {
				t.Fatalf("seq %d msg %d: stream decode: %v", seq, i, err)
			}
			if sf.Kind != KindSeqData || sf.Seq != seq || !msgEqual(sf.Msg, msg) {
				t.Fatalf("seq %d msg %d: stream mismatch", seq, i)
			}
		}
	}
}

// TestAckNackRoundTrip covers the two unchecksummed control frames.
func TestAckNackRoundTrip(t *testing.T) {
	cases := []struct {
		name   string
		encode func([]byte, uint64) []byte
		kind   byte
	}{
		{"ack", AppendAck, KindAck},
		{"nack", AppendNack, KindNack},
	}
	for _, tc := range cases {
		for _, v := range []uint64{0, 1, 300, 1 << 33, 1<<64 - 1} {
			frame := tc.encode(nil, v)
			fr, n, err := DecodeAny(frame)
			if err != nil {
				t.Fatalf("%s %d: %v", tc.name, v, err)
			}
			if n != len(frame) || fr.Kind != tc.kind || fr.Seq != v {
				t.Fatalf("%s %d: consumed %d/%d, kind=%d seq=%d", tc.name, v, n, len(frame), fr.Kind, fr.Seq)
			}
			sf, err := readAny(NewReader(bytes.NewReader(frame)))
			if err != nil || sf.Kind != tc.kind || sf.Seq != v {
				t.Fatalf("%s %d: stream got kind=%d seq=%d err=%v", tc.name, v, sf.Kind, sf.Seq, err)
			}
		}
	}
}

// TestMixedStreamDecodesInOrder interleaves every frame kind the
// resilient link writes — sequenced data, cumulative acks, retransmit
// requests, a plain frame and the closing BYE — in one coalesced
// buffer, as flushResilient produces them.
func TestMixedStreamDecodesInOrder(t *testing.T) {
	msgs := sampleMessages()
	var buf []byte
	buf = AppendSeqFrame(buf, 1, msgs[2])
	buf = AppendNack(buf, 0)
	buf = AppendSeqFrame(buf, 2, msgs[3])
	buf = AppendAck(buf, 17)
	buf = appendFrame(buf, msgs[1])
	buf = AppendBye(buf)

	want := []Frame{
		{Kind: KindSeqData, Seq: 1, Msg: msgs[2]},
		{Kind: KindNack, Seq: 0},
		{Kind: KindSeqData, Seq: 2, Msg: msgs[3]},
		{Kind: KindAck, Seq: 17},
		{Kind: KindData, Msg: msgs[1]},
	}
	rest := buf
	for i, w := range want {
		fr, n, err := DecodeAny(rest)
		if err != nil {
			t.Fatalf("frame %d: %v", i, err)
		}
		if fr.Kind != w.Kind || fr.Seq != w.Seq || !msgEqual(fr.Msg, w.Msg) {
			t.Fatalf("frame %d: got kind=%d seq=%d, want kind=%d seq=%d", i, fr.Kind, fr.Seq, w.Kind, w.Seq)
		}
		rest = rest[n:]
	}
	if _, n, err := DecodeAny(rest); !errors.Is(err, ErrBye) || n != 2 {
		t.Fatalf("tail: n=%d err=%v, want BYE", n, err)
	}

	r := NewReader(bytes.NewReader(buf))
	for i, w := range want {
		fr, err := readAny(r)
		if err != nil {
			t.Fatalf("stream frame %d: %v", i, err)
		}
		if fr.Kind != w.Kind || fr.Seq != w.Seq || !msgEqual(fr.Msg, w.Msg) {
			t.Fatalf("stream frame %d mismatch", i)
		}
	}
	if _, err := readAny(r); !errors.Is(err, ErrBye) {
		t.Fatalf("stream tail: %v, want ErrBye", err)
	}
}

// TestSeqFrameBitFlipDetected proves the CRC covers the sequence number
// as well as the message: any body flip is an ErrChecksum that consumes
// the whole frame, keeping the stream decodable.
func TestSeqFrameBitFlipDetected(t *testing.T) {
	frame := AppendSeqFrame(nil, 513, sampleMessages()[3])
	body := BodyStart(frame)
	if body < 0 {
		t.Fatal("BodyStart failed on a valid sequenced frame")
	}
	for i := body; i < len(frame)-4; i++ {
		mut := append([]byte(nil), frame...)
		mut[i] ^= 0x40
		_, n, err := DecodeAny(mut)
		if !errors.Is(err, ErrChecksum) {
			t.Fatalf("flip at %d: err=%v, want ErrChecksum", i, err)
		}
		if n != len(frame) {
			t.Fatalf("flip at %d consumed %d, want %d", i, n, len(frame))
		}
	}
}

// TestHelloRoundTrip covers both hello encodings: the HCUB form a plain
// endpoint sends and the HCRX resume form that carries the receiver's
// last-seen sequence number. One ReadHello serves both, dispatching on
// the magic.
func TestHelloRoundTrip(t *testing.T) {
	hellos := []Hello{{Dim: 5, From: 3, To: 19}}
	for _, seq := range []uint64{0, 1, 1 << 40, 1<<64 - 1} {
		hellos = append(hellos, Hello{Dim: 9, From: 511, To: 256, Resilient: true, RecvSeq: seq})
	}
	for _, h := range hellos {
		enc := AppendHello(nil, h)
		got, err := ReadHello(bytes.NewReader(enc))
		if err != nil {
			t.Fatalf("%+v: %v", h, err)
		}
		if got != h {
			t.Fatalf("got %+v, want %+v", got, h)
		}
		bad := append([]byte(nil), enc...)
		bad[0] = 'Z'
		if _, err := ReadHello(bytes.NewReader(bad)); !errors.Is(err, errCorrupt) {
			t.Fatalf("%+v: bad magic: %v, want errCorrupt", h, err)
		}
		// A truncated hello (for the resume form, the plain prefix of one)
		// must error, not hang or misparse.
		if _, err := ReadHello(bytes.NewReader(enc[:len(enc)-3])); err == nil {
			t.Fatalf("%+v: truncated hello accepted", h)
		}
	}
	// The retired stripe-attach magic is no hello at all.
	hsta := AppendHello(nil, hellos[0])
	copy(hsta, "HSTA")
	if _, err := ReadHello(bytes.NewReader(append(hsta, 1))); !errors.Is(err, errCorrupt) {
		t.Fatalf("HSTA hello: %v, want errCorrupt", err)
	}
}

// TestHugeLengthRejected guards the allocation path against a corrupted
// length prefix demanding gigabytes.
func TestHugeLengthRejected(t *testing.T) {
	buf := []byte{MaxVersion, KindData, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0x7F}
	if _, _, err := decodeMsg(buf); !errors.Is(err, errCorrupt) {
		t.Fatalf("got %v, want errCorrupt", err)
	}
	r := NewReader(bytes.NewReader(buf))
	if _, err := readAny(r); !errors.Is(err, errCorrupt) {
		t.Fatalf("stream: got %v, want errCorrupt", err)
	}
}

// readAny reads the next frame into payloads of its own.
func readAny(r *Reader) (Frame, error) {
	var fr Frame
	_, _, err := r.ReadInto(&fr, nil)
	return fr, err
}
