package wire

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"testing"

	"repro/internal/cube"
	"repro/internal/mpx"
)

// FuzzDecodeFrame throws arbitrary bytes at the decoder, starting from
// plain data frames and their mutants; FuzzDecodeAny starts from the
// sequenced, batch and control kinds. Both check checkDecodeAny. Run
// with `go test -fuzz FuzzDecodeFrame ./internal/wire` to explore beyond
// the seed corpus.
func FuzzDecodeFrame(f *testing.F) {
	// Seed corpus: every sample message's valid encoding, a BYE frame,
	// and targeted mutants (truncation, flipped body, flipped length,
	// another version, oversized length claim).
	for _, msg := range sampleMessages() {
		frame := appendFrame(nil, msg)
		f.Add(frame)
		f.Add(frame[:len(frame)/2])
		mut := append([]byte(nil), frame...)
		mut[len(mut)/2] ^= 0x10
		f.Add(mut)
		mut2 := append([]byte(nil), frame...)
		mut2[2] ^= 0x81
		f.Add(mut2)
	}
	f.Add(AppendBye(nil))
	f.Add([]byte{MaxVersion + 1, KindData, 3, 1, 2, 3, 0, 0, 0, 0})
	f.Add([]byte{MaxVersion, KindData, 0xFF, 0xFF, 0xFF, 0xFF, 0x0F})
	f.Add([]byte{})
	f.Add(AppendSeqFrame(nil, 12345, sampleMessages()[3]))
	f.Add(AppendAck(nil, 1<<40))
	f.Add(AppendNack(nil, 7))
	f.Add(AppendHello(nil, Hello{Dim: 10, From: 3, To: 515, Resilient: true, RecvSeq: 99}))
	f.Fuzz(checkDecodeAny)
}

// FuzzDecodeAny is FuzzDecodeFrame for the full frame set. Run with `go
// test -fuzz FuzzDecodeAny ./internal/wire`.
func FuzzDecodeAny(f *testing.F) {
	// restamp returns frame under another version byte: a frame the
	// decoders must turn away whatever else it holds.
	restamp := func(frame []byte, ver byte) []byte {
		out := append([]byte(nil), frame...)
		out[0] = ver
		return out
	}
	for i, msg := range sampleMessages() {
		f.Add(appendFrame(nil, msg))
		f.Add(AppendFrameV(nil, 1, msg))
		seq := AppendSeqFrame(nil, uint64(i)*1000+1, msg)
		f.Add(seq)
		f.Add(restamp(AppendSeqFrame(nil, uint64(i)*999+7, msg), 2))
		f.Add(seq[:len(seq)/2])
		mut := append([]byte(nil), seq...)
		mut[len(mut)/2] ^= 0x10
		f.Add(mut)
	}
	// Batch seeds: all the samples in one frame, an empty batch, a
	// truncated batch and one stamped with a retired version.
	batch, st := BeginBatch(nil)
	for _, msg := range sampleMessages() {
		batch = AppendBatchMsg(batch, msg)
	}
	batch = SealBatch(batch, st)
	f.Add(batch)
	f.Add(batch[:len(batch)/2])
	empty, st2 := BeginBatch(nil)
	f.Add(SealBatch(empty, st2))
	f.Add(restamp(batch, 1))
	f.Add(AppendAck(nil, 0))
	f.Add(AppendAck(nil, 1<<63))
	f.Add(AppendNack(nil, 3))
	f.Add([]byte{MaxVersion, KindAck, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF})
	f.Add(AppendBye(nil))
	// Membership and growth control seeds: each kind, truncated bodies,
	// and the retired versions that once gated them.
	f.Add(AppendMemberFrame(nil, KindJoin, []byte{1, 2}))
	f.Add(AppendMemberFrame(nil, KindDrain, nil))
	view := AppendMemberFrame(nil, KindView, bytes.Repeat([]byte{3}, 40))
	f.Add(view)
	f.Add(view[:len(view)/2])
	f.Add(restamp(view, 2))
	f.Add(AppendMemberFrame(nil, KindGrow, EncodeGrow(4)))
	attach := AppendMemberFrame(nil, KindAttach, EncodeAttach(9, "127.0.0.1:9999"))
	f.Add(attach)
	f.Add(attach[:len(attach)/2])
	f.Add(restamp(AppendMemberFrame(nil, KindGrow, EncodeGrow(3)), 3))
	f.Add([]byte{MaxVersion, KindSeqData, 2, 0x80})
	f.Add([]byte{MaxVersion + 1, KindSeqData, 2, 0x80})
	f.Fuzz(checkDecodeAny)
}

// checkDecodeAny holds the decoders' invariants on arbitrary bytes: the
// kind-dispatching slice decoder never panics and never over-consumes,
// it accepts no version byte but MaxVersion, any frame it accepts
// re-encodes and re-decodes identically (kind, sequence, message and
// body), and the streaming reader and the reusable decoders agree with
// it.
func checkDecodeAny(t *testing.T, data []byte) {
	fr, n, err := DecodeAny(data)
	if n < 0 || n > len(data) {
		t.Fatalf("consumed %d of %d bytes", n, len(data))
	}
	if len(data) >= 2 && data[0] != MaxVersion && !errors.Is(err, errVersion) {
		t.Fatalf("version byte %d: err=%v, want errVersion", data[0], err)
	}
	if err != nil {
		return
	}
	var re []byte
	switch fr.Kind {
	case KindData:
		re = appendFrame(nil, fr.Msg)
	case KindSeqData:
		re = AppendSeqFrame(nil, fr.Seq, fr.Msg)
	case KindBatch:
		var st int
		re, st = BeginBatch(nil)
		for _, m := range fr.Msgs {
			re = AppendBatchMsg(re, m)
		}
		re = SealBatch(re, st)
	case KindAck:
		re = AppendAck(nil, fr.Seq)
	case KindNack:
		re = AppendNack(nil, fr.Seq)
	case KindJoin, KindDrain, KindView, KindGrow, KindAttach:
		re = AppendMemberFrame(nil, fr.Kind, fr.Body)
	default:
		t.Fatalf("decoder accepted unknown kind %d", fr.Kind)
	}
	same := func(o Frame) bool {
		return o.Kind == fr.Kind && o.Seq == fr.Seq && msgEqual(o.Msg, fr.Msg) && msgsEqual(o.Msgs, fr.Msgs) && bytes.Equal(o.Body, fr.Body)
	}
	fr2, _, err := DecodeAny(re)
	if err != nil {
		t.Fatalf("re-encode of accepted frame fails to decode: %v", err)
	}
	if !same(fr2) {
		t.Fatalf("round-trip instability:\nfirst  %#v\nsecond %#v", fr, fr2)
	}
	sf, serr := readAny(NewReader(bytes.NewReader(data)))
	if serr != nil {
		t.Fatalf("readAny rejects a frame DecodeAny accepted: %v", serr)
	}
	if !same(sf) {
		t.Fatal("readAny and DecodeAny disagree")
	}
	// The reusable decoders must agree with the fresh ones.
	var into Frame
	if _, n2, err := decodeAnyInto(&into, nil, data); err != nil || n2 != n || !same(into) {
		t.Fatalf("decodeAnyInto disagrees with DecodeAny: err=%v", err)
	}
	var rinto Frame
	if err := NewReader(bytes.NewReader(data)).ReadAnyInto(&rinto); err != nil || !same(rinto) {
		t.Fatalf("ReadAnyInto disagrees with DecodeAny: err=%v", err)
	}
}

// msgsEqual compares two batch message lists (nil == empty).
func msgsEqual(a, b []mpx.Message) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if !msgEqual(a[i], b[i]) {
			return false
		}
	}
	return true
}

// FuzzDecodeBatch is the constructive dual for the batch frame: build a batch from fuzzed primitives, check encode/decode
// identity through both the slice and streaming decoders, and check
// that a flipped body byte never passes the CRC-32C.
func FuzzDecodeBatch(f *testing.F) {
	f.Add(3, []byte("hello"), 7, uint32(9))
	f.Add(0, []byte{}, -1, uint32(0))
	f.Add(40, bytes.Repeat([]byte{5}, 300), 1<<30, uint32(1<<31))
	f.Fuzz(func(t *testing.T, count int, data []byte, tag int, sum uint32) {
		if count < 0 || count > 64 {
			return
		}
		msgs := make([]mpx.Message, count)
		for i := range msgs {
			msgs[i] = mpx.Message{Tag: tag + i, Parts: []mpx.Part{
				{Dest: cube.NodeID(i), Offset: -i, Data: data, Sum: sum},
			}}
		}
		frame, st := BeginBatch(nil)
		for _, m := range msgs {
			frame = AppendBatchMsg(frame, m)
		}
		frame = SealBatch(frame, st)
		fr, n, err := DecodeAny(frame)
		if err != nil {
			t.Fatalf("decode of own batch: %v", err)
		}
		if n != len(frame) {
			t.Fatalf("consumed %d of %d", n, len(frame))
		}
		if fr.Kind != KindBatch || !msgsEqual(fr.Msgs, msgs) {
			t.Fatalf("batch round trip mismatch: %d msgs in, %d out", len(msgs), len(fr.Msgs))
		}
		sf, err := readAny(NewReader(bytes.NewReader(frame)))
		if err != nil || !msgsEqual(sf.Msgs, msgs) {
			t.Fatalf("streaming batch decode disagrees: %v", err)
		}
		if len(frame) > BatchOverhead {
			flip := append([]byte(nil), frame...)
			flip[6] ^= 0xFF
			if _, _, err := DecodeAny(flip); !errors.Is(err, ErrChecksum) && !errors.Is(err, errTruncated) && !errors.Is(err, errCorrupt) {
				t.Fatalf("body flip: err=%v, want checksum failure", err)
			}
		}
	})
}

// FuzzReadHello throws arbitrary bytes at the dual-form handshake
// reader: it must never panic, and anything it accepts must re-encode
// to bytes it reads back identically — for both the plain HCUB form and
// the HCRX resume form carrying the receiver sequence watermark.
func FuzzReadHello(f *testing.F) {
	f.Add(AppendHello(nil, Hello{Dim: 3, From: 1, To: 5}))
	f.Add(AppendHello(nil, Hello{Dim: 3, From: 1, To: 5, Resilient: true, RecvSeq: 0}))
	f.Add(AppendHello(nil, Hello{Dim: 10, From: 1023, To: 512, Resilient: true, RecvSeq: 1<<64 - 1}))
	bad := AppendHello(nil, Hello{Dim: 4, From: 2, To: 6, Resilient: true, RecvSeq: 77})
	bad[0] = 'X'
	f.Add(bad)
	old := AppendHello(nil, Hello{Dim: 4, From: 2, To: 6})
	old[4] = 3 // a retired version
	f.Add(old)
	f.Add([]byte("HCRX"))
	f.Add([]byte{})

	f.Fuzz(func(t *testing.T, data []byte) {
		h, err := ReadHello(bytes.NewReader(data))
		if len(data) >= 5 && data[4] != MaxVersion && err == nil {
			t.Fatalf("hello with version byte %d accepted", data[4])
		}
		if err != nil {
			return
		}
		re := AppendHello(nil, h)
		h2, err := ReadHello(bytes.NewReader(re))
		if err != nil {
			t.Fatalf("re-encode of accepted hello fails to read: %v", err)
		}
		if h2 != h {
			t.Fatalf("hello round-trip instability: %+v vs %+v", h, h2)
		}
	})
}

// FuzzDecodeGrow throws arbitrary bytes at the KindGrow body decoder:
// it must never panic, and any dimension it accepts must re-encode to
// bytes it decodes back identically.
func FuzzDecodeGrow(f *testing.F) {
	f.Add(EncodeGrow(3))
	f.Add(EncodeGrow(20))
	f.Add(EncodeGrow(1 << 20))
	f.Add([]byte{})
	f.Add([]byte{0x80})
	f.Add([]byte{3, 0})
	f.Fuzz(func(t *testing.T, body []byte) {
		dim, err := DecodeGrow(body)
		if err != nil {
			return
		}
		if dim < 1 || dim > cube.MaxDim {
			t.Fatalf("accepted out-of-range dimension %d", dim)
		}
		d2, err := DecodeGrow(EncodeGrow(dim))
		if err != nil || d2 != dim {
			t.Fatalf("grow round trip: dim %d -> %d, err %v", dim, d2, err)
		}
	})
}

// FuzzDecodeAttach throws arbitrary bytes at the KindAttach body
// decoder: it must never panic, accepted bodies must stay inside the
// rank and address bounds, and accepted (rank, addr) pairs must
// round-trip exactly.
func FuzzDecodeAttach(f *testing.F) {
	f.Add(EncodeAttach(4, "127.0.0.1:12345"))
	f.Add(EncodeAttach(0, ""))
	f.Add(EncodeAttach(1<<20, "/tmp/hypercomm-1234/rank8.sock"))
	f.Add([]byte{})
	f.Add([]byte{0x80})
	f.Add([]byte{5, 0xFF, 0xFF, 0xFF, 0x7F})
	f.Fuzz(func(t *testing.T, body []byte) {
		rank, addr, err := DecodeAttach(body)
		if err != nil {
			return
		}
		if uint64(rank) >= 1<<uint(cube.MaxDim) || len(addr) > maxAttachAddr {
			t.Fatalf("accepted out-of-bounds attach: rank %d, %d addr bytes", rank, len(addr))
		}
		r2, a2, err := DecodeAttach(EncodeAttach(rank, addr))
		if err != nil || r2 != rank || a2 != addr {
			t.Fatalf("attach round trip: (%d, %q) -> (%d, %q), err %v", rank, addr, r2, a2, err)
		}
	})
}

// FuzzRoundTrip builds structured messages from fuzzed primitives and
// checks encode/decode identity — the constructive dual of
// FuzzDecodeFrame's adversarial direction.
func FuzzRoundTrip(f *testing.F) {
	f.Add(0, uint16(3), 7, []byte("hello"), uint32(9))
	f.Add(-100, uint16(0), -1, []byte{}, uint32(0))
	f.Add(1<<30, uint16(1000), 1<<40, bytes.Repeat([]byte{7}, 500), uint32(0xFFFFFFFF))
	f.Fuzz(func(t *testing.T, tag int, dest uint16, offset int, data []byte, sum uint32) {
		msg := mpx.Message{Tag: tag, Parts: []mpx.Part{
			{Dest: 0, Data: data},
			{Dest: 1, Offset: offset, Data: data, Sum: sum},
			{Dest: 1 << 20, Offset: -offset, Sum: sum / 2},
		}}
		_ = dest
		frame := appendFrame(nil, msg)
		got, n, err := decodeMsg(frame)
		if err != nil {
			t.Fatalf("decode of own encoding: %v", err)
		}
		if n != len(frame) {
			t.Fatalf("consumed %d of %d", n, len(frame))
		}
		if !msgEqual(got, msg) {
			t.Fatal("round trip mismatch")
		}
		// A flipped body byte must never pass the checksum.
		if body := BodyStart(frame); body >= 0 && body < len(frame)-4 {
			frame[body] ^= 0xFF
			if _, _, err := decodeMsg(frame); !errors.Is(err, ErrChecksum) && !errors.Is(err, errTruncated) {
				t.Fatalf("body flip: err=%v, want checksum failure", err)
			}
		}
	})
}

// FuzzStreamDecodeMatchesDecodeAny is the differential check of the
// streamed decode path against the slice decoder, which verifies the
// checksum before it parses anything: for any byte string, read as a
// sequence of frames, the two agree frame by frame on the decoded frame
// or on the class of error (checksum failure, malformed, version,
// goodbye, or stream ends early) and on how many bytes they consumed.
// Where the reader records a body checksum for verbatim forwarding, the
// vectored encoder under that checksum reproduces the frame bit for bit.
// The reader streams every data frame it can (the threshold is lowered
// to one byte per part) and its Landing function answers in place, with
// the wrong length, or not at all, by turns. Run with `go test -fuzz
// FuzzStreamDecodeMatchesDecodeAny ./internal/wire`.
func FuzzStreamDecodeMatchesDecodeAny(f *testing.F) {
	large := mpx.Message{Tag: 1<<16 | 3, Parts: []mpx.Part{{Dest: 2, Offset: 349525, Data: bytes.Repeat([]byte{0xA5, 1, 2}, 6000), Sum: 77}}}
	manifest := mpx.Message{Tag: 1<<16 | 2, Parts: []mpx.Part{
		{Dest: 0, Offset: -3},
		{Dest: 0, Offset: 1 << 18, Data: bytes.Repeat([]byte{9}, 40<<10)},
	}}
	for _, msg := range append(sampleMessages(), large, manifest) {
		for _, frame := range [][]byte{
			appendFrame(nil, msg),
			AppendSeqFrame(nil, 41, msg),
			AppendFrameV(nil, 3, msg), // a retired version: both must refuse it
		} {
			f.Add(frame)
			f.Add(frame[:len(frame)*2/3]) // truncated
			_, k := binary.Uvarint(frame[2:])
			b := 2 + k // the first body byte
			for _, at := range []int{b, b + 1, (b + len(frame)) / 2, len(frame) - 5, len(frame) - 1} {
				mut := append([]byte(nil), frame...)
				mut[at] ^= 0x81
				f.Add(mut)
			}
		}
	}
	f.Add(append(appendFrame(nil, large), AppendSeqFrame(nil, 42, manifest)...))
	f.Add(append(AppendAck(nil, 9), AppendBye(nil)...))

	f.Fuzz(func(t *testing.T, data []byte) {
		src := bytes.NewReader(data)
		r := NewReader(src)
		asked := 0
		scratch := make([]byte, len(data))
		r.Land(func(_ uint64, _, _, _, n int) []byte {
			asked++
			switch {
			case n > len(scratch) || asked%3 == 2:
				return nil
			case asked%3 == 1:
				return scratch[:n/2]
			}
			return scratch[:n]
		})
		for at := 0; at < len(data); {
			rest := data[at:]
			// Stream whatever has parts at all, unless the frame claims more
			// body than there is input: such a claim is how a hostile length
			// looks, and the part count it could justify is not worth testing
			// an allocation of.
			r.streamMin = streamPartMin
			if len(rest) > 2 {
				if claim, k := binary.Uvarint(rest[2:]); k > 0 && claim <= uint64(len(rest)) {
					r.streamMin = 1
				}
			}
			want, n, werr := DecodeAny(rest)
			got, gerr := readAny(r)
			consumed := len(rest) - src.Len()
			switch {
			case werr == nil:
				if gerr != nil {
					t.Fatalf("at %d: reader fails with %v on a frame DecodeAny accepts", at, gerr)
				}
				if got.Kind != want.Kind || got.Seq != want.Seq ||
					!msgEqual(got.Msg, want.Msg) || !msgsEqual(got.Msgs, want.Msgs) || !bytes.Equal(got.Body, want.Body) {
					t.Fatalf("at %d: frames differ:\nreader    %+v\nDecodeAny %+v", at, got, want)
				}
				// A recorded checksum must re-encode to the frame just read,
				// which must be the frame the encoder builds on its own.
				if got.BodyCRC != 0 {
					if got.Kind != KindData {
						t.Fatalf("at %d: a frame of kind %d recorded a body checksum", at, got.Kind)
					}
					if with := vecBytes(got.Msg, got.BodyCRC); !bytes.Equal(with, rest[:n]) || !bytes.Equal(vecBytes(got.Msg, 0), with) {
						t.Fatalf("at %d: forwarding under the recorded checksum %#x does not reproduce the frame read", at, got.BodyCRC)
					}
				}
			case errors.Is(werr, errTruncated):
				if gerr != io.EOF && gerr != io.ErrUnexpectedEOF && !errors.Is(gerr, errCorrupt) {
					// (A header varint cut short by the end of input reads as a
					// bad length to the reader.)
					t.Fatalf("at %d: DecodeAny says truncated, reader says %v", at, gerr)
				}
				return
			default:
				for _, class := range []error{ErrChecksum, errCorrupt, errVersion, ErrBye} {
					if errors.Is(werr, class) != errors.Is(gerr, class) {
						t.Fatalf("at %d: DecodeAny says %v, reader says %v", at, werr, gerr)
					}
				}
			}
			if n == 0 {
				return // terminal for the stream: nothing was framed
			}
			if consumed != n {
				t.Fatalf("at %d: reader consumed %d bytes, DecodeAny %d (%v / %v)", at, consumed, n, gerr, werr)
			}
			if errors.Is(werr, ErrBye) {
				return
			}
			at += n
		}
	})
}

// FuzzRecycledDecodeMatchesDecodeAny holds ReadInto, the read pump's
// decode into a recycled body and Frame, to DecodeAny on arbitrary
// bytes, frame after frame. One body buffer and one Frame serve every
// frame of every input, as a receive record serves frame after frame,
// and before each decode every byte of the body's capacity is painted
// 0xA5 and every part and message slot within the Frame's capacity is
// filled with junk: a decode that reads a byte this frame did not bring,
// or leaves a slot of an earlier frame in view, disagrees with
// DecodeAny. Every data and batch frame, whatever its size, is read into
// the body (nothing is streamed here), and each part it decodes must
// alias the body. The seeds include the small frames the collectives
// send most — an empty-bodied part (Barrier's), an 8-byte one
// (AllReduce's), a batch of such — and a small frame decoded right after
// a large one grew the body. Run with `go test -fuzz
// FuzzRecycledDecodeMatchesDecodeAny ./internal/wire`.
func FuzzRecycledDecodeMatchesDecodeAny(f *testing.F) {
	batch, st := BeginBatch(nil)
	for _, msg := range sampleMessages() {
		batch = AppendBatchMsg(batch, msg)
		f.Add(appendFrame(nil, msg))
		f.Add(AppendSeqFrame(nil, 99, msg))
	}
	batch = SealBatch(batch, st)
	f.Add(batch)
	f.Add(batch[:len(batch)-3])
	flip := append([]byte(nil), batch...)
	flip[len(flip)/2] ^= 0x40
	f.Add(flip)
	two, st := BeginBatch(nil)
	two = AppendBatchMsg(two, sampleMessages()[2])
	f.Add(SealBatch(two, st))
	empty, st := BeginBatch(nil)
	f.Add(SealBatch(empty, st))
	f.Add(AppendAck(nil, 5))
	f.Add(AppendMemberFrame(nil, KindView, []byte{1, 2, 3}))
	f.Add(AppendBye(nil))

	barrier := mpx.Message{Tag: 0x10001, Parts: []mpx.Part{{Dest: 0, Data: []byte{}}}}
	word := mpx.Message{Tag: 0x20001, Parts: []mpx.Part{{Dest: 0, Data: []byte{1, 2, 3, 4, 5, 6, 7, 8}}}}
	job := mpx.Message{Tag: 0x30000, Parts: []mpx.Part{{Dest: 3, Data: bytes.Repeat([]byte{0x3C}, 161)}}}
	large := mpx.Message{Tag: 9, Parts: []mpx.Part{{Dest: 1, Data: bytes.Repeat([]byte{0x77}, 8<<10)}}}
	f.Add(appendFrame(nil, barrier))
	f.Add(appendFrame(nil, word))
	small, st := BeginBatch(nil)
	for _, msg := range []mpx.Message{barrier, word, job, word, barrier} {
		small = AppendBatchMsg(small, msg)
	}
	small = SealBatch(small, st)
	f.Add(small)
	f.Add(append(appendFrame(nil, large), appendFrame(nil, word)...))
	f.Add(append(append(appendFrame(nil, large), small...), appendFrame(nil, barrier)...))

	var body []byte
	var fr Frame
	stale := bytes.Repeat([]byte{0xA5}, 7)
	junk := mpx.Part{Dest: 0xA5A5, Offset: -0x5A5A, Data: stale, Sum: 0xA5A5A5A5}
	paint := func() {
		if cap(body) > 64<<10 {
			body = nil // grown by a hostile length claim: a receive record drops such a body
		}
		for i := range body[:cap(body)] {
			body[:cap(body)][i] = 0xA5
		}
		for i := range fr.Msg.Parts[:cap(fr.Msg.Parts)] {
			fr.Msg.Parts[:cap(fr.Msg.Parts)][i] = junk
		}
		msgs := fr.Msgs[:cap(fr.Msgs)]
		for i := range msgs {
			msgs[i].Tag = -0x5A5A
			for j := range msgs[i].Parts[:cap(msgs[i].Parts)] {
				msgs[i].Parts[:cap(msgs[i].Parts)][j] = junk
			}
		}
		fr.Msg.Parts = fr.Msg.Parts[:cap(fr.Msg.Parts)]
		fr.Msgs = msgs
		fr.Kind, fr.Seq, fr.BodyCRC, fr.Msg.Tag, fr.Body = 0xA5, 0xA5A5, 0xA5A5, -0x5A5A, stale
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		src := bytes.NewReader(data)
		r := NewReader(src)
		r.streamMin = maxBody + 1
		for at := 0; at < len(data); {
			rest := data[at:]
			paint()
			want, n, werr := DecodeAny(rest)
			var inBody bool
			var gerr error
			body, inBody, gerr = r.ReadInto(&fr, body)
			consumed := len(rest) - src.Len()
			switch {
			case werr == nil:
				if gerr != nil {
					t.Fatalf("at %d: ReadInto fails with %v on a frame DecodeAny accepts", at, gerr)
				}
				if fr.Kind != want.Kind || fr.Seq != want.Seq || !msgEqual(fr.Msg, want.Msg) ||
					!msgsEqual(fr.Msgs, want.Msgs) || !bytes.Equal(fr.Body, want.Body) {
					t.Fatalf("at %d: frames differ:\nReadInto  %+v\nDecodeAny %+v", at, fr, want)
				}
				data := fr.Kind == KindData || fr.Kind == KindSeqData || fr.Kind == KindBatch
				if inBody != data {
					t.Fatalf("at %d: kind %d: inBody %v", at, fr.Kind, inBody)
				}
				// Every part aliases the body: repaint it and look.
				for i := range body[:cap(body)] {
					body[:cap(body)][i] = 0x5A
				}
				for _, m := range append([]mpx.Message{fr.Msg}, fr.Msgs...) {
					for _, p := range m.Parts {
						if len(p.Data) > 0 && !bytes.Equal(p.Data, bytes.Repeat([]byte{0x5A}, len(p.Data))) {
							t.Fatalf("at %d: a part of tag %d does not alias the body", at, m.Tag)
						}
					}
				}
			case errors.Is(werr, errTruncated):
				if gerr != io.EOF && gerr != io.ErrUnexpectedEOF && !errors.Is(gerr, errCorrupt) {
					t.Fatalf("at %d: DecodeAny says truncated, ReadInto says %v", at, gerr)
				}
				return
			default:
				for _, class := range []error{ErrChecksum, errCorrupt, errVersion, ErrBye} {
					if errors.Is(werr, class) != errors.Is(gerr, class) {
						t.Fatalf("at %d: DecodeAny says %v, ReadInto says %v", at, werr, gerr)
					}
				}
			}
			if n == 0 || errors.Is(werr, ErrBye) {
				return // terminal for the stream
			}
			if consumed != n {
				t.Fatalf("at %d: ReadInto consumed %d bytes, DecodeAny %d (%v / %v)", at, consumed, n, gerr, werr)
			}
			at += n
		}
	})
}
