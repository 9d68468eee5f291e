package wire

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"testing"

	"repro/internal/mpx"
)

// bigPart returns n bytes of a recognizable pattern.
func bigPart(n, salt int) []byte {
	b := make([]byte, n)
	for i := range b {
		b[i] = byte(i*7 + salt)
	}
	return b
}

// landCall is one recorded Landing question.
type landCall struct {
	seq                    uint64
	tag, nparts, offset, n int
}

// TestStreamedFrameLandsInPlace: a data frame with large parts asks the
// Landing function about each part before reading it, reads the payload
// into the answer, and returns that very slice as the part's Data.
func TestStreamedFrameLandsInPlace(t *testing.T) {
	msg := mpx.Message{Tag: 77, Parts: []mpx.Part{
		{Dest: 3, Offset: 4096, Data: bigPart(40<<10, 1), Sum: 9},
		{Dest: 5, Offset: 1 << 20, Data: bigPart(33<<10, 2)},
	}}
	for _, tc := range []struct {
		name  string
		frame []byte
		kind  byte
		seq   uint64
	}{
		{"plain", appendFrame(nil, msg), KindData, 0},
		{"seq", AppendSeqFrame(nil, 1<<33, msg), KindSeqData, 1 << 33},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dst := make([]byte, 2<<20)
			var calls []landCall
			r := NewReader(bytes.NewReader(tc.frame))
			r.Land(func(seq uint64, tag, nparts, offset, n int) []byte {
				calls = append(calls, landCall{seq, tag, nparts, offset, n})
				return dst[offset : offset+n]
			})
			fr, err := readAny(r)
			if err != nil {
				t.Fatal(err)
			}
			if fr.Kind != tc.kind || fr.Seq != tc.seq || !msgEqual(fr.Msg, msg) {
				t.Fatalf("decoded kind %d seq %d, message equal %v", fr.Kind, fr.Seq, msgEqual(fr.Msg, msg))
			}
			want := []landCall{
				{tc.seq, 77, 2, 4096, 40 << 10},
				{tc.seq, 77, 2, 1 << 20, 33 << 10},
			}
			if len(calls) != 2 || calls[0] != want[0] || calls[1] != want[1] {
				t.Fatalf("landing asked %+v, want %+v", calls, want)
			}
			for i, p := range fr.Msg.Parts {
				if &p.Data[0] != &dst[p.Offset] {
					t.Errorf("part %d was not read into the landing slice", i)
				}
				if cap(p.Data) != len(p.Data) {
					t.Errorf("part %d: cap %d beyond len %d reaches into the neighbour's bytes", i, cap(p.Data), len(p.Data))
				}
			}
		})
	}
}

// TestStreamedFrameDeclined: a nil answer, a wrong-length answer and a
// reader without a Landing function all give the part a buffer of its
// own, and nothing is written into a wrong-length answer.
func TestStreamedFrameDeclined(t *testing.T) {
	msg := mpx.Message{Tag: -4, Parts: []mpx.Part{{Dest: 1, Offset: 0, Data: bigPart(20<<10, 3)}}}
	frame := appendFrame(nil, msg)
	short := make([]byte, 100)
	for name, land := range map[string]Landing{
		"none":  nil,
		"nil":   func(uint64, int, int, int, int) []byte { return nil },
		"short": func(uint64, int, int, int, int) []byte { return short },
	} {
		r := NewReader(bytes.NewReader(frame))
		if land != nil {
			r.Land(land)
		}
		fr, err := readAny(r)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if !msgEqual(fr.Msg, msg) {
			t.Fatalf("%s: decoded message differs", name)
		}
	}
	if !bytes.Equal(short, make([]byte, 100)) {
		t.Fatal("a wrong-length answer was written into")
	}
}

// TestSmallPartsStayWholeBody: a large frame of small parts (a 32 x 1 KiB
// scatter bundle) keeps the whole-body path: nobody is asked, and the
// parts share one body buffer instead of getting one each.
func TestSmallPartsStayWholeBody(t *testing.T) {
	var msg mpx.Message
	for d := 0; d < 32; d++ {
		msg.Parts = append(msg.Parts, mpx.Part{Dest: 0, Offset: d, Data: bigPart(1<<10, d)})
	}
	for _, frame := range [][]byte{appendFrame(nil, msg), AppendSeqFrame(nil, 5, msg)} {
		src := bytes.NewReader(frame)
		r := NewReader(src)
		r.Land(func(uint64, int, int, int, int) []byte {
			t.Error("landing asked about a frame of small parts")
			return nil
		})
		fr, err := readAny(r)
		if err != nil {
			t.Fatal(err)
		}
		if !msgEqual(fr.Msg, msg) {
			t.Fatal("decoded message differs")
		}
		// Warm reader: the body and the part slice, nothing per part.
		allocs := testing.AllocsPerRun(20, func() {
			src.Reset(frame)
			if _, err := readAny(r); err != nil {
				t.Fatal(err)
			}
		})
		if allocs > 2 {
			t.Fatalf("%v allocations for a 32-part frame, want the body and the part slice", allocs)
		}
	}
}

// TestStreamedErrorOrder pins what a streamed frame reports, which must
// be what the whole-body path reports for the same bytes: damage is a
// checksum failure (and the stream stays aligned) even when the parser
// meets it in a header first; a frame is malformed only when its
// checksum is clean; a stream that ends inside the frame is terminal.
func TestStreamedErrorOrder(t *testing.T) {
	msg := mpx.Message{Tag: 9, Parts: []mpx.Part{{Dest: 2, Offset: 64, Data: bigPart(24<<10, 4), Sum: 1}}}
	good := appendFrame(nil, msg)
	next := appendFrame(nil, mpx.Message{Tag: 10, Parts: []mpx.Part{{Dest: 2, Data: []byte("next")}}})
	b := BodyStart(good)

	readBoth := func(stream []byte) (error, error) {
		r := NewReader(bytes.NewReader(stream))
		_, err1 := readAny(r)
		fr, err2 := readAny(r)
		if err2 == nil && fr.Msg.Tag != 10 {
			t.Fatalf("second frame decoded as tag %d: the stream lost alignment", fr.Msg.Tag)
		}
		return err1, err2
	}
	agree := func(name string, frame []byte, want error) {
		t.Helper()
		_, _, derr := DecodeAny(frame)
		err1, err2 := readBoth(append(append([]byte(nil), frame...), next...))
		if !errors.Is(err1, want) || !errors.Is(derr, want) {
			t.Fatalf("%s: reader %v, DecodeAny %v, want %v", name, err1, derr, want)
		}
		if err2 != nil {
			t.Fatalf("%s: frame after it: %v", name, err2)
		}
	}

	for name, at := range map[string]int{
		"tag":          b,             // the first header byte
		"count varint": b + 1,         // another part count: maybe another decode path
		"dest varint":  b + 2,         // continuation bit: the header swallows payload
		"part length":  b + 4,         // the part overruns the body
		"payload":      b + 1000,      // parses cleanly
		"part sum":     len(good) - 5, // the last header byte, after the payload was read
		"crc trailer":  len(good) - 1,
	} {
		bad := append([]byte(nil), good...)
		bad[at] ^= 0xFF
		agree("flipped "+name, bad, ErrChecksum)
	}

	// Checksum-clean but malformed: one byte too many after the last part.
	body := append(append([]byte(nil), good[b:len(good)-4]...), 0)
	junk := []byte{MaxVersion, KindData}
	junk = binary.AppendUvarint(junk, uint64(len(body)))
	junk = append(junk, body...)
	junk = binary.LittleEndian.AppendUint32(junk, checksum(body))
	agree("trailing byte", junk, errCorrupt)

	// Cut inside the payload.
	if err1, _ := readBoth(good[:b+5000]); err1 != io.ErrUnexpectedEOF {
		t.Fatalf("truncated frame: %v, want io.ErrUnexpectedEOF", err1)
	}
}

// TestReaderWithoutByteReader: a source that is only an io.Reader still
// decodes every frame class (the single-byte reads fall back to Read).
func TestReaderWithoutByteReader(t *testing.T) {
	big := mpx.Message{Tag: 3, Parts: []mpx.Part{{Dest: 1, Offset: 8, Data: bigPart(17<<10, 5)}}}
	small := mpx.Message{Tag: 4, Parts: []mpx.Part{{Dest: 1, Data: []byte("small")}}}
	stream := AppendAck(nil, 300)
	stream = appendFrame(stream, big)
	stream = AppendSeqFrame(stream, 129, small)
	r := NewReader(struct{ io.Reader }{bytes.NewReader(stream)})
	if fr, err := readAny(r); err != nil || fr.Kind != KindAck || fr.Seq != 300 {
		t.Fatalf("ack: %+v, %v", fr, err)
	}
	if fr, err := readAny(r); err != nil || !msgEqual(fr.Msg, big) {
		t.Fatalf("streamed frame: %v", err)
	}
	if fr, err := readAny(r); err != nil || fr.Seq != 129 || !msgEqual(fr.Msg, small) {
		t.Fatalf("small frame: %v", err)
	}
	if _, err := readAny(r); err != io.EOF {
		t.Fatalf("end of stream: %v, want io.EOF", err)
	}
}

// vecBytes is what AppendFrameVecCRC puts on the wire for msg: its
// segments, concatenated.
func vecBytes(msg mpx.Message, bodyCRC uint32) []byte {
	blk := make([]byte, 0, VecOverhead(MaxVersion, msg))
	_, segs := AppendFrameVecCRC(blk, nil, MaxVersion, msg, bodyCRC)
	return bytes.Join(segs, nil)
}

// TestVecPassThroughBitIdentical: the checksum a streamed decode leaves
// on the frame, handed back to the vectored encoder, yields the very
// bytes that were read — which are the bytes the encoder produces when
// it sums the payload itself. Every other decode leaves no checksum: a
// whole-body frame, a batch, a sequenced frame (whose body starts with
// the sequence number) and the reusing reader.
func TestVecPassThroughBitIdentical(t *testing.T) {
	for _, nparts := range []int{1, 2, 4} {
		for _, sum := range []uint32{0, 0xDEADBEEF} {
			var msg mpx.Message
			msg.Tag = 1<<16 | nparts
			for i := 0; i < nparts; i++ {
				msg.Parts = append(msg.Parts, mpx.Part{Dest: 3, Offset: i << 20, Data: bigPart(20<<10+i, i), Sum: sum})
			}
			frame := appendFrame(nil, msg)
			fr, err := readAny(NewReader(bytes.NewReader(frame)))
			if err != nil {
				t.Fatal(err)
			}
			if want := binary.LittleEndian.Uint32(frame[len(frame)-4:]); fr.BodyCRC != want || want == 0 {
				t.Fatalf("%d parts, sum %#x: streamed decode recorded checksum %#x, the trailer says %#x", nparts, sum, fr.BodyCRC, want)
			}
			if with := vecBytes(fr.Msg, fr.BodyCRC); !bytes.Equal(with, frame) {
				t.Fatalf("%d parts, sum %#x: re-encoding with the recorded checksum differs from the frame read at byte %d", nparts, sum, firstDiff(with, frame))
			}
			if without := vecBytes(fr.Msg, 0); !bytes.Equal(without, frame) {
				t.Fatalf("%d parts, sum %#x: re-encoding without it differs from the frame read", nparts, sum)
			}

			seq, err := readAny(NewReader(bytes.NewReader(AppendSeqFrame(nil, 7, msg))))
			if err != nil || seq.Kind != KindSeqData || seq.BodyCRC != 0 {
				t.Fatalf("sequenced decode: kind %d, recorded checksum %#x, %v", seq.Kind, seq.BodyCRC, err)
			}
			var into Frame
			into.BodyCRC = 1 // what a reused frame might hold
			if err := NewReader(bytes.NewReader(frame)).ReadAnyInto(&into); err != nil || into.BodyCRC != 0 {
				t.Fatalf("ReadAnyInto: recorded checksum %#x, %v", into.BodyCRC, err)
			}
		}
	}

	small := mpx.Message{Tag: 5, Parts: []mpx.Part{{Dest: 1, Data: bigPart(1<<10, 9)}}}
	batch, at := BeginBatch(nil)
	batch = SealBatch(AppendBatchMsg(batch, small), at)
	r := NewReader(bytes.NewReader(append(appendFrame(nil, small), batch...)))
	for _, kind := range []byte{KindData, KindBatch} {
		if fr, err := readAny(r); err != nil || fr.Kind != kind || fr.BodyCRC != 0 {
			t.Fatalf("whole-body decode of kind %d: kind %d, recorded checksum %#x, %v", kind, fr.Kind, fr.BodyCRC, err)
		}
	}

	// A body that is valid but not what the encoder writes — here a
	// two-byte varint for tag 5 — must not lend its checksum to one that is.
	msg := mpx.Message{Tag: 5, Parts: []mpx.Part{{Dest: 1, Data: bigPart(20<<10, 1)}}}
	canon := appendFrame(nil, msg)
	b := BodyStart(canon)
	body := append([]byte{canon[b] | 0x80, 0}, canon[b+1:len(canon)-4]...)
	odd := binary.AppendUvarint([]byte{MaxVersion, KindData}, uint64(len(body)))
	odd = binary.LittleEndian.AppendUint32(append(odd, body...), checksum(body))
	fr, err := readAny(NewReader(bytes.NewReader(odd)))
	if err != nil || !msgEqual(fr.Msg, msg) {
		t.Fatalf("overlong tag varint: %v", err)
	}
	if fr.BodyCRC != 0 {
		t.Fatal("a non-canonical body left a checksum that re-encoding cannot match")
	}

	// Nor must a body whose dest is cut down to a NodeID by the decoder:
	// 3<<31 and the 1<<31 it decodes to are both five-byte varints, so the
	// length alone does not tell.
	msg.Parts[0].Dest = 1 << 31
	canon = appendFrame(nil, msg)
	b = BodyStart(canon)
	body = append([]byte(nil), canon[b:len(canon)-4]...)
	body[2+4] |= 0x10 // bit 32 of the dest, which follows the tag and the count
	wide := binary.AppendUvarint([]byte{MaxVersion, KindData}, uint64(len(body)))
	wide = binary.LittleEndian.AppendUint32(append(wide, body...), checksum(body))
	fr, err = readAny(NewReader(bytes.NewReader(wide)))
	if err != nil || !msgEqual(fr.Msg, msg) {
		t.Fatalf("33-bit dest: %v, dest %d", err, fr.Msg.Parts[0].Dest)
	}
	if fr.BodyCRC != 0 {
		t.Fatal("a body whose dest lost its top bit left a checksum that re-encoding cannot match")
	}
}

func firstDiff(a, b []byte) int {
	for i := 0; i < len(a) && i < len(b); i++ {
		if a[i] != b[i] {
			return i
		}
	}
	return min(len(a), len(b))
}
