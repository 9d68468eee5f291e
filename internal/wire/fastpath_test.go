package wire

import (
	"bytes"
	"encoding/binary"
	"errors"
	"hash/crc32"
	"testing"

	"repro/internal/cube"
	"repro/internal/mpx"
)

// TestChecksumIsCRC32C pins the polynomial: the four trailer bytes of
// every checksummed frame kind are the little-endian CRC-32C
// (Castagnoli) of its body, and folding the body in pieces gives the
// same sum as one pass.
func TestChecksumIsCRC32C(t *testing.T) {
	crc32c := crc32.MakeTable(crc32.Castagnoli)
	msg := sampleMessages()[3]
	batch, st := BeginBatch(nil)
	batch = SealBatch(AppendBatchMsg(batch, msg), st)
	for name, frame := range map[string][]byte{
		"data":   appendFrame(nil, msg),
		"member": AppendMemberFrame(nil, KindView, bytes.Repeat([]byte{3}, 40)),
	} {
		_, k := binary.Uvarint(frame[2:]) // the body length
		body := frame[2+k : len(frame)-4]
		if got, want := binary.LittleEndian.Uint32(frame[len(frame)-4:]), crc32.Checksum(body, crc32c); got != want {
			t.Fatalf("%s frame: trailer %#x, want CRC-32C %#x", name, got, want)
		}
	}
	body := batch[6 : len(batch)-4]
	if got, want := binary.LittleEndian.Uint32(batch[len(batch)-4:]), crc32.Checksum(body, crc32c); got != want {
		t.Fatalf("batch frame: trailer %#x, want CRC-32C %#x", got, want)
	}
	if crc := checksumUpdate(checksumUpdate(0, body[:7]), body[7:]); crc != checksum(body) {
		t.Fatal("incremental checksum disagrees with one-shot")
	}
}

// TestBatchRoundTrip: messages appended to a batch decode back in order
// through both the slice and streaming decoders, and BatchMsgSize
// accounts for every byte.
func TestBatchRoundTrip(t *testing.T) {
	msgs := sampleMessages()
	frame, start := BeginBatch([]byte("prefix")) // batches may open mid-buffer
	want := BatchOverhead
	for _, m := range msgs {
		frame = AppendBatchMsg(frame, m)
		want += BatchMsgSize(m)
	}
	frame = SealBatch(frame, start)
	if got := len(frame) - len("prefix"); got != want {
		t.Fatalf("batch size = %d, BatchOverhead+Σ BatchMsgSize = %d", got, want)
	}
	fr, n, err := DecodeAny(frame[len("prefix"):])
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	if n != len(frame)-len("prefix") {
		t.Fatalf("consumed %d of %d", n, len(frame)-len("prefix"))
	}
	if fr.Kind != KindBatch || len(fr.Msgs) != len(msgs) {
		t.Fatalf("kind=%d msgs=%d, want batch/%d", fr.Kind, len(fr.Msgs), len(msgs))
	}
	for i := range msgs {
		if !msgEqual(fr.Msgs[i], msgs[i]) {
			t.Fatalf("msg %d mismatch:\n got %#v\nwant %#v", i, fr.Msgs[i], msgs[i])
		}
	}
	sf, err := readAny(NewReader(bytes.NewReader(frame[len("prefix"):])))
	if err != nil || len(sf.Msgs) != len(msgs) {
		t.Fatalf("streaming batch decode: %v (%d msgs)", err, len(sf.Msgs))
	}
}

// TestBatchRejects: empty batches decode to zero messages; corrupt and
// truncated batches are rejected.
func TestBatchRejects(t *testing.T) {
	frame, start := BeginBatch(nil)
	frame = SealBatch(frame, start)
	fr, _, err := DecodeAny(frame)
	if err != nil || fr.Kind != KindBatch || len(fr.Msgs) != 0 {
		t.Fatalf("empty batch: fr=%#v err=%v", fr, err)
	}

	frame, start = BeginBatch(nil)
	frame = AppendBatchMsg(frame, sampleMessages()[2])
	frame = SealBatch(frame, start)

	flip := append([]byte(nil), frame...)
	flip[7] ^= 0x40
	if _, _, err := DecodeAny(flip); !errors.Is(err, ErrChecksum) {
		t.Fatalf("corrupt batch: err=%v, want ErrChecksum", err)
	}
	if _, _, err := DecodeAny(frame[:len(frame)-5]); !errors.Is(err, errTruncated) {
		t.Fatalf("truncated batch: err=%v, want errTruncated", err)
	}
}

// TestAppendFrameVec: the vectored encoder's segments, concatenated,
// are byte-identical to the contiguous encoding, the payload segments alias the parts' own Data slices (no copy), and
// VecOverhead predicts exactly the bytes landing in the block.
func TestAppendFrameVec(t *testing.T) {
	for i, msg := range sampleMessages() {
		// The version argument is the byte stamped and nothing else: any
		// other value gives the same frame from its second byte on.
		for _, ver := range []byte{MaxVersion, 1} {
			over := VecOverhead(ver, msg)
			blk := make([]byte, 0, over+16)
			blk = append(blk, 0xEE) // pre-existing content must be untouched
			blkLen := len(blk)
			blk2, segs := AppendFrameVec(blk, nil, ver, msg)
			if got := len(blk2) - blkLen; got != over {
				t.Fatalf("msg %d v%d: block grew %d bytes, VecOverhead said %d", i, ver, got, over)
			}
			var cat []byte
			for _, s := range segs {
				cat = append(cat, s...)
			}
			if want := AppendFrameV(nil, ver, msg); !bytes.Equal(cat, want) {
				t.Fatalf("msg %d v%d: vectored bytes differ from contiguous encoding", i, ver)
			}
			if cat[0] != ver || !bytes.Equal(cat[1:], appendFrame(nil, msg)[1:]) {
				t.Fatalf("msg %d v%d: the version argument changed more than the version byte", i, ver)
			}
			// Payload segments must be the original slices, not copies.
			npay := 0
			for _, p := range msg.Parts {
				if len(p.Data) == 0 {
					continue
				}
				npay++
				found := false
				for _, s := range segs {
					if len(s) == len(p.Data) && &s[0] == &p.Data[0] {
						found = true
						break
					}
				}
				if !found {
					t.Fatalf("msg %d v%d: payload part was copied, not referenced", i, ver)
				}
			}
			if len(segs) != 1+2*npay && npay > 0 {
				t.Fatalf("msg %d v%d: %d segments for %d payload parts", i, ver, len(segs), npay)
			}
		}
	}
}

// TestDecodeAnyIntoReuse: repeated decodes through one Frame + arena
// pair stay correct when the frames vary in shape, and the previous
// frame's contents are fully replaced.
func TestDecodeAnyIntoReuse(t *testing.T) {
	var fr Frame
	arena := make([]byte, 0, 64)
	frames := [][]byte{}
	for _, msg := range sampleMessages() {
		frames = append(frames, appendFrame(nil, msg))
	}
	b, st := BeginBatch(nil)
	for _, m := range sampleMessages() {
		b = AppendBatchMsg(b, m)
	}
	frames = append(frames, SealBatch(b, st))
	msgs := sampleMessages()
	for round := 0; round < 3; round++ {
		for i, frame := range frames {
			var err error
			arena, _, err = decodeAnyInto(&fr, arena, frame)
			if err != nil {
				t.Fatalf("round %d frame %d: %v", round, i, err)
			}
			switch fr.Kind {
			case KindData:
				if !msgEqual(fr.Msg, msgs[i]) {
					t.Fatalf("round %d frame %d: payload mismatch", round, i)
				}
				if len(fr.Msgs) != 0 {
					t.Fatalf("round %d frame %d: stale Msgs survived reuse", round, i)
				}
			case KindBatch:
				if len(fr.Msgs) != len(msgs) {
					t.Fatalf("round %d: batch decoded %d msgs", round, len(fr.Msgs))
				}
				for j := range msgs {
					if !msgEqual(fr.Msgs[j], msgs[j]) {
						t.Fatalf("round %d: batch msg %d mismatch", round, j)
					}
				}
			}
		}
	}
}

// TestReadAnyIntoStream: a mixed stream of data, batch and control
// frames through one reused Frame.
func TestReadAnyIntoStream(t *testing.T) {
	var stream []byte
	msgs := sampleMessages()
	stream = appendFrame(stream, msgs[2])
	stream = appendFrame(stream, msgs[3])
	stream = appendFrame(stream, msgs[4])
	b, st := BeginBatch(stream)
	b = AppendBatchMsg(b, msgs[1])
	b = AppendBatchMsg(b, msgs[2])
	stream = SealBatch(b, st)
	stream = AppendAck(stream, 17)
	stream = AppendBye(stream)

	r := NewReader(bytes.NewReader(stream))
	var fr Frame
	expect := []struct {
		kind byte
		seq  uint64
	}{{KindData, 0}, {KindData, 0}, {KindData, 0}, {KindBatch, 0}, {KindAck, 17}}
	for i, e := range expect {
		if err := r.ReadAnyInto(&fr); err != nil {
			t.Fatalf("frame %d: %v", i, err)
		}
		if fr.Kind != e.kind || fr.Seq != e.seq {
			t.Fatalf("frame %d: kind=%d seq=%d, want %d/%d", i, fr.Kind, fr.Seq, e.kind, e.seq)
		}
	}
	if err := r.ReadAnyInto(&fr); !errors.Is(err, ErrBye) {
		t.Fatalf("stream end: err=%v, want ErrBye", err)
	}
}

// TestBodyStart: corruption injection must find the body of a data
// frame, and of nothing else.
func TestBodyStart(t *testing.T) {
	msg := mpx.Message{Tag: 9, Parts: []mpx.Part{{Dest: cube.NodeID(3), Data: []byte("payload")}}}
	for name, frame := range map[string][]byte{
		"data": appendFrame(nil, msg),
	} {
		at := BodyStart(frame)
		if at <= 0 || at >= len(frame) {
			t.Fatalf("%s: BodyStart = %d (frame %d bytes)", name, at, len(frame))
		}
		frame[at] ^= 0x01
		if _, _, err := DecodeAny(frame); !errors.Is(err, ErrChecksum) {
			t.Fatalf("%s: flipped body byte: err=%v, want ErrChecksum", name, err)
		}
	}
	b, st := BeginBatch(nil)
	if BodyStart(SealBatch(b, st)) != -1 {
		t.Fatal("BodyStart accepted a batch frame")
	}
	if BodyStart(AppendFrameV(nil, MaxVersion+1, msg)) != -1 {
		t.Fatal("BodyStart accepted a frame of another version")
	}
}
