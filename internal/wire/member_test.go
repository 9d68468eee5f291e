package wire

import (
	"bufio"
	"bytes"
	"errors"
	"testing"
)

// TestMemberFrameRoundTrip drives every membership kind through both
// decoders: the buffer-oriented DecodeAny and the streaming Reader.
func TestMemberFrameRoundTrip(t *testing.T) {
	bodies := [][]byte{nil, {}, []byte("x"), bytes.Repeat([]byte{0xa5}, 300)}
	for _, kind := range []byte{KindJoin, KindDrain, KindView} {
		for _, body := range bodies {
			buf := AppendMemberFrame(nil, kind, body)

			fr, n, err := DecodeAny(buf)
			if err != nil {
				t.Fatalf("DecodeAny kind %d: %v", kind, err)
			}
			if n != len(buf) {
				t.Fatalf("DecodeAny consumed %d of %d bytes", n, len(buf))
			}
			if fr.Kind != kind || !bytes.Equal(fr.Body, body) {
				t.Fatalf("DecodeAny: got kind=%d body=%q, want kind=%d body=%q", fr.Kind, fr.Body, kind, body)
			}

			rd := NewReader(bufio.NewReader(bytes.NewReader(buf)))
			got, err := readAny(rd)
			if err != nil {
				t.Fatalf("readAny kind %d: %v", kind, err)
			}
			if got.Kind != kind || !bytes.Equal(got.Body, body) {
				t.Fatalf("readAny: got kind=%d body=%q, want kind=%d body=%q", got.Kind, got.Body, kind, body)
			}
		}
	}
}

// TestMemberFrameBodyIsOwned verifies the decoded Body survives reuse of
// the input buffer — membership frames are handed to asynchronous hooks,
// so they must not alias the read buffer.
func TestMemberFrameBodyIsOwned(t *testing.T) {
	body := []byte("epoch payload")
	buf := AppendMemberFrame(nil, KindView, body)
	var fr Frame
	if _, _, err := decodeAnyInto(&fr, nil, buf); err != nil {
		t.Fatal(err)
	}
	for i := range buf {
		buf[i] = 0xff
	}
	if !bytes.Equal(fr.Body, body) {
		t.Fatalf("Body aliased the input buffer: %q", fr.Body)
	}
}

// TestGrowFrameRoundTrip drives the growth kinds through
// both decoders with their real body codecs.
func TestGrowFrameRoundTrip(t *testing.T) {
	growBody := EncodeGrow(4)
	attachBody := EncodeAttach(11, "127.0.0.1:40123")
	for _, tc := range []struct {
		kind byte
		body []byte
	}{{KindGrow, growBody}, {KindAttach, attachBody}} {
		buf := AppendMemberFrame(nil, tc.kind, tc.body)
		fr, n, err := DecodeAny(buf)
		if err != nil || n != len(buf) {
			t.Fatalf("DecodeAny kind %d: n=%d err=%v", tc.kind, n, err)
		}
		if fr.Kind != tc.kind || !bytes.Equal(fr.Body, tc.body) {
			t.Fatalf("DecodeAny: got kind=%d body=%q", fr.Kind, fr.Body)
		}
		rd := NewReader(bufio.NewReader(bytes.NewReader(buf)))
		got, err := readAny(rd)
		if err != nil || got.Kind != tc.kind || !bytes.Equal(got.Body, tc.body) {
			t.Fatalf("readAny kind %d: %v", tc.kind, err)
		}
	}
	if d, err := DecodeGrow(growBody); err != nil || d != 4 {
		t.Fatalf("DecodeGrow: %d, %v", d, err)
	}
	if r, a, err := DecodeAttach(attachBody); err != nil || r != 11 || a != "127.0.0.1:40123" {
		t.Fatalf("DecodeAttach: %d, %q, %v", r, a, err)
	}
}

// TestMemberFrameBitFlipDetected: the CRC covers the membership body.
func TestMemberFrameBitFlipDetected(t *testing.T) {
	buf := AppendMemberFrame(nil, KindDrain, bytes.Repeat([]byte{7}, 64))
	buf[10] ^= 0x40
	if _, n, err := DecodeAny(buf); !errors.Is(err, ErrChecksum) || n != len(buf) {
		t.Fatalf("got n=%d err=%v, want whole-frame ErrChecksum", n, err)
	}
}

// TestMemberFrameInMixedStream interleaves membership control frames
// with data frames on one stream, as a member-mode link would see.
func TestMemberFrameInMixedStream(t *testing.T) {
	msg := sampleMessages()[2]
	var stream []byte
	stream = AppendMemberFrame(stream, KindJoin, []byte("j"))
	stream = appendFrame(stream, msg)
	stream = AppendMemberFrame(stream, KindView, []byte("v1"))
	stream = AppendSeqFrame(stream, 9, msg)
	stream = AppendMemberFrame(stream, KindDrain, nil)

	rd := NewReader(bufio.NewReader(bytes.NewReader(stream)))
	wantKinds := []byte{KindJoin, KindData, KindView, KindSeqData, KindDrain}
	for i, want := range wantKinds {
		fr, err := readAny(rd)
		if err != nil {
			t.Fatalf("frame %d: %v", i, err)
		}
		if fr.Kind != want {
			t.Fatalf("frame %d: kind %d, want %d", i, fr.Kind, want)
		}
		if want == KindData || want == KindSeqData {
			if !msgEqual(fr.Msg, msg) {
				t.Fatalf("frame %d: message mismatch: got %#v want %#v", i, fr.Msg, msg)
			}
		}
	}
}
