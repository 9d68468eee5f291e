package wire

import (
	"bytes"
	"testing"

	"repro/internal/cube"
	"repro/internal/mpx"
)

// benchMsg is the broadcast-shaped workload: one 64 KiB part.
func benchMsg() mpx.Message {
	return mpx.Message{Tag: 7, Parts: []mpx.Part{
		{Dest: 3, Offset: 128, Data: bytes.Repeat([]byte{0xA5}, 64<<10), Sum: 0xFEEDFACE},
	}}
}

// benchSmallMsgs is the scatter-shaped workload: many 1 KiB parts bound
// for distinct destinations, the shape the batch frame exists for.
func benchSmallMsgs() []mpx.Message {
	msgs := make([]mpx.Message, 16)
	for i := range msgs {
		msgs[i] = mpx.Message{Tag: i, Parts: []mpx.Part{
			{Dest: cube.NodeID(i), Offset: i << 10, Data: bytes.Repeat([]byte{byte(i)}, 1<<10)},
		}}
	}
	return msgs
}

func BenchmarkAppendFrame(b *testing.B) {
	b.ReportAllocs()
	msg := benchMsg()
	buf := appendFrame(nil, msg)
	b.SetBytes(int64(len(buf)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		buf = appendFrame(buf[:0], msg)
	}
}

// BenchmarkAppendFrameVec measures the vectored encoder: header bytes
// into a reused block, payload by reference, CRC streamed across both.
func BenchmarkAppendFrameVec(b *testing.B) {
	b.ReportAllocs()
	msg := benchMsg()
	over := VecOverhead(MaxVersion, msg)
	blk := make([]byte, 0, over)
	segs := make([][]byte, 0, 4)
	b.SetBytes(int64(over + len(msg.Parts[0].Data)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		blk, segs = AppendFrameVec(blk[:0], segs[:0], MaxVersion, msg)
	}
	_ = blk
}

// BenchmarkAppendBatch measures sealing 16 scatter-sized messages into
// one batch frame: one header, one CRC for the lot.
func BenchmarkAppendBatch(b *testing.B) {
	b.ReportAllocs()
	msgs := benchSmallMsgs()
	buf, st := BeginBatch(nil)
	for _, m := range msgs {
		buf = AppendBatchMsg(buf, m)
	}
	buf = SealBatch(buf, st)
	b.SetBytes(int64(len(buf)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		buf, st = BeginBatch(buf[:0])
		for _, m := range msgs {
			buf = AppendBatchMsg(buf, m)
		}
		buf = SealBatch(buf, st)
	}
}

func benchDecodeAny(b *testing.B, frame []byte) {
	b.ReportAllocs()
	b.SetBytes(int64(len(frame)))
	var fr Frame
	var arena []byte
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var err error
		arena, _, err = decodeAnyInto(&fr, arena, frame)
		if err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkDecodeFrame(b *testing.B) { benchDecodeAny(b, appendFrame(nil, benchMsg())) }

func BenchmarkDecodeBatch(b *testing.B) {
	buf, st := BeginBatch(nil)
	for _, m := range benchSmallMsgs() {
		buf = AppendBatchMsg(buf, m)
	}
	benchDecodeAny(b, SealBatch(buf, st))
}

// BenchmarkReadAnyInto is the pump-shaped decode: frames through a
// Reader with the reusable Frame, as the TCP read pump runs warm.
func BenchmarkReadAnyInto(b *testing.B) {
	b.ReportAllocs()
	frame := appendFrame(nil, benchMsg())
	b.SetBytes(int64(len(frame)))
	rd := bytes.NewReader(frame)
	r := NewReader(rd)
	var fr Frame
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rd.Reset(frame)
		if err := r.ReadAnyInto(&fr); err != nil {
			b.Fatal(err)
		}
	}
}

// TestEncodeDecodeZeroAllocsWarm is the wire-layer zero-alloc guard the
// issue asks for: once buffers exist, encoding (contiguous, vectored
// and batch) and decoding (decodeAnyInto, ReadAnyInto) allocate nothing
// per frame.
func TestEncodeDecodeZeroAllocsWarm(t *testing.T) {
	msg := benchMsg()
	small := benchSmallMsgs()

	buf := appendFrame(nil, msg)
	if n := testing.AllocsPerRun(100, func() {
		buf = appendFrame(buf[:0], msg)
	}); n != 0 {
		t.Errorf("AppendFrameV: %.0f allocs/op warm, want 0", n)
	}
	blk := make([]byte, 0, VecOverhead(MaxVersion, msg))
	segs := make([][]byte, 0, 4)
	if n := testing.AllocsPerRun(100, func() {
		blk, segs = AppendFrameVec(blk[:0], segs[:0], MaxVersion, msg)
	}); n != 0 {
		t.Errorf("AppendFrameVec: %.0f allocs/op warm, want 0", n)
	}

	batch, st := BeginBatch(nil)
	for _, m := range small {
		batch = AppendBatchMsg(batch, m)
	}
	batch = SealBatch(batch, st)
	if n := testing.AllocsPerRun(100, func() {
		batch, st = BeginBatch(batch[:0])
		for _, m := range small {
			batch = AppendBatchMsg(batch, m)
		}
		batch = SealBatch(batch, st)
	}); n != 0 {
		t.Errorf("batch encode: %.0f allocs/op warm, want 0", n)
	}

	for _, frame := range [][]byte{
		appendFrame(nil, msg),
		batch,
	} {
		var fr Frame
		var arena []byte
		arena, _, err := decodeAnyInto(&fr, arena, frame) // warm the arena and parts
		if err != nil {
			t.Fatal(err)
		}
		if n := testing.AllocsPerRun(100, func() {
			arena, _, err = decodeAnyInto(&fr, arena, frame)
			if err != nil {
				t.Fatal(err)
			}
		}); n != 0 {
			t.Errorf("decodeAnyInto kind=%d: %.0f allocs/op warm, want 0", fr.Kind, n)
		}

		rd := bytes.NewReader(frame)
		r := NewReader(rd)
		var rfr Frame
		if err := r.ReadAnyInto(&rfr); err != nil { // warm the reader buffers
			t.Fatal(err)
		}
		if n := testing.AllocsPerRun(100, func() {
			rd.Reset(frame)
			if err := r.ReadAnyInto(&rfr); err != nil {
				t.Fatal(err)
			}
		}); n != 0 {
			t.Errorf("ReadAnyInto kind=%d: %.0f allocs/op warm, want 0", rfr.Kind, n)
		}
	}
}
