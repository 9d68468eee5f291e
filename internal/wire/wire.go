// Package wire is the length-prefixed, checksummed frame codec that
// carries mpx.Message values over a byte stream (a TCP neighbor link in
// internal/transport). The paper's runtime exchanges messages only
// between cube neighbors, so a link never multiplexes traffic for third
// parties: one frame is one mpx.Message crossing one link — or, in the
// batch form, several small messages crossing it together.
//
// Frame layout (all integers are unsigned varints unless noted):
//
//	+---------+------+- - - - - - - - - - - - - - - - - - -+
//	| version | kind |  data frames only:                   |
//	|  1 byte | 1 b  |  bodyLen | body | crc32(body) (4 B)  |
//	+---------+------+- - - - - - - - - - - - - - - - - - -+
//
//	body = zigzag(Tag) | nparts | part*
//	part = Dest | zigzag(Offset) | len(Data) | Data | Sum
//
// There is one protocol version, MaxVersion. Every frame, control frame
// and hello carries it in its version byte, and the decoders reject any
// other byte with errVersion: there is nothing to negotiate. The
// checksum is CRC-32C (Castagnoli, hardware-accelerated via SSE4.2/ARMv8
// CRC instructions where the stdlib supports it). The KindBatch frame
// packs many small messages under one header, one length and one
// checksum, so one syscall and one CRC pass cover a burst.
//
// The kind byte separates data frames from the BYE control frame a
// transport sends before closing a link gracefully, so the peer can
// tell an orderly shutdown from a crashed process. The CRC trailer
// covers the body: a frame damaged in flight is detected and dropped by
// the receiver without desynchronizing the stream (the length prefix
// still frames it), which is exactly the path fault-injected corruption
// exercises in the TCP transport.
//
// The codec never panics on hostile input: truncated, oversized and
// bit-flipped frames all return errors (fuzzed in fuzz_test.go).
package wire

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"

	"repro/internal/cube"
	"repro/internal/mpx"
)

// MaxVersion is the wire protocol version: the one byte every encoder
// stamps and every decoder accepts.
const MaxVersion = 4

// Frame kinds.
const (
	// KindData frames carry one encoded mpx.Message.
	KindData = 0
	// kindBye announces an orderly link shutdown: no more frames will
	// follow, and the coming EOF is not a peer failure.
	kindBye = 1
	// KindSeqData is a KindData frame whose CRC-protected body is
	// prefixed with a per-link sequence number — the unit of the
	// resilient transport's at-least-once replay protocol. A reconnecting
	// endpoint replays unacknowledged sequenced frames; the receiver
	// deduplicates by sequence.
	KindSeqData = 2
	// KindAck carries a cumulative acknowledgement: every sequenced frame
	// with sequence <= Seq arrived in order. Control frame, no CRC (a
	// damaged ack is at worst a late ack).
	KindAck = 3
	// KindNack asks the peer to retransmit every sequenced frame with
	// sequence > Seq — sent when a CRC-rejected or out-of-order frame
	// opens a gap in the sequence stream.
	KindNack = 4
	// KindBatch packs several messages under one header and one CRC-32C
	// trailer. Unlike the varint-framed kinds its body length is a
	// fixed-width 4-byte little-endian field, so a builder can seal an
	// open batch by patching the length in place.
	KindBatch = 5
	// KindJoin announces a node attaching to a live mesh: the body is the
	// joiner's membership announcement, opaque to the codec. Data-frame
	// layout (varint length, CRC trailer).
	KindJoin = 6
	// KindDrain announces a graceful leave: the sender will stop
	// participating in collectives and close its links with BYE.
	KindDrain = 7
	// KindView carries an encoded membership view for the epidemic
	// view-agreement flood. Like the other membership kinds the body is
	// opaque here; internal/member owns the encoding.
	KindView = 8
	// KindGrow floods a mesh re-dimensioning event: the body (EncodeGrow)
	// names the new cube dimension every surviving endpoint must widen
	// its link tables to. Idempotent — a receiver already at (or past)
	// the dimension drops it.
	KindGrow = 9
	// KindAttach is a grown joiner's transport-level announcement on each
	// link it established: the body (EncodeAttach) carries the joiner's
	// rank and listen address, so survivors can admit the rank into the
	// membership view and later joiners can find it. Data-frame layout
	// (varint length, CRC trailer), like the membership kinds.
	KindAttach = 10
)

// memberKind reports whether kind is one of the membership or growth
// control kinds, which share the data-frame layout but carry an opaque
// body surfaced as Frame.Body.
func memberKind(kind byte) bool {
	return kind >= KindJoin && kind <= KindAttach
}

// maxBody bounds a frame body, protecting receivers from a corrupted or
// hostile length prefix asking for gigabytes.
const maxBody = 64 << 20

var (
	// ErrChecksum reports a frame whose body failed CRC verification.
	// The frame was consumed whole: the stream remains usable.
	ErrChecksum = errors.New("wire: frame checksum mismatch")
	// errVersion reports a version byte other than MaxVersion.
	errVersion = errors.New("wire: protocol version mismatch")
	// ErrBye is returned by the decoders when the peer announces an orderly
	// shutdown of the link.
	ErrBye = errors.New("wire: peer closed the link")
	// errTruncated reports a frame that ends before its declared length.
	errTruncated = errors.New("wire: truncated frame")
	// errCorrupt reports a structurally invalid frame body (bad varint,
	// part lengths exceeding the body, unknown kind...).
	errCorrupt = errors.New("wire: malformed frame")
)

// castagnoli is the CRC-32C table; crc32.MakeTable returns the stdlib's
// hardware-accelerated implementation where the CPU has one.
var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// checksum computes the frame CRC over body.
func checksum(body []byte) uint32 { return crc32.Checksum(body, castagnoli) }

// checksumUpdate extends an incremental frame CRC — the vectored encode
// path checksums a body that spans several write segments.
func checksumUpdate(crc uint32, p []byte) uint32 { return crc32.Update(crc, castagnoli, p) }

// checkVersion rejects every version byte but MaxVersion.
func checkVersion(v byte) error {
	if v != MaxVersion {
		return fmt.Errorf("%w: version byte %d, want %d", errVersion, v, MaxVersion)
	}
	return nil
}

// zigzag encodes a signed int so small magnitudes stay small.
func zigzag(v int) uint64 { return uint64((int64(v) << 1) ^ (int64(v) >> 63)) }

// unzigzag inverts zigzag.
func unzigzag(u uint64) int { return int(int64(u>>1) ^ -int64(u&1)) }

// uvarintLen returns the encoded size of v.
func uvarintLen(v uint64) int {
	n := 1
	for v >= 0x80 {
		v >>= 7
		n++
	}
	return n
}

// bodyLen returns the encoded body size of msg.
func bodyLen(msg mpx.Message) int {
	n := uvarintLen(zigzag(msg.Tag)) + uvarintLen(uint64(len(msg.Parts)))
	for _, p := range msg.Parts {
		n += uvarintLen(uint64(p.Dest)) +
			uvarintLen(zigzag(p.Offset)) +
			uvarintLen(uint64(len(p.Data))) + len(p.Data) +
			uvarintLen(uint64(p.Sum))
	}
	return n
}

// appendBody appends the encoded message body to dst.
func appendBody(dst []byte, msg mpx.Message) []byte {
	dst = binary.AppendUvarint(dst, zigzag(msg.Tag))
	dst = binary.AppendUvarint(dst, uint64(len(msg.Parts)))
	for _, p := range msg.Parts {
		dst = binary.AppendUvarint(dst, uint64(p.Dest))
		dst = binary.AppendUvarint(dst, zigzag(p.Offset))
		dst = binary.AppendUvarint(dst, uint64(len(p.Data)))
		dst = append(dst, p.Data...)
		dst = binary.AppendUvarint(dst, uint64(p.Sum))
	}
	return dst
}

// AppendFrameV appends one encoded data frame carrying msg to dst and
// returns the extended slice. It allocates only when dst lacks
// capacity, so a transport can coalesce many frames into one reused
// buffer. ver is the version byte it stamps and nothing else; callers
// pass MaxVersion. (The parameter stays, here and on the two vectored
// functions, because bench/ calls these signatures.)
func AppendFrameV(dst []byte, ver byte, msg mpx.Message) []byte {
	body := bodyLen(msg)
	dst = append(dst, ver, KindData)
	dst = binary.AppendUvarint(dst, uint64(body))
	start := len(dst)
	dst = appendBody(dst, msg)
	return binary.LittleEndian.AppendUint32(dst, checksum(dst[start:]))
}

// AppendSeqFrame appends one sequenced data frame: a KindSeqData frame
// whose body is the sequence number followed by the encoded message,
// all covered by the CRC trailer. Sequence numbers start at 1 and
// increase by one per frame on a link; 0 means "nothing sent yet" in
// handshakes and cumulative acks.
func AppendSeqFrame(dst []byte, seq uint64, msg mpx.Message) []byte {
	body := uvarintLen(seq) + bodyLen(msg)
	dst = append(dst, MaxVersion, KindSeqData)
	dst = binary.AppendUvarint(dst, uint64(body))
	start := len(dst)
	dst = binary.AppendUvarint(dst, seq)
	dst = appendBody(dst, msg)
	return binary.LittleEndian.AppendUint32(dst, checksum(dst[start:]))
}

// AppendAck appends a cumulative-acknowledgement control frame: every
// sequenced frame with sequence <= cum has been received in order.
// Control frames carry no CRC (a damaged ack is at worst a late ack).
func AppendAck(dst []byte, cum uint64) []byte {
	dst = append(dst, MaxVersion, KindAck)
	return binary.AppendUvarint(dst, cum)
}

// AppendNack appends a retransmission request: resend every sequenced
// frame with sequence > from.
func AppendNack(dst []byte, from uint64) []byte {
	dst = append(dst, MaxVersion, KindNack)
	return binary.AppendUvarint(dst, from)
}

// AppendBye appends the orderly-shutdown control frame to dst.
func AppendBye(dst []byte) []byte { return append(dst, MaxVersion, kindBye) }

// Batch frames: many small messages, one header, one CRC.
//
// Layout: version | KindBatch | bodyLen (4 B, LE) | body | crc32c(body)
// with body = repeat( msgLen uvarint | message body ). The fixed-width
// length lets a builder open a batch, append messages as they arrive
// and seal it by patching the length — no copy, no second pass.

// BatchOverhead is the fixed per-frame cost of a batch: version + kind,
// the 4-byte length field and the CRC trailer.
const BatchOverhead = 2 + 4 + 4

// BatchMsgSize returns the encoded size msg adds to an open batch.
func BatchMsgSize(msg mpx.Message) int {
	b := bodyLen(msg)
	return uvarintLen(uint64(b)) + b
}

// BeginBatch appends an open batch-frame header to dst and returns the
// extended slice plus the frame's start offset, which SealBatch needs.
func BeginBatch(dst []byte) ([]byte, int) {
	start := len(dst)
	dst = append(dst, MaxVersion, KindBatch, 0, 0, 0, 0)
	return dst, start
}

// AppendBatchMsg appends one message to the open batch at the tail of
// dst.
func AppendBatchMsg(dst []byte, msg mpx.Message) []byte {
	b := bodyLen(msg)
	dst = binary.AppendUvarint(dst, uint64(b))
	return appendBody(dst, msg)
}

// SealBatch closes the batch opened at start: it patches the length
// field and appends the CRC-32C trailer, returning the extended slice.
func SealBatch(dst []byte, start int) []byte {
	body := dst[start+6:]
	binary.LittleEndian.PutUint32(dst[start+2:], uint32(len(body)))
	return binary.LittleEndian.AppendUint32(dst, checksum(body))
}

// Vectored frames: headers in a small block, payload by reference.
//
// AppendFrameVec encodes a data frame without copying the payload: the
// non-payload bytes (header, per-part varints, CRC trailer) are
// appended to blk, the payload stays in the parts' own Data slices, and
// the wire-order segment list — alternating blk spans and payload
// references — is appended to segs, ready for a net.Buffers vectored
// write. The CRC is computed incrementally across the segments, unless
// the caller already holds it (AppendFrameVecCRC).

// VecOverhead returns the number of non-payload bytes AppendFrameVec
// appends to blk for a frame carrying msg, whatever its version byte
// (see AppendFrameV on the parameter).
func VecOverhead(_ byte, msg mpx.Message) int {
	body := bodyLen(msg)
	n := 2 + uvarintLen(uint64(body)) + body + 4
	for _, p := range msg.Parts {
		n -= len(p.Data)
	}
	return n
}

// AppendFrameVec appends the non-payload spans of a data frame to blk
// and the full segment list to segs. blk MUST have VecOverhead(ver,
// msg) spare capacity: the returned segments alias it, so a growth
// reallocation would orphan them (transports enforce this with
// fixed-capacity pooled blocks). The CRC covers the payload bytes as
// they are now — the usual send contract (payload immutable until
// delivered) applies.
func AppendFrameVec(blk []byte, segs [][]byte, ver byte, msg mpx.Message) ([]byte, [][]byte) {
	return AppendFrameVecCRC(blk, segs, ver, msg, 0)
}

// AppendFrameVecCRC is AppendFrameVec for a relay forwarding msg
// verbatim: bodyCRC, when nonzero, is the Frame.BodyCRC a Reader
// recorded when it verified this very message — same tag, same parts —
// and becomes the trailer as it stands, so the payload is not summed a
// second time. A message has one canonical encoding and the Reader
// records a checksum only for a body that is it, so the frame is
// bit-identical to AppendFrameVec's. The next receiver verifies it like
// any other: bytes damaged in the relay's memory since fail there, where
// a re-computed checksum would have signed them. Zero means no hint.
func AppendFrameVecCRC(blk []byte, segs [][]byte, ver byte, msg mpx.Message, bodyCRC uint32) ([]byte, [][]byte) {
	body := bodyLen(msg)
	spanFrom := len(blk)
	blk = append(blk, ver, KindData)
	blk = binary.AppendUvarint(blk, uint64(body))
	crcFrom := len(blk)
	blk = binary.AppendUvarint(blk, zigzag(msg.Tag))
	blk = binary.AppendUvarint(blk, uint64(len(msg.Parts)))
	crc := uint32(0)
	for _, p := range msg.Parts {
		blk = binary.AppendUvarint(blk, uint64(p.Dest))
		blk = binary.AppendUvarint(blk, zigzag(p.Offset))
		blk = binary.AppendUvarint(blk, uint64(len(p.Data)))
		if len(p.Data) > 0 {
			// Close the open blk span, then emit the payload by reference.
			if bodyCRC == 0 {
				crc = checksumUpdate(crc, blk[crcFrom:])
				crc = checksumUpdate(crc, p.Data)
			}
			segs = append(segs, blk[spanFrom:len(blk):len(blk)], p.Data)
			spanFrom, crcFrom = len(blk), len(blk)
		}
		blk = binary.AppendUvarint(blk, uint64(p.Sum))
	}
	if bodyCRC == 0 {
		bodyCRC = checksumUpdate(crc, blk[crcFrom:])
	}
	blk = binary.LittleEndian.AppendUint32(blk, bodyCRC)
	segs = append(segs, blk[spanFrom:len(blk):len(blk)])
	return blk, segs
}

// BodyStart returns the offset of the first body byte of the data frame
// (plain or sequenced) at the start of buf, or -1 if
// buf does not begin with a well-formed data-frame header. Transports
// use it to flip body bytes when injecting in-flight corruption: damage
// past this offset is caught by the CRC without desynchronizing the
// stream.
func BodyStart(buf []byte) int {
	if len(buf) < 2 || buf[0] != MaxVersion || (buf[1] != KindData && buf[1] != KindSeqData) {
		return -1
	}
	n, k := binary.Uvarint(buf[2:])
	if k <= 0 || n == 0 {
		return -1
	}
	return 2 + k
}

// Frame is one decoded frame of any kind. Seq carries the sequence
// number of a KindSeqData frame, the cumulative acknowledgement of a
// KindAck frame, or the replay-from watermark of a KindNack frame; Msg
// is set for the single-message data kinds, Msgs for KindBatch.
type Frame struct {
	Kind byte
	// BodyCRC is the checksum the Reader verified over the body of a
	// streamed KindData frame, recorded only when that body is the
	// canonical encoding of Msg; zero on every other decode. It lets a
	// relay forward Msg verbatim without summing the payload again
	// (AppendFrameVecCRC).
	BodyCRC uint32
	Seq     uint64
	Msg     mpx.Message
	Msgs    []mpx.Message
	// Body holds the opaque payload of a membership or growth control
	// frame (KindJoin/KindDrain/KindView/KindGrow/KindAttach). It is a
	// fresh copy owned by the caller — these are rare control traffic,
	// so the copy buys hook safety at no hot-path cost.
	Body []byte
}

// AppendMemberFrame appends a membership or growth control frame
// (KindJoin, KindDrain, KindView, KindGrow or KindAttach) to dst.
// Layout matches the varint data kinds: version | kind | bodyLen
// (uvarint) | body | crc32c(body).
func AppendMemberFrame(dst []byte, kind byte, body []byte) []byte {
	if !memberKind(kind) {
		panic(fmt.Sprintf("wire: AppendMemberFrame(kind=%d)", kind))
	}
	dst = append(dst, MaxVersion, kind)
	dst = binary.AppendUvarint(dst, uint64(len(body)))
	dst = append(dst, body...)
	return binary.LittleEndian.AppendUint32(dst, checksum(body))
}

// maxAttachAddr bounds the address carried by a KindAttach body — far
// above any host:port or unix socket path, low enough that a corrupt
// length cannot ask for a huge allocation.
const maxAttachAddr = 1024

// EncodeGrow builds the KindGrow body: the new cube dimension as a
// uvarint.
func EncodeGrow(dim int) []byte {
	return binary.AppendUvarint(nil, uint64(dim))
}

// DecodeGrow inverts EncodeGrow, validating the dimension range.
func DecodeGrow(body []byte) (int, error) {
	d, n := binary.Uvarint(body)
	if n <= 0 {
		return 0, fmt.Errorf("%w: bad grow dimension", errCorrupt)
	}
	if len(body) != n {
		return 0, fmt.Errorf("%w: %d trailing bytes after grow body", errCorrupt, len(body)-n)
	}
	if d == 0 || d > uint64(cube.MaxDim) {
		return 0, fmt.Errorf("%w: grow dimension %d out of range 1..%d", errCorrupt, d, cube.MaxDim)
	}
	return int(d), nil
}

// EncodeAttach builds the KindAttach body: the attaching rank as a
// uvarint followed by its listen address length (uvarint) and bytes.
func EncodeAttach(rank cube.NodeID, addr string) []byte {
	body := binary.AppendUvarint(nil, uint64(rank))
	body = binary.AppendUvarint(body, uint64(len(addr)))
	return append(body, addr...)
}

// DecodeAttach inverts EncodeAttach, validating rank and address
// bounds.
func DecodeAttach(body []byte) (cube.NodeID, string, error) {
	r, n := binary.Uvarint(body)
	if n <= 0 {
		return 0, "", fmt.Errorf("%w: bad attach rank", errCorrupt)
	}
	if r >= 1<<uint(cube.MaxDim) {
		return 0, "", fmt.Errorf("%w: attach rank %d out of range", errCorrupt, r)
	}
	body = body[n:]
	alen, n := binary.Uvarint(body)
	if n <= 0 {
		return 0, "", fmt.Errorf("%w: bad attach address length", errCorrupt)
	}
	if alen > maxAttachAddr {
		return 0, "", fmt.Errorf("%w: attach address of %d bytes exceeds limit %d", errCorrupt, alen, maxAttachAddr)
	}
	body = body[n:]
	if uint64(len(body)) != alen {
		return 0, "", fmt.Errorf("%w: attach address truncated (%d of %d bytes)", errCorrupt, len(body), alen)
	}
	return cube.NodeID(r), string(body), nil
}

// DecodeAny decodes the frame of any kind at the start of buf,
// returning the frame, the number of bytes consumed, and an error.
// ErrBye marks a consumed shutdown frame. On ErrChecksum the frame was
// consumed whole (n covers it); every other error leaves n at the bytes
// it could parse. The returned frame owns freshly copied payloads.
func DecodeAny(buf []byte) (Frame, int, error) {
	var fr Frame
	_, n, err := decodeAnyInto(&fr, nil, buf)
	return fr, n, err
}

// decodeAnyInto is DecodeAny with caller-managed reuse: parts are
// decoded into fr.Msg.Parts / fr.Msgs (capacity reused) and payload
// bytes into arena, which is grown only when too small and returned for
// the next call. A caller looping with the same fr and arena decodes
// warm frames without allocating. The decoded frame — including every
// payload slice — is valid only until the next call with the same
// arguments.
func decodeAnyInto(fr *Frame, arena []byte, buf []byte) ([]byte, int, error) {
	fr.Seq = 0
	fr.Msg.Tag = 0
	fr.Msg.Parts = fr.Msg.Parts[:0]
	fr.Msgs = fr.Msgs[:0]
	fr.Body = nil
	arena = arena[:0]
	if len(buf) < 2 {
		fr.Kind = 0
		return arena, 0, errTruncated
	}
	if err := checkVersion(buf[0]); err != nil {
		return arena, 0, err
	}
	kind := buf[1]
	fr.Kind = kind
	switch kind {
	case kindBye:
		return arena, 2, ErrBye
	case KindAck, KindNack:
		v, k := binary.Uvarint(buf[2:])
		if k <= 0 {
			return arena, 0, fmt.Errorf("%w: bad ack sequence", errCorrupt)
		}
		fr.Seq = v
		return arena, 2 + k, nil
	case KindData, KindSeqData, KindJoin, KindDrain, KindView, KindGrow, KindAttach:
	case KindBatch:
		if len(buf) < 6 {
			return arena, 0, errTruncated
		}
		blen := binary.LittleEndian.Uint32(buf[2:6])
		if blen > maxBody {
			return arena, 0, fmt.Errorf("%w: body of %d bytes exceeds limit %d", errCorrupt, blen, maxBody)
		}
		total := 6 + int(blen) + 4
		if len(buf) < total {
			return arena, 0, errTruncated
		}
		body := buf[6 : 6+blen]
		if checksum(body) != binary.LittleEndian.Uint32(buf[6+blen:]) {
			return arena, total, ErrChecksum
		}
		arena, err := decodeBatch(fr, arena, body)
		return arena, total, err
	default:
		return arena, 0, fmt.Errorf("%w: unknown frame kind %d", errCorrupt, kind)
	}
	blen, k := binary.Uvarint(buf[2:])
	if k <= 0 {
		return arena, 0, fmt.Errorf("%w: bad body length", errCorrupt)
	}
	if blen > maxBody {
		return arena, 0, fmt.Errorf("%w: body of %d bytes exceeds limit %d", errCorrupt, blen, maxBody)
	}
	hdr := 2 + k
	total := hdr + int(blen) + 4
	if len(buf) < total {
		return arena, 0, errTruncated
	}
	body := buf[hdr : hdr+int(blen)]
	if checksum(body) != binary.LittleEndian.Uint32(buf[hdr+int(blen):]) {
		return arena, total, ErrChecksum
	}
	if memberKind(kind) {
		fr.Body = append([]byte(nil), body...)
		return arena, total, nil
	}
	if kind == KindSeqData {
		seq, n, ok := readUvarint(body)
		if !ok {
			return arena, total, fmt.Errorf("%w: bad frame sequence", errCorrupt)
		}
		fr.Seq = seq
		body = body[n:]
	}
	arena, err := decodeBodyInto(&fr.Msg, arena, body)
	return arena, total, err
}

// decodeBatch parses a CRC-verified batch body into fr.Msgs, reusing
// the slice's element capacity (each element keeps its Parts backing)
// and one shared arena for every sub-message's payload.
func decodeBatch(fr *Frame, arena []byte, body []byte) ([]byte, error) {
	// One arena serves the whole batch. The body length bounds the total
	// payload, so sizing to it guarantees decodeBodyInto never regrows
	// mid-batch.
	if cap(arena) < len(body) {
		arena = make([]byte, 0, len(body))
	}
	for len(body) > 0 {
		mlen, k, ok := readUvarint(body)
		if !ok || mlen > uint64(len(body)-k) {
			return arena, fmt.Errorf("%w: bad batch message length", errCorrupt)
		}
		body = body[k:]
		var err error
		arena, err = decodeBodyInto(nextMsg(fr), arena, body[:mlen])
		if err != nil {
			fr.Msgs = fr.Msgs[:len(fr.Msgs)-1]
			return arena, err
		}
		body = body[mlen:]
	}
	return arena, nil
}

// bodyPayload walks the part headers of a body (after tag and count)
// and sums the payload bytes, without building anything. It lets
// decodeBodyInto size one arena for the whole message up front — parts
// slice into the arena, so it must never grow mid-parse.
func bodyPayload(rest []byte, nparts uint64) (int, bool) {
	total := 0
	for i := uint64(0); i < nparts; i++ {
		for j := 0; j < 2; j++ { // dest, offset
			_, n, ok := readUvarint(rest)
			if !ok {
				return 0, false
			}
			rest = rest[n:]
		}
		dlen, n, ok := readUvarint(rest)
		if !ok || dlen > uint64(len(rest)-n) {
			return 0, false
		}
		rest = rest[n+int(dlen):]
		total += int(dlen)
		_, n, ok = readUvarint(rest) // sum
		if !ok {
			return 0, false
		}
		rest = rest[n:]
	}
	return total, true
}

// decodeBodyInto parses one CRC-verified message body. Parts are
// appended to msg.Parts (reset first, capacity reused) and payload
// bytes appended to arena — one backing array per message, so a fresh
// decode costs at most two allocations and a warm reuse costs none.
// When arena lacks capacity a new one is allocated WITHOUT copying:
// slices handed out earlier keep the old backing alive, so batch
// decoding stays safe.
func decodeBodyInto(msg *mpx.Message, arena []byte, body []byte) ([]byte, error) {
	msg.Tag = 0
	msg.Parts = msg.Parts[:0]
	tag, n, ok := readUvarint(body)
	if !ok {
		return arena, fmt.Errorf("%w: bad tag", errCorrupt)
	}
	body = body[n:]
	msg.Tag = unzigzag(tag)
	nparts, n, ok := readUvarint(body)
	if !ok {
		return arena, fmt.Errorf("%w: bad part count", errCorrupt)
	}
	body = body[n:]
	// Each part costs at least 4 encoded bytes; a count beyond that is a
	// lie and must not drive the allocation below.
	if nparts > uint64(len(body)/4)+1 {
		return arena, fmt.Errorf("%w: %d parts in %d body bytes", errCorrupt, nparts, len(body))
	}
	total, ok := bodyPayload(body, nparts)
	if !ok {
		return arena, fmt.Errorf("%w: bad part layout", errCorrupt)
	}
	if cap(arena)-len(arena) < total {
		arena = make([]byte, 0, total)
	}
	if nparts > 0 && cap(msg.Parts) < int(nparts) {
		msg.Parts = make([]mpx.Part, 0, nparts)
	}
	for i := uint64(0); i < nparts; i++ {
		var p mpx.Part
		dest, n, ok := readUvarint(body)
		if !ok {
			return arena, fmt.Errorf("%w: part %d dest", errCorrupt, i)
		}
		body = body[n:]
		p.Dest = cube.NodeID(dest)
		off, n, ok := readUvarint(body)
		if !ok {
			return arena, fmt.Errorf("%w: part %d offset", errCorrupt, i)
		}
		body = body[n:]
		p.Offset = unzigzag(off)
		dlen, n, ok := readUvarint(body)
		if !ok || dlen > uint64(len(body)-n) {
			return arena, fmt.Errorf("%w: part %d data length", errCorrupt, i)
		}
		body = body[n:]
		if dlen > 0 {
			at := len(arena)
			arena = append(arena, body[:dlen]...)
			p.Data = arena[at:len(arena):len(arena)]
			body = body[dlen:]
		}
		sum, n, ok := readUvarint(body)
		if !ok || sum > 0xFFFFFFFF {
			return arena, fmt.Errorf("%w: part %d checksum", errCorrupt, i)
		}
		body = body[n:]
		p.Sum = uint32(sum)
		msg.Parts = append(msg.Parts, p)
	}
	if len(body) != 0 {
		return arena, fmt.Errorf("%w: %d trailing body bytes", errCorrupt, len(body))
	}
	return arena, nil
}

// decodeBodyAlias parses one CRC-verified message body whose backing
// buffer the caller owns and will never reuse: parts alias body in
// place instead of being copied to an arena, so a fresh decode costs
// one Parts allocation and zero payload moves.
func decodeBodyAlias(msg *mpx.Message, body []byte) error {
	msg.Tag = 0
	msg.Parts = msg.Parts[:0]
	tag, n, ok := readUvarint(body)
	if !ok {
		return fmt.Errorf("%w: bad tag", errCorrupt)
	}
	body = body[n:]
	msg.Tag = unzigzag(tag)
	nparts, n, ok := readUvarint(body)
	if !ok {
		return fmt.Errorf("%w: bad part count", errCorrupt)
	}
	body = body[n:]
	if nparts > uint64(len(body)/4)+1 {
		return fmt.Errorf("%w: %d parts in %d body bytes", errCorrupt, nparts, len(body))
	}
	if nparts > 0 && cap(msg.Parts) < int(nparts) {
		msg.Parts = make([]mpx.Part, 0, nparts)
	}
	for i := uint64(0); i < nparts; i++ {
		var p mpx.Part
		dest, n, ok := readUvarint(body)
		if !ok {
			return fmt.Errorf("%w: part %d dest", errCorrupt, i)
		}
		body = body[n:]
		p.Dest = cube.NodeID(dest)
		off, n, ok := readUvarint(body)
		if !ok {
			return fmt.Errorf("%w: part %d offset", errCorrupt, i)
		}
		body = body[n:]
		p.Offset = unzigzag(off)
		dlen, n, ok := readUvarint(body)
		if !ok || dlen > uint64(len(body)-n) {
			return fmt.Errorf("%w: part %d data length", errCorrupt, i)
		}
		body = body[n:]
		if dlen > 0 {
			p.Data = body[:dlen:dlen]
			body = body[dlen:]
		}
		sum, n, ok := readUvarint(body)
		if !ok || sum > 0xFFFFFFFF {
			return fmt.Errorf("%w: part %d checksum", errCorrupt, i)
		}
		body = body[n:]
		p.Sum = uint32(sum)
		msg.Parts = append(msg.Parts, p)
	}
	if len(body) != 0 {
		return fmt.Errorf("%w: %d trailing body bytes", errCorrupt, len(body))
	}
	return nil
}

// decodeBatchAlias is decodeBatch for a caller-owned body: every
// message's parts alias the batch body in place.
func decodeBatchAlias(fr *Frame, body []byte) error {
	for len(body) > 0 {
		mlen, k, ok := readUvarint(body)
		if !ok || mlen > uint64(len(body)-k) {
			return fmt.Errorf("%w: bad batch message length", errCorrupt)
		}
		body = body[k:]
		if err := decodeBodyAlias(nextMsg(fr), body[:mlen]); err != nil {
			fr.Msgs = fr.Msgs[:len(fr.Msgs)-1]
			return err
		}
		body = body[mlen:]
	}
	return nil
}

// nextMsg appends one message slot to fr.Msgs and returns it. It extends
// within capacity first, so a recycled element keeps its Parts backing
// for the decode to reuse.
func nextMsg(fr *Frame) *mpx.Message {
	if n := len(fr.Msgs); n < cap(fr.Msgs) {
		fr.Msgs = fr.Msgs[:n+1]
	} else {
		fr.Msgs = append(fr.Msgs, mpx.Message{})
	}
	return &fr.Msgs[len(fr.Msgs)-1]
}

// readUvarint is binary.Uvarint with an ok flag instead of sign tricks.
func readUvarint(b []byte) (uint64, int, bool) {
	v, n := binary.Uvarint(b)
	if n <= 0 {
		return 0, 0, false
	}
	return v, n, true
}

// Reader decodes frames from a byte stream. ReadInto decodes into a body
// buffer and a Frame the caller recycles; ReadAnyInto copies payloads
// into an arena of the reader's own, so a warm loop allocates nothing.
//
// A frame takes one of two decode paths, chosen from its own header. A
// single-message data frame whose parts are large on average (ReadInto
// only) is streamed: its part headers are parsed off the stream
// and each payload is read from the source straight into its final place
// — the slice the Landing function names, or a buffer of the part's own
// — with the CRC folded over the bytes as they pass. Every other frame is
// read whole into one body buffer, verified, then parsed.
type Reader struct {
	r     io.Reader
	br    io.ByteReader // r, when it reads single bytes itself
	hdr   [6]byte
	buf   []byte
	arena []byte // payload arena for ReadAnyInto

	land Landing
	// streamMin is the average part size from which a data frame is
	// streamed (streamPartMin; the differential fuzz lowers it).
	streamMin int
	head      []byte // header bytes of a streamed body awaiting the CRC fold
}

// Landing is a posted receive. Before the reader takes one part's n
// payload bytes of a streamed data frame off the source it asks where
// they belong: seq is the frame's sequence number (0 on a plain data
// frame), tag its message tag, nparts its part count and offset the
// part's Offset. An answer of length n receives the bytes in place; any
// other answer (nil: "nowhere in particular") gets the part a fresh
// buffer. The bytes are written BEFORE the frame's checksum is known: a
// frame that then fails it is reported as ErrChecksum and never
// decoded, so an answer must be safe to overwrite until the message it
// belongs to has actually been delivered.
type Landing func(seq uint64, tag, nparts, offset, n int) []byte

// streamPartMin is the average part size (body length over part count)
// from which a data frame is streamed rather than read whole. Below it
// a per-part read and a per-part buffer cost more than the one body
// buffer whose parts alias it in place: a 32 x 1 KiB scatter bundle
// stays one allocation and one read.
const streamPartMin = 16 << 10

// NewReader returns a frame reader over r. Wrap r in a bufio.Reader if
// it issues unbuffered syscalls.
func NewReader(r io.Reader) *Reader {
	br, _ := r.(io.ByteReader)
	return &Reader{r: r, br: br, streamMin: streamPartMin}
}

// Land installs the posted-receive hook ReadInto consults for streamed
// frames. Call it before the first read.
func (r *Reader) Land(land Landing) { r.land = land }

// ReadInto reads the next frame of any kind into fr. It returns ErrBye
// on an orderly shutdown frame and ErrChecksum for a damaged-but-framed
// body (the stream stays aligned; the caller may keep reading — fr still
// carries the kind). Any other error is terminal for the stream. Every
// data or batch frame that is read whole, whatever its size, lands in
// body, grown when it is too small, and its parts alias it in place;
// inBody reports that. fr's Parts and Msgs keep their capacity, and a
// recycled batch element keeps its Parts backing. The other frames —
// streamed data frames, membership control frames and acks — hold
// nothing of body: a streamed frame's payloads and part table are its
// own. The returned buffer is the one to pass next time, whatever the
// error. A frame in body is valid until body or fr is passed again.
func (r *Reader) ReadInto(fr *Frame, body []byte) (_ []byte, inBody bool, err error) {
	return r.readFrame(fr, nil, body)
}

// ReadAnyInto is ReadInto with full reuse: fr's part/message slices and
// the reader's internal payload arena are recycled, so a caller looping
// over a warm stream decodes without allocating. The decoded frame —
// including every payload slice — is valid only until the next
// ReadAnyInto call.
func (r *Reader) ReadAnyInto(fr *Frame) error {
	if r.arena == nil {
		r.arena = make([]byte, 0, 64)
	}
	_, _, err := r.readFrame(fr, r.arena, nil)
	return err
}

// readFrame reads one frame. A non-nil arena (ReadAnyInto) means payloads
// are copied into it, which is stored back on the reader, and nothing is
// streamed; otherwise it is ReadInto.
func (r *Reader) readFrame(fr *Frame, arena, body []byte) ([]byte, bool, error) {
	reuse := arena != nil
	fr.Seq, fr.BodyCRC = 0, 0
	fr.Msg.Tag = 0
	fr.Msg.Parts = fr.Msg.Parts[:0]
	fr.Msgs = fr.Msgs[:0]
	fr.Body = nil
	if _, err := io.ReadFull(r.r, r.hdr[:2]); err != nil {
		return body, false, err
	}
	if err := checkVersion(r.hdr[0]); err != nil {
		return body, false, err
	}
	kind := r.hdr[1]
	fr.Kind = kind
	var blen uint64
	switch kind {
	case kindBye:
		return body, false, ErrBye
	case KindAck, KindNack:
		v, err := r.readUvarint()
		if err != nil {
			return body, false, fmt.Errorf("%w: bad ack sequence", errCorrupt)
		}
		fr.Seq = v
		return body, false, nil
	case KindData, KindSeqData, KindJoin, KindDrain, KindView, KindGrow, KindAttach:
		v, err := r.readUvarint()
		if err != nil {
			return body, false, fmt.Errorf("%w: bad body length", errCorrupt)
		}
		blen = v
	case KindBatch:
		if _, err := io.ReadFull(r.r, r.hdr[2:6]); err != nil {
			return body, false, unexpectedEOF(err)
		}
		blen = uint64(binary.LittleEndian.Uint32(r.hdr[2:6]))
	default:
		return body, false, fmt.Errorf("%w: unknown frame kind %d", errCorrupt, kind)
	}
	if blen > maxBody {
		return body, false, fmt.Errorf("%w: body of %d bytes exceeds limit %d", errCorrupt, blen, maxBody)
	}
	need := int(blen) + 4
	var raw []byte
	inBody := false
	lead := 0 // body bytes already consumed into r.head
	if reuse {
		if cap(r.buf) < need {
			r.buf = make([]byte, need)
		}
		raw = r.buf[:need]
	} else {
		if (kind == KindData || kind == KindSeqData) && int(blen) >= r.streamMin {
			// Large enough to have large parts: the part count, a few bytes
			// in, decides. What that look consumed is the body's prefix.
			seq, tag, nparts, ok, err := r.readLead(kind, int(blen))
			if err != nil {
				return body, false, err
			}
			if ok && nparts > 0 && blen/nparts >= uint64(r.streamMin) {
				fr.Seq = seq
				return body, false, r.readStreamed(fr, tag, int(nparts), int(blen)-len(r.head))
			}
			lead = len(r.head)
		}
		inBody = !memberKind(kind)
		if cap(body) < need {
			// With room to spare: a recycled body meets frames a few bytes
			// apart, as tags lengthen with the sequence number.
			body = make([]byte, need, need+need/8)
		}
		raw = body[:need]
		copy(raw, r.head[:lead])
	}
	if _, err := io.ReadFull(r.r, raw[lead:]); err != nil {
		return body, false, unexpectedEOF(err)
	}
	data := raw[:blen]
	if checksum(data) != binary.LittleEndian.Uint32(raw[blen:]) {
		return body, false, ErrChecksum
	}
	var err error
	switch kind {
	case KindJoin, KindDrain, KindView, KindGrow, KindAttach:
		fr.Body = append([]byte(nil), data...)
		return body, false, nil
	case KindBatch:
		if reuse {
			arena, err = decodeBatch(fr, arena[:0], data)
		} else {
			err = decodeBatchAlias(fr, data)
		}
	case KindSeqData:
		seq, n, ok := readUvarint(data)
		if !ok {
			return body, false, fmt.Errorf("%w: bad frame sequence", errCorrupt)
		}
		fr.Seq = seq
		data = data[n:]
		fallthrough
	default: // KindData (and the SeqData fallthrough)
		if reuse {
			arena, err = decodeBodyInto(&fr.Msg, arena[:0], data)
		} else {
			err = decodeBodyAlias(&fr.Msg, data)
		}
	}
	if reuse {
		r.arena = arena
	}
	return body, inBody && err == nil, err
}

// readLead consumes the leading fields of a data frame's body — the
// sequence number of a KindSeqData frame, the tag and the part count —
// into r.head. ok is false when one of them is malformed or the body
// (blen bytes) ends first; what was consumed is in r.head either way,
// and the whole-body path reports such a frame exactly as it always
// has.
func (r *Reader) readLead(kind byte, blen int) (seq, tag, nparts uint64, ok bool, err error) {
	r.head = r.head[:0]
	left := blen
	if kind == KindSeqData {
		if seq, ok, err = r.streamUvarint(&left); !ok {
			return
		}
	}
	if tag, ok, err = r.streamUvarint(&left); !ok {
		return
	}
	nparts, ok, err = r.streamUvarint(&left)
	return
}

// readStreamed decodes the rest of a data frame whose lead (in r.head)
// announced nparts parts of tag, with left body bytes to go: part
// headers come off the stream, each payload is read into the place the
// Landing function names, and the CRC is folded over all of it in wire
// order.
//
// The whole-body path verifies the CRC before it parses, so a damaged
// header is a checksum failure there. Here the parser meets the damage
// first; to report the same thing it folds the rest of the body without
// parsing it, stays aligned on the trailer, and calls the frame
// malformed only when the trailer agrees with the bytes that arrived.
//
// A well-formed KindData frame leaves its verified checksum on the frame
// (Frame.BodyCRC) when the body was the canonical encoding of the
// message — every field kept whole and every varint minimal, the body
// being no longer than bodyLen says — so that re-encoding the message
// reproduces these very bytes.
func (r *Reader) readStreamed(fr *Frame, tag uint64, nparts, left int) error {
	blen := len(r.head) + left
	fr.Msg.Tag = unzigzag(tag)
	crc := uint32(0)
	lossy, malformed, err := r.streamParts(fr, nparts, &left, &crc)
	if err != nil {
		return err
	}
	crc = checksumUpdate(crc, r.head)
	// Fold what the parser left of the body (nothing, in a well-formed
	// frame) through the whole-body scratch.
	if left > 0 && cap(r.buf) < 4<<10 {
		r.buf = make([]byte, 4<<10)
	}
	for left > 0 {
		scratch := r.buf[:min(left, cap(r.buf))]
		if _, err := io.ReadFull(r.r, scratch); err != nil {
			return unexpectedEOF(err)
		}
		crc = checksumUpdate(crc, scratch)
		left -= len(scratch)
	}
	if _, err := io.ReadFull(r.r, r.hdr[:4]); err != nil {
		return unexpectedEOF(err)
	}
	if crc != binary.LittleEndian.Uint32(r.hdr[:4]) {
		return ErrChecksum
	}
	if malformed != "" {
		return fmt.Errorf("%w: %s", errCorrupt, malformed)
	}
	if fr.Kind == KindData && !lossy && bodyLen(fr.Msg) == blen {
		fr.BodyCRC = crc
	}
	return nil
}

// streamParts parses nparts parts off the stream into fr.Msg.Parts,
// keeping *left (body bytes to go) and *crc (everything folded so far
// except r.head) current. It stops at the first thing the whole-body
// parser would call malformed and names it; err is a stream error. lossy
// says a part's dest did not fit a NodeID and was cut down to one, as the
// whole-body parser cuts it: the message no longer encodes to this body.
func (r *Reader) streamParts(fr *Frame, nparts int, left *int, crc *uint32) (lossy bool, malformed string, err error) {
	// nparts <= body/streamMin here, far inside the whole-body path's
	// "four bytes per part" cap: the count cannot drive the allocation.
	fr.Msg.Parts = make([]mpx.Part, 0, nparts)
	for i := 0; i < nparts; i++ {
		var hdr [3]uint64 // dest, offset, data length
		ok := true
		for k := 0; k < len(hdr) && ok; k++ {
			if hdr[k], ok, err = r.streamUvarint(left); err != nil {
				return false, "", err
			}
		}
		if !ok || hdr[2] > uint64(*left) {
			return false, fmt.Sprintf("part %d header", i), nil
		}
		p := mpx.Part{Dest: cube.NodeID(hdr[0]), Offset: unzigzag(hdr[1])}
		lossy = lossy || uint64(p.Dest) != hdr[0]
		if n := int(hdr[2]); n > 0 {
			var dst []byte
			if r.land != nil {
				dst = r.land(fr.Seq, fr.Msg.Tag, nparts, p.Offset, n)
			}
			if len(dst) != n {
				dst = make([]byte, n)
			}
			*crc = checksumUpdate(*crc, r.head)
			r.head = r.head[:0]
			if _, err := io.ReadFull(r.r, dst); err != nil {
				return false, "", unexpectedEOF(err)
			}
			*crc = checksumUpdate(*crc, dst)
			*left -= n
			p.Data = dst[:n:n]
		}
		sum, ok, err := r.streamUvarint(left)
		if err != nil {
			return false, "", err
		}
		if !ok || sum > 0xFFFFFFFF {
			return false, fmt.Sprintf("part %d checksum", i), nil
		}
		p.Sum = uint32(sum)
		fr.Msg.Parts = append(fr.Msg.Parts, p)
	}
	if *left != 0 {
		return false, fmt.Sprintf("%d trailing body bytes", *left), nil
	}
	return lossy, "", nil
}

// unexpectedEOF turns the clean EOF of a stream that ends inside a
// frame into io.ErrUnexpectedEOF.
func unexpectedEOF(err error) error {
	if err == io.EOF {
		return io.ErrUnexpectedEOF
	}
	return err
}

// readByte reads one byte, through io.ByteReader when the source offers
// it (bufio.Reader and bytes.Reader do). The fallback's scratch byte
// lives in r.hdr: a stack buffer would escape through the io.Reader
// interface and cost the pump one allocation per frame.
func (r *Reader) readByte() (byte, error) {
	if r.br != nil {
		return r.br.ReadByte()
	}
	_, err := io.ReadFull(r.r, r.hdr[2:3])
	return r.hdr[2], err
}

// readUvarint reads one header varint byte by byte (frames are
// length-framed, so over-reads past the varint would steal body bytes).
func (r *Reader) readUvarint() (uint64, error) {
	r.head = r.head[:0]
	left := binary.MaxVarintLen64
	v, ok, err := r.streamUvarint(&left)
	if err == nil && !ok {
		err = errCorrupt
	}
	return v, err
}

// streamUvarint reads one varint out of the *left bytes that may hold
// it (the rest of a streamed body), appending its bytes to r.head for
// the CRC fold. It accepts exactly what binary.Uvarint accepts; ok is
// false for an overlong varint or one that does not end within *left. A
// stream error is terminal and returned as err.
func (r *Reader) streamUvarint(left *int) (v uint64, ok bool, err error) {
	for i := 0; i < binary.MaxVarintLen64 && *left > 0; i++ {
		b, err := r.readByte()
		if err != nil {
			return 0, false, unexpectedEOF(err)
		}
		*left--
		r.head = append(r.head, b)
		if b < 0x80 {
			if i == binary.MaxVarintLen64-1 && b > 1 {
				return 0, false, nil
			}
			return v | uint64(b)<<(7*uint(i)), true, nil
		}
		v |= uint64(b&0x7F) << (7 * uint(i))
	}
	return 0, false, nil
}

// Hello opens every neighbor link: the dialing side announces who it
// is and which node it wants, the accepting side echoes the pair back.
// Dim mismatches and any version byte but MaxVersion kill the
// connection before a frame flows. It has two forms, told apart by
// their magic: the plain HCUB form and the resilient HCRX form, which
// additionally carries RecvSeq — the highest contiguous sequence number
// the sender has already received on this link — so a resuming peer
// knows exactly which unacknowledged frames to replay. A fresh
// resilient link carries RecvSeq 0.
type Hello struct {
	Dim       int
	From, To  cube.NodeID
	Resilient bool
	RecvSeq   uint64
}

// hello layout: magic (4) | version (1) | dim (1) | from (4, LE) |
// to (4, LE), and on the resilient form | recvSeq (8, LE).
const (
	plainHelloLen  = 14
	resumeHelloLen = plainHelloLen + 8
)

var (
	plainMagic  = [4]byte{'H', 'C', 'U', 'B'}
	resumeMagic = [4]byte{'H', 'C', 'R', 'X'}
)

// AppendHello appends the encoded hello in the form selected by
// h.Resilient.
func AppendHello(dst []byte, h Hello) []byte {
	magic := plainMagic
	if h.Resilient {
		magic = resumeMagic
	}
	dst = append(dst, magic[:]...)
	dst = append(dst, MaxVersion, byte(h.Dim))
	dst = binary.LittleEndian.AppendUint32(dst, uint32(h.From))
	dst = binary.LittleEndian.AppendUint32(dst, uint32(h.To))
	if h.Resilient {
		dst = binary.LittleEndian.AppendUint64(dst, h.RecvSeq)
	}
	return dst
}

// ReadHello reads one hello of either form from r, dispatching on the
// magic. Accepting transports use it so a single listener serves both
// fresh plain connects and resilient connect/resume hellos.
func ReadHello(r io.Reader) (Hello, error) {
	var buf [resumeHelloLen]byte
	if _, err := io.ReadFull(r, buf[:plainHelloLen]); err != nil {
		return Hello{}, err
	}
	var h Hello
	switch [4]byte(buf[:4]) {
	case plainMagic:
	case resumeMagic:
		h.Resilient = true
	default:
		return Hello{}, fmt.Errorf("%w: bad hello magic %q", errCorrupt, buf[:4])
	}
	if err := checkVersion(buf[4]); err != nil {
		return Hello{}, err
	}
	h.Dim = int(buf[5])
	h.From = cube.NodeID(binary.LittleEndian.Uint32(buf[6:10]))
	h.To = cube.NodeID(binary.LittleEndian.Uint32(buf[10:14]))
	if h.Resilient {
		if _, err := io.ReadFull(r, buf[plainHelloLen:]); err != nil {
			return Hello{}, err
		}
		h.RecvSeq = binary.LittleEndian.Uint64(buf[plainHelloLen:])
	}
	return h, nil
}
