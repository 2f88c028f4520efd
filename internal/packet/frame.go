package packet

import (
	"encoding/binary"
	"fmt"
	"io"
)

// Multi-packet frame wire format (all integers little-endian):
//
//	bodyLen   uint32  length of everything after this prefix
//	count     uint32  number of packets in the frame
//	count × { pktLen uint32, packet bytes (Encode form) }
//
// A frame is the unit the TCP transport writes per link flush: batching N
// packets into one frame amortizes the write syscall, the bufio flush, and
// (on the modeled network) the per-message latency over N packets. Frames
// with count == 1 replace the old single-packet framing; both ends of a
// link always speak frames.

// MaxFramePackets is the largest per-frame packet count the decoder will
// accept — a defence against corrupt counts triggering huge allocations.
// It is far above any egress flush window.
const MaxFramePackets = 1 << 20

// minEncodedPacket is the smallest Encode output: the fixed header with an
// empty format string and no payload.
const minEncodedPacket = 2 + 1 + 4 + 4 + 4 + 8 + 2

// MaxFrameBody is the largest frame body the decoder accepts: senders
// bound batches to MaxWireSize payload bytes (flushing early when a batch
// would grow past it), and a single maximal packet must still fit with
// its count and length framing — so the old single-packet size limit is
// never tightened by batching.
const MaxFrameBody = MaxWireSize + 8

// EncodedFrameSize returns the number of body bytes EncodeFrame produces
// (excluding the uint32 body-length prefix a link writes before it).
func EncodedFrameSize(ps []*Packet) int {
	n := 4
	for _, p := range ps {
		n += 4 + p.EncodedSize()
	}
	return n
}

// EncodeFrame serializes the packets into a frame body (everything after
// the outer length prefix); see AppendFrame for where the bytes come from.
func EncodeFrame(ps []*Packet) []byte {
	return AppendFrame(make([]byte, 0, EncodedFrameSize(ps)), ps)
}

// AppendFrame appends the frame body for ps to dst and returns it — the
// allocation-free form of EncodeFrame for callers that keep a reusable
// scratch buffer (the TCP link's frame writer). dst should have
// EncodedFrameSize(ps) spare capacity to avoid growth.
//
// Each packet is written straight into dst, header from its fields and
// payload from the bytes it holds: no serialization pass, one copy, however
// many frames a multicast puts the same packet in.
func AppendFrame(dst []byte, ps []*Packet) []byte {
	dst = binary.LittleEndian.AppendUint32(dst, uint32(len(ps)))
	for _, p := range ps {
		dst = binary.LittleEndian.AppendUint32(dst, uint32(p.EncodedSize()))
		dst = p.appendEncode(dst)
	}
	return dst
}

// DecodeFrame parses a frame body produced by EncodeFrame. Each packet's
// bytes are validated individually; a malformed count, a truncated packet,
// or trailing garbage fails the whole frame. The packets alias b under
// Decode's contract: b must not be modified or reused while any of them is
// reachable, and one retained packet keeps the whole frame body alive.
func DecodeFrame(b []byte) ([]*Packet, error) {
	if len(b) > MaxFrameBody {
		return nil, fmt.Errorf("%w: frame body %d bytes exceeds MaxFrameBody", ErrWire, len(b))
	}
	if len(b) < 4 {
		return nil, fmt.Errorf("%w: frame body truncated (%d bytes)", ErrWire, len(b))
	}
	count := binary.LittleEndian.Uint32(b)
	if count > MaxFramePackets {
		return nil, fmt.Errorf("%w: frame count %d exceeds MaxFramePackets", ErrWire, count)
	}
	rest := b[4:]
	// Each packet needs at least its length prefix plus the minimal header,
	// so a corrupt count cannot demand more packets than the body can hold.
	if int(count) > len(rest)/(4+minEncodedPacket) {
		return nil, fmt.Errorf("%w: frame count %d exceeds body capacity (%d bytes)", ErrWire, count, len(rest))
	}
	ps := make([]*Packet, 0, count)
	for i := uint32(0); i < count; i++ {
		if len(rest) < 4 {
			return nil, fmt.Errorf("%w: frame truncated at packet %d", ErrWire, i)
		}
		n := binary.LittleEndian.Uint32(rest)
		rest = rest[4:]
		if n > MaxWireSize {
			return nil, fmt.Errorf("%w: packet %d length %d exceeds MaxWireSize", ErrWire, i, n)
		}
		if int(n) > len(rest) {
			return nil, fmt.Errorf("%w: packet %d truncated (need %d of %d)", ErrWire, i, n, len(rest))
		}
		p, err := Decode(rest[:n])
		if err != nil {
			return nil, fmt.Errorf("frame packet %d: %w", i, err)
		}
		ps = append(ps, p)
		rest = rest[n:]
	}
	if len(rest) != 0 {
		return nil, fmt.Errorf("%w: %d trailing bytes after frame", ErrWire, len(rest))
	}
	return ps, nil
}

// ReadFrame reads one length-prefixed frame (uint32 body length, then the
// body) from r. The body is read into a fresh buffer that the returned
// packets alias and own between them — it is never pooled or reused, which
// is what lets a received packet be retained, restamped and forwarded
// without copying its payload out; the garbage collector reclaims the
// buffer once the last packet of the frame is unreachable.
func ReadFrame(r io.Reader) ([]*Packet, error) {
	var hdr [4]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return nil, err
	}
	n := binary.LittleEndian.Uint32(hdr[:])
	if n > MaxFrameBody {
		return nil, fmt.Errorf("%w: frame length %d exceeds MaxFrameBody", ErrWire, n)
	}
	buf := make([]byte, n)
	if _, err := io.ReadFull(r, buf); err != nil {
		return nil, fmt.Errorf("packet: short frame: %w", err)
	}
	return DecodeFrame(buf)
}
