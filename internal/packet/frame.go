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
//
// The frame's Packet structs are allocated together (frameHeaders), so a
// retained packet also keeps its siblings' 56-byte headers alive: the
// garbage collector sees the Packets as one object while any is reachable.
func DecodeFrame(b []byte) ([]*Packet, error) {
	if len(b) > MaxFrameBody {
		return nil, fmt.Errorf("%w: frame body %d bytes exceeds MaxFrameBody", ErrWire, len(b))
	}
	if len(b) < 4 {
		return nil, fmt.Errorf("%w: frame body truncated (%d bytes)", ErrWire, len(b))
	}
	count, err := frameCount(binary.LittleEndian.Uint32(b), len(b))
	if err != nil {
		return nil, err
	}
	return decodeFrame(b, frameHeaders(count))
}

// frameCount checks a frame's packet count against the body length n
// before anything is allocated for it: each packet needs at least its
// length prefix plus the minimal header, so a corrupt count cannot demand
// more packets than the body can hold.
func frameCount(count uint32, n int) (int, error) {
	if count > MaxFramePackets {
		return 0, fmt.Errorf("%w: frame count %d exceeds MaxFramePackets", ErrWire, count)
	}
	if int(count) > (n-4)/(4+minEncodedPacket) {
		return 0, fmt.Errorf("%w: frame count %d exceeds body capacity (%d bytes)", ErrWire, count, n-4)
	}
	return int(count), nil
}

// frameHeaders returns count pointers to zero Packets: one object holding
// both for a frame of one or two packets (filling the 64- and 128-byte size
// classes exactly), otherwise the Packets in one array and the pointers in
// one slice.
func frameHeaders(count int) []*Packet {
	switch count {
	case 1:
		w := new(struct {
			ps [1]*Packet
			p  [1]Packet
		})
		return point(w.ps[:], w.p[:])
	case 2:
		w := new(struct {
			ps [2]*Packet
			p  [2]Packet
		})
		return point(w.ps[:], w.p[:])
	}
	return point(make([]*Packet, count), make([]Packet, count))
}

// point sets ptrs[i] to &pkts[i] and returns ptrs.
func point(ptrs []*Packet, pkts []Packet) []*Packet {
	for i := range ptrs {
		ptrs[i] = &pkts[i]
	}
	return ptrs
}

// decodeFrame decodes the packets of frame body b into ps, whose length is
// the count b starts with.
func decodeFrame(b []byte, ps []*Packet) ([]*Packet, error) {
	rest := b[4:]
	for i, p := range ps {
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
		if err := decodeInto(p, rest[:n]); err != nil {
			return nil, fmt.Errorf("frame packet %d: %w", i, err)
		}
		rest = rest[n:]
	}
	if len(rest) != 0 {
		return nil, fmt.Errorf("%w: %d trailing bytes after frame", ErrWire, len(rest))
	}
	return ps, nil
}

// frame48 is a one-packet frame received as a single allocation: the
// result slice's backing array, the Packet and a body of up to 48 bytes
// together, filling the 112-byte size class. It holds a one-scalar
// packet's frame, the request-reply round's command and reply.
type frame48 struct {
	ps [1]*Packet
	p  Packet
	b  [48]byte
}

// allocFrame returns a body buffer of n bytes and count pointers to zero
// Packets for a frame about to be read: one object for a one-packet frame
// that fits frame48, otherwise the body on its own beside frameHeaders.
func allocFrame(n, count int) ([]byte, []*Packet) {
	if count == 1 && n <= len(frame48{}.b) {
		w := new(frame48)
		w.ps[0] = &w.p
		return w.b[:n], w.ps[:]
	}
	return make([]byte, n), frameHeaders(count)
}

// ReadFrame reads one length-prefixed frame (uint32 body length, then the
// body) from r. The body is read into a fresh buffer that the returned
// packets alias and own between them — it is never pooled or reused, which
// is what lets a received packet be retained, restamped and forwarded
// without copying its payload out; the garbage collector reclaims the
// frame once the last of its packets is unreachable. A retained packet
// thus keeps the body and, as DecodeFrame's do, its siblings' headers
// alive. Sized from the length and count, which are read a byte at a time
// so no header buffer escapes, the body, the Packets and the result slice
// are one allocation for a one-packet frame of up to 48 body bytes (a
// one-scalar command or reply), two for any other frame of one or two
// packets, and three otherwise.
func ReadFrame(r FrameReader) ([]*Packet, error) {
	n, err := readUint32(r)
	if err != nil {
		return nil, err
	}
	if n > MaxFrameBody {
		return nil, fmt.Errorf("%w: frame length %d exceeds MaxFrameBody", ErrWire, n)
	}
	if n < 4 {
		return nil, fmt.Errorf("%w: frame body truncated (%d bytes)", ErrWire, n)
	}
	c, err := readUint32(r)
	if err != nil {
		return nil, fmt.Errorf("packet: short frame: %w", err)
	}
	count, err := frameCount(c, int(n))
	if err != nil {
		return nil, err
	}
	body, ps := allocFrame(int(n), count)
	binary.LittleEndian.PutUint32(body, c)
	if _, err := io.ReadFull(r, body[4:]); err != nil {
		return nil, fmt.Errorf("packet: short frame: %w", err)
	}
	return decodeFrame(body, ps)
}

// FrameReader is what ReadFrame reads from: a bufio.Reader on a link, or
// a bytes.Reader or bytes.Buffer holding frames.
type FrameReader interface {
	io.Reader
	io.ByteReader
}

// readUint32 reads a little-endian uint32. A clean io.EOF means r ended
// before the first byte; ending after it is io.ErrUnexpectedEOF.
func readUint32(r io.ByteReader) (uint32, error) {
	var v uint32
	for i := 0; i < 4; i++ {
		c, err := r.ReadByte()
		if err != nil {
			if i > 0 && err == io.EOF {
				err = io.ErrUnexpectedEOF
			}
			return 0, err
		}
		v |= uint32(c) << (8 * i)
	}
	return v, nil
}
