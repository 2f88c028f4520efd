package packet

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"sync/atomic"
)

// Wire format (all integers little-endian):
//
//	magic     uint16  0x7B0E ("TBOE")
//	version   uint8   2
//	tag       int32
//	streamID  uint32
//	srcRank   int32
//	seq       uint64  (origin-stamped delivery sequence; ack count on grants)
//	fmtLen    uint16
//	format    fmtLen bytes
//	payload   per-directive encoding (see below)
//
// Per-directive payload encodings:
//
//	%c   1 byte
//	%d   8 bytes (two's complement)
//	%f   8 bytes (IEEE-754 bits)
//	%s   uint32 length + bytes
//	%a*  uint32 element count + repeated element encodings
const (
	wireMagic   uint16 = 0x7B0E
	wireVersion uint8  = 2
)

// MaxWireSize is the largest encoded packet Decode will accept, a defence
// against corrupt length prefixes on real sockets.
const MaxWireSize = 1 << 28 // 256 MiB

// ErrWire reports a malformed wire-format packet.
var ErrWire = errors.New("packet: malformed wire data")

// wireEncodes counts serialization passes — a packet's values walked and
// written out as wire bytes. New performs the only one a packet ever gets:
// framing, forwarding and multicast copy the payload bytes, and header-only
// packets have nothing to serialize. Tests and benchmarks read it through
// WireEncodes.
var wireEncodes atomic.Int64

// WireEncodes returns the number of payload serialization passes performed
// by this process so far. The counter is global and monotonic; callers
// interested in one workload take a delta.
func WireEncodes() int64 { return wireEncodes.Load() }

// EncodedSize returns the exact number of bytes Encode will produce.
func (p *Packet) EncodedSize() int {
	return minEncodedPacket + len(p.desc().format) + len(p.payload)
}

// Encode serializes the packet to its binary wire form in a fresh
// allocation; hot paths should prefer AppendFrame, which writes into the
// caller's buffer.
func (p *Packet) Encode() []byte {
	return p.appendEncode(make([]byte, 0, p.EncodedSize()))
}

// appendEncode appends the packet's wire form to buf and returns it: the
// header from the packet's fields, then the payload bytes as they are.
func (p *Packet) appendEncode(buf []byte) []byte {
	fd := p.desc()
	buf = binary.LittleEndian.AppendUint16(buf, wireMagic)
	buf = append(buf, wireVersion)
	buf = binary.LittleEndian.AppendUint32(buf, uint32(p.Tag))
	buf = binary.LittleEndian.AppendUint32(buf, p.StreamID)
	buf = binary.LittleEndian.AppendUint32(buf, uint32(p.SrcRank))
	buf = binary.LittleEndian.AppendUint64(buf, p.Seq)
	if len(fd.format) > math.MaxUint16 {
		panic("packet: format string too long")
	}
	buf = binary.LittleEndian.AppendUint16(buf, uint16(len(fd.format)))
	buf = append(buf, fd.format...)
	return append(buf, p.payload...)
}

// decoder is a bounds-checked cursor over wire bytes.
type decoder struct {
	b   []byte
	off int
}

func (d *decoder) need(n int) error {
	if n < 0 || d.off+n > len(d.b) {
		return fmt.Errorf("%w: truncated at offset %d (need %d of %d)", ErrWire, d.off, n, len(d.b))
	}
	return nil
}

func (d *decoder) u8() (byte, error) {
	if err := d.need(1); err != nil {
		return 0, err
	}
	v := d.b[d.off]
	d.off++
	return v, nil
}

func (d *decoder) u16() (uint16, error) {
	if err := d.need(2); err != nil {
		return 0, err
	}
	v := binary.LittleEndian.Uint16(d.b[d.off:])
	d.off += 2
	return v, nil
}

func (d *decoder) u32() (uint32, error) {
	if err := d.need(4); err != nil {
		return 0, err
	}
	v := binary.LittleEndian.Uint32(d.b[d.off:])
	d.off += 4
	return v, nil
}

func (d *decoder) u64() (uint64, error) {
	if err := d.need(8); err != nil {
		return 0, err
	}
	v := binary.LittleEndian.Uint64(d.b[d.off:])
	d.off += 8
	return v, nil
}

func (d *decoder) bytes(n int) ([]byte, error) {
	if err := d.need(n); err != nil {
		return nil, err
	}
	v := d.b[d.off : d.off+n]
	d.off += n
	return v, nil
}

// arrayLen validates an element count against the remaining buffer so a
// corrupt count cannot trigger a huge allocation. elemSize is the minimum
// encoded size of one element.
func (d *decoder) arrayLen(elemSize int) (int, error) {
	n, err := d.u32()
	if err != nil {
		return 0, err
	}
	if int(n) > (len(d.b)-d.off)/max(elemSize, 1) {
		return 0, fmt.Errorf("%w: array count %d exceeds remaining data", ErrWire, n)
	}
	return int(n), nil
}

// counted reads a uint32 length and that many bytes (%s, %ac, and each
// element of %as). The result aliases the input.
func (d *decoder) counted() ([]byte, error) {
	n, err := d.arrayLen(1)
	if err != nil {
		return nil, err
	}
	return d.bytes(n)
}

func (d *decoder) ints() ([]int64, error) {
	n, err := d.arrayLen(8)
	if err != nil {
		return nil, err
	}
	xs := make([]int64, n)
	for j := range xs {
		v, err := d.u64()
		if err != nil {
			return nil, err
		}
		xs[j] = int64(v)
	}
	return xs, nil
}

func (d *decoder) floats() ([]float64, error) {
	n, err := d.arrayLen(8)
	if err != nil {
		return nil, err
	}
	xs := make([]float64, n)
	for j := range xs {
		v, err := d.u64()
		if err != nil {
			return nil, err
		}
		xs[j] = math.Float64frombits(v)
	}
	return xs, nil
}

func (d *decoder) strings() ([]string, error) {
	n, err := d.arrayLen(4)
	if err != nil {
		return nil, err
	}
	ss := make([]string, n)
	for j := range ss {
		sb, err := d.counted()
		if err != nil {
			return nil, err
		}
		ss[j] = string(sb)
	}
	return ss, nil
}

// skip advances past one value of kind dir, applying exactly the bounds
// checks decoding it would and allocating nothing. It is both Decode's
// validation walk and how a typed accessor reaches the i'th value.
func (d *decoder) skip(dir Directive) error {
	switch dir {
	case DirByte:
		return d.advance(1)
	case DirInt, DirFloat:
		return d.advance(8)
	case DirString, DirByteArray:
		_, err := d.counted()
		return err
	case DirIntArray, DirFloatArray:
		n, err := d.arrayLen(8)
		if err != nil {
			return err
		}
		return d.advance(8 * n)
	case DirStringArray:
		n, err := d.arrayLen(4)
		if err != nil {
			return err
		}
		for ; n > 0; n-- {
			if _, err := d.counted(); err != nil {
				return err
			}
		}
	}
	return nil
}

func (d *decoder) advance(n int) error {
	_, err := d.bytes(n)
	return err
}

// decodeValues materializes a whole payload as Go values, at most once per
// packet and only when Values is called — and, because it checks every bound
// itself, it is the reference the fuzz tests hold Decode's validation walk
// to. %ac values alias payload; everything else is copied out.
func decodeValues(dirs []Directive, payload []byte) ([]any, error) {
	d := decoder{b: payload}
	values := make([]any, len(dirs))
	for i, dir := range dirs {
		var v any
		var err error
		switch dir {
		case DirByte:
			v, err = d.u8()
		case DirInt:
			var u uint64
			u, err = d.u64()
			v = int64(u)
		case DirFloat:
			var u uint64
			u, err = d.u64()
			v = math.Float64frombits(u)
		case DirString:
			var sb []byte
			sb, err = d.counted()
			v = string(sb)
		case DirByteArray:
			v, err = d.counted()
		case DirIntArray:
			v, err = d.ints()
		case DirFloatArray:
			v, err = d.floats()
		case DirStringArray:
			v, err = d.strings()
		}
		if err != nil {
			return nil, err
		}
		values[i] = v
	}
	if d.off != len(payload) {
		return nil, fmt.Errorf("%w: %d trailing bytes", ErrWire, len(payload)-d.off)
	}
	return values, nil
}

// decodeHeader parses the fixed header and the format string of a packet in
// wire form into p, returning the bytes that follow the format.
func decodeHeader(p *Packet, b []byte) ([]byte, error) {
	if len(b) > MaxWireSize {
		return nil, fmt.Errorf("%w: %d bytes exceeds MaxWireSize", ErrWire, len(b))
	}
	d := decoder{b: b}
	magic, err := d.u16()
	if err != nil {
		return nil, err
	}
	if magic != wireMagic {
		return nil, fmt.Errorf("%w: bad magic %#x", ErrWire, magic)
	}
	ver, err := d.u8()
	if err != nil {
		return nil, err
	}
	if ver != wireVersion {
		return nil, fmt.Errorf("%w: unsupported version %d", ErrWire, ver)
	}
	tag, err := d.u32()
	if err != nil {
		return nil, err
	}
	streamID, err := d.u32()
	if err != nil {
		return nil, err
	}
	src, err := d.u32()
	if err != nil {
		return nil, err
	}
	seq, err := d.u64()
	if err != nil {
		return nil, err
	}
	fmtLen, err := d.u16()
	if err != nil {
		return nil, err
	}
	fmtBytes, err := d.bytes(int(fmtLen))
	if err != nil {
		return nil, err
	}
	fd, err := lookupFormatBytes(fmtBytes)
	if err != nil {
		return nil, err
	}
	p.Tag, p.StreamID, p.SrcRank, p.Seq, p.fd = int32(tag), streamID, Rank(int32(src)), seq, fd
	return b[d.off:], nil
}

// decodeInto is Decode into the zero Packet p, which a frame decode
// allocates beside its siblings. On error p is partly filled and must be
// discarded.
func decodeInto(p *Packet, b []byte) error {
	payload, err := decodeHeader(p, b)
	if err != nil {
		return err
	}
	d := decoder{b: payload}
	for _, dir := range p.fd.dirs {
		if err := d.skip(dir); err != nil {
			return err
		}
	}
	if d.off != len(payload) {
		return fmt.Errorf("%w: %d trailing bytes", ErrWire, len(payload)-d.off)
	}
	if len(p.fd.dirs) > 0 {
		p.payload = payload
	}
	return nil
}

// Decode parses a packet from its binary wire form. It parses the header
// and the format string, checks that the payload is exactly one well-formed
// value per directive — truncation, an element count larger than the data
// that follows, and trailing bytes are all rejected here, never at a later
// access — and keeps the payload as a slice of b instead of decoding it.
//
// The packet therefore aliases b: every value, not only %ac, is read from b
// when first asked for, and re-encoding copies the payload out of b. The
// caller must not modify or reuse b while the packet, or any packet
// restamped from it, is reachable, and a retained packet keeps all of b
// alive. A caller that needs the bytes back must copy them before Decode.
func Decode(b []byte) (*Packet, error) {
	p := new(Packet)
	if err := decodeInto(p, b); err != nil {
		return nil, err
	}
	return p, nil
}
