// Package packet implements the application-level packet abstraction used
// throughout the TBON. A packet carries a typed payload described by an
// MRNet-style format string, a tag identifying the logical message type, the
// stream it travels on, and the rank of the node that produced it.
//
// Format strings are space-separated conversion directives:
//
//	%c    one byte                %ac   []byte
//	%d    int64                   %ad   []int64
//	%f    float64                 %af   []float64
//	%s    string                  %as   []string
//
// The directives describe, positionally, the values held by the packet.
// Encoding to and decoding from a binary wire form is implemented in
// encode.go.
//
// Every packet is its header fields plus its payload in wire form, and
// nothing else: a plain value that restamping copies. New serializes the
// caller's values into a payload buffer of the packet's own; Decode keeps
// the payload as it arrived — a slice of the decoder's input, validated but
// not parsed. The typed accessors (Int, Float, Bytes, ...) read straight
// from those bytes, only the generic Value/Values/String decode Go values
// (afresh on every call), and encoding emits the header from the packet's
// fields followed by the payload bytes unchanged. A process that only
// routes a packet therefore never parses, boxes or re-serializes its
// payload. The price is the aliasing contract stated at Decode.
package packet

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"reflect"
	"strings"
	"sync"
	"sync/atomic"
)

// Well-known tag values. Tags at or above TagFirstApplication are free for
// application use; tags below it are reserved for TBON control traffic.
const (
	// TagControl marks internal control messages (stream creation, filter
	// loading, shutdown, topology updates).
	TagControl int32 = iota
	// TagAck acknowledges a control message.
	TagAck
	// TagEvent carries failure/recovery event notifications.
	TagEvent
	// TagCredit marks credit-grant messages of the flow-control protocol
	// (see credit.go). Grants are order-free link-local control: transports
	// absorb them at the receive edge, so they never reach routing code.
	TagCredit
	// TagFirstApplication is the first tag available to applications.
	TagFirstApplication int32 = 100
)

// Rank identifies a node in the overlay. Ranks are assigned densely by the
// topology: the front-end is rank 0, internal nodes and back-ends follow in
// breadth-first order.
type Rank int32

// UnknownRank marks a packet whose origin is not (yet) known.
const UnknownRank Rank = -1

// Directive is a single parsed conversion directive from a format string.
type Directive uint8

// The parsed directive kinds, one per format token.
const (
	DirInvalid     Directive = iota
	DirByte                  // %c
	DirInt                   // %d
	DirFloat                 // %f
	DirString                // %s
	DirByteArray             // %ac
	DirIntArray              // %ad
	DirFloatArray            // %af
	DirStringArray           // %as
)

// String returns the format token for the directive.
func (d Directive) String() string {
	switch d {
	case DirByte:
		return "%c"
	case DirInt:
		return "%d"
	case DirFloat:
		return "%f"
	case DirString:
		return "%s"
	case DirByteArray:
		return "%ac"
	case DirIntArray:
		return "%ad"
	case DirFloatArray:
		return "%af"
	case DirStringArray:
		return "%as"
	}
	return "%!"
}

// ErrBadFormat reports a malformed format string.
var ErrBadFormat = errors.New("packet: malformed format string")

// ErrArity reports a mismatch between a format string and the number of
// values supplied.
var ErrArity = errors.New("packet: format/value arity mismatch")

// ErrType reports a value whose dynamic type does not match its directive.
var ErrType = errors.New("packet: value type does not match format directive")

// formatDesc is a parsed format string. Descriptors are interned (see
// lookupFormat), so the packets of a stream share one and a Packet carries
// its format as a single pointer.
type formatDesc struct {
	format string
	dirs   []Directive // shared, read-only
}

// noFormat describes the empty format string: no directives, no payload.
// A nil descriptor on a Packet (the zero Packet, NewCreditGrant) means this.
var noFormat = &formatDesc{}

// formats interns parsed format strings. Overlay traffic reuses a handful
// of formats millions of times, and the per-packet parse (a strings.Fields
// allocation plus a token scan) is pure overhead on the hot path. The table
// is a copy-on-write map: readers index it lock-free — Decode with the
// format's wire bytes, which a built-in map lookup converts without
// allocating — and the rare insert copies it under formatsMu. It is capped
// so hostile inputs cannot grow it unboundedly; past the cap a format is
// parsed per use.
var (
	formats   atomic.Pointer[map[string]*formatDesc]
	formatsMu sync.Mutex
)

const fmtCacheCap = 1024

// formatTable returns the current intern table (nil before the first
// insert; a nil map reads as empty).
func formatTable() map[string]*formatDesc {
	if m := formats.Load(); m != nil {
		return *m
	}
	return nil
}

// lookupFormat returns the descriptor for a format string, parsing and
// interning it on first use.
func lookupFormat(format string) (*formatDesc, error) {
	if format == "" {
		return noFormat, nil
	}
	if fd, ok := formatTable()[format]; ok {
		return fd, nil
	}
	fd := &formatDesc{format: format}
	for _, f := range strings.Fields(format) {
		d, ok := parseDirective(f)
		if !ok {
			return nil, fmt.Errorf("%w: bad directive %q in %q", ErrBadFormat, f, format)
		}
		fd.dirs = append(fd.dirs, d)
	}
	return internFormat(fd), nil
}

// lookupFormatBytes is lookupFormat for a format still in wire form; a hit
// allocates nothing.
func lookupFormatBytes(b []byte) (*formatDesc, error) {
	if len(b) == 0 {
		return noFormat, nil
	}
	if fd, ok := formatTable()[string(b)]; ok {
		return fd, nil
	}
	return lookupFormat(string(b))
}

// internFormat publishes fd, returning the descriptor every caller should
// use: the earlier one if another goroutine won the race, fd itself
// (uninterned) once the table is full.
func internFormat(fd *formatDesc) *formatDesc {
	formatsMu.Lock()
	defer formatsMu.Unlock()
	old := formatTable()
	if prev, ok := old[fd.format]; ok {
		return prev
	}
	if len(old) >= fmtCacheCap {
		return fd
	}
	next := make(map[string]*formatDesc, len(old)+1)
	for k, v := range old {
		next[k] = v
	}
	next[fd.format] = fd
	formats.Store(&next)
	return fd
}

func parseDirective(tok string) (Directive, bool) {
	switch tok {
	case "%c":
		return DirByte, true
	case "%d":
		return DirInt, true
	case "%f":
		return DirFloat, true
	case "%s":
		return DirString, true
	case "%ac":
		return DirByteArray, true
	case "%ad":
		return DirIntArray, true
	case "%af":
		return DirFloatArray, true
	case "%as":
		return DirStringArray, true
	}
	return DirInvalid, false
}

// Packet is an application-level message. Packets are immutable once
// shared; filters produce new packets rather than mutating inputs, which
// is what lets a multicast place one packet on every outgoing link. Only
// the process that built a packet may set its header fields, before it
// hands the packet on.
type Packet struct {
	// Tag identifies the logical message type.
	Tag int32
	// StreamID identifies the stream this packet travels on. Zero means
	// "no stream" (control traffic).
	StreamID uint32
	// SrcRank is the rank of the node that created the packet.
	SrcRank Rank

	// Seq is the packet's origin-stamped delivery sequence number, zero
	// when unstamped. Exactly-once delivery packs the originating rank and
	// a per-(origin,stream) counter into it (see MakeSeq). Forwarding keeps
	// it, as it keeps SrcRank (only the root re-stamps that, on delivery),
	// so receivers can de-duplicate replayed packets. Credit grants reuse
	// the field to carry the cumulative acknowledgement count (see
	// credit.go).
	Seq uint64

	// fd is the interned format descriptor; nil means the empty format.
	fd *formatDesc
	// payload is the payload in wire form — New's own buffer, or a slice of
	// Decode's input. It is non-nil exactly when the format has at least one
	// directive, is valid against fd, and is what every accessor reads and
	// every encode emits.
	payload []byte
}

// desc returns the packet's format descriptor, never nil.
func (p *Packet) desc() *formatDesc {
	if p.fd == nil {
		return noFormat
	}
	return p.fd
}

// Format returns the format string describing the packet's values.
func (p *Packet) Format() string { return p.desc().format }

// RetainEncoded has no effect; retained only until bench/ladder.go stops
// calling it (ROADMAP item 1).
func (p *Packet) RetainEncoded(int32) {}

// ReleaseEncoded has no effect and returns false; retained only until
// bench/ladder.go stops calling it (ROADMAP item 1).
func (p *Packet) ReleaseEncoded() bool { return false }

// EncodedBytes returns Encode(); retained only until bench/ladder.go stops
// calling it (ROADMAP item 1).
func (p *Packet) EncodedBytes() []byte { return p.Encode() }

// New constructs a packet, validating the values against the format string
// and serializing them into the packet's payload. Values are copied: the
// packet shares nothing with the caller's slices.
func New(tag int32, streamID uint32, src Rank, format string, values ...any) (*Packet, error) {
	fd, err := lookupFormat(format)
	if err != nil {
		return nil, err
	}
	dirs := fd.dirs
	if len(dirs) != len(values) {
		return nil, fmt.Errorf("%w: format %q has %d directives, got %d values",
			ErrArity, format, len(dirs), len(values))
	}
	size := 0
	for i, d := range dirs {
		switch d {
		case DirByte:
			size++
		case DirInt, DirFloat:
			size += 8
		default:
			size += 4 + countedSize(values[i])
		}
	}
	p, payload := alloc(size)
	if len(dirs) > 0 {
		for i, d := range dirs {
			var ok bool
			if payload, ok = appendValue(payload, d, values[i]); !ok {
				return nil, fmt.Errorf("value %d: %w", i, mismatch(d, values[i]))
			}
		}
		p.payload = payload
		if wire.read.Load() {
			wire.encodes.Add(1)
		}
	}
	p.Tag, p.StreamID, p.SrcRank, p.fd = tag, streamID, src, fd
	return p, nil
}

// A packet whose payload fits one of these shares a single allocation with
// it: each wrapper fills a Go size class exactly (the 56-byte Packet plus
// N bytes: 64, 80, 96), so a one-scalar packet costs what its header
// alone did. Larger payloads get a buffer of their own.
type (
	packet8 struct {
		Packet
		buf [8]byte
	}
	packet24 struct {
		Packet
		buf [24]byte
	}
	packet40 struct {
		Packet
		buf [40]byte
	}
)

// alloc returns a zero Packet and an empty payload buffer of capacity size.
func alloc(size int) (*Packet, []byte) {
	switch {
	case size <= 8:
		w := new(packet8)
		return &w.Packet, w.buf[:0:size]
	case size <= 24:
		w := new(packet24)
		return &w.Packet, w.buf[:0:size]
	case size <= 40:
		w := new(packet40)
		return &w.Packet, w.buf[:0:size]
	}
	return new(Packet), make([]byte, 0, size)
}

// MustNew is New but panics on error; intended for statically correct
// call sites such as tests and built-in control messages.
func MustNew(tag int32, streamID uint32, src Rank, format string, values ...any) *Packet {
	p, err := New(tag, streamID, src, format, values...)
	if err != nil {
		panic(err)
	}
	return p
}

// countedSize returns the encoded size, after the count prefix, of a string
// or array value; zero for anything else, which appendValue then rejects.
func countedSize(v any) int {
	switch x := v.(type) {
	case string:
		return len(x)
	case []byte:
		return len(x)
	case []int64:
		return 8 * len(x)
	case []int:
		return 8 * len(x)
	case []float64:
		return 8 * len(x)
	case []string:
		n := 4 * len(x)
		for _, s := range x {
			n += len(s)
		}
		return n
	}
	return 0
}

// appendValue appends the wire encoding of v as directive d, accepting the
// common convertible types so callers can pass int literals and the like.
// It reports false, appending nothing, when v does not fit d.
func appendValue(buf []byte, d Directive, v any) ([]byte, bool) {
	le := binary.LittleEndian
	switch d {
	case DirByte:
		switch x := v.(type) {
		case byte:
			return append(buf, x), true
		case int:
			if x >= 0 && x <= 255 {
				return append(buf, byte(x)), true
			}
		}
	case DirInt:
		switch x := v.(type) {
		case int64:
			return le.AppendUint64(buf, uint64(x)), true
		case int:
			return le.AppendUint64(buf, uint64(x)), true
		case int32:
			return le.AppendUint64(buf, uint64(x)), true
		case uint32:
			return le.AppendUint64(buf, uint64(x)), true
		case Rank:
			return le.AppendUint64(buf, uint64(x)), true
		}
	case DirFloat:
		switch x := v.(type) {
		case float64:
			return le.AppendUint64(buf, math.Float64bits(x)), true
		case float32:
			return le.AppendUint64(buf, math.Float64bits(float64(x))), true
		case int:
			return le.AppendUint64(buf, math.Float64bits(float64(x))), true
		}
	case DirString:
		if x, ok := v.(string); ok {
			return append(le.AppendUint32(buf, uint32(len(x))), x...), true
		}
	case DirByteArray:
		if x, ok := v.([]byte); ok {
			return append(le.AppendUint32(buf, uint32(len(x))), x...), true
		}
	case DirIntArray:
		switch x := v.(type) {
		case []int64:
			buf = le.AppendUint32(buf, uint32(len(x)))
			for _, e := range x {
				buf = le.AppendUint64(buf, uint64(e))
			}
			return buf, true
		case []int:
			buf = le.AppendUint32(buf, uint32(len(x)))
			for _, e := range x {
				buf = le.AppendUint64(buf, uint64(e))
			}
			return buf, true
		}
	case DirFloatArray:
		if x, ok := v.([]float64); ok {
			buf = le.AppendUint32(buf, uint32(len(x)))
			for _, e := range x {
				buf = le.AppendUint64(buf, math.Float64bits(e))
			}
			return buf, true
		}
	case DirStringArray:
		if x, ok := v.([]string); ok {
			buf = le.AppendUint32(buf, uint32(len(x)))
			for _, s := range x {
				buf = append(le.AppendUint32(buf, uint32(len(s))), s...)
			}
			return buf, true
		}
	}
	return buf, false
}

// mismatch describes why appendValue rejected v. It names v's type through
// reflect instead of handing v to fmt, which would make every New's values
// escape to the heap.
func mismatch(d Directive, v any) error {
	if x, ok := v.(int); ok && d == DirByte {
		return fmt.Errorf("%w: int %d out of byte range", ErrType, x)
	}
	return fmt.Errorf("%w: got %v for %s", ErrType, reflect.TypeOf(v), d)
}

// NumValues returns the number of payload values in the packet.
func (p *Packet) NumValues() int { return len(p.desc().dirs) }

// Value returns the i'th payload value.
func (p *Packet) Value(i int) any { return p.Values()[i] }

// Values returns all payload values, decoded from the wire payload on every
// call — one []any plus a box per value. The slice is the caller's, but a
// %ac value aliases the payload and must not be modified. The typed
// accessors below read the same bytes without it.
func (p *Packet) Values() []any {
	if p.payload == nil {
		return nil
	}
	vals, err := decodeValues(p.fd.dirs, p.payload)
	if err != nil {
		// New wrote the payload; Decode validated it with the same bounds
		// checks.
		panic("packet: validated payload failed to decode: " + err.Error())
	}
	return vals
}

// at returns a cursor on the i'th value of the wire payload. Skipping the
// values before it cannot fail: the payload is valid against fd.
func (p *Packet) at(i int) decoder {
	d := decoder{b: p.payload}
	for _, dir := range p.fd.dirs[:i] {
		_ = d.skip(dir)
	}
	return d
}

// The typed accessors read the wire payload in place: scalars and %ac
// without allocating (Bytes aliases the payload), %s and the other arrays
// as a fresh copy per call, which the caller owns — one that needs it
// repeatedly should keep it.

// Int returns the i'th value as an int64, or an error if it is not one.
func (p *Packet) Int(i int) (int64, error) {
	if err := p.check(i, DirInt); err != nil {
		return 0, err
	}
	d := p.at(i)
	v, err := d.u64()
	return int64(v), err
}

// Float returns the i'th value as a float64.
func (p *Packet) Float(i int) (float64, error) {
	if err := p.check(i, DirFloat); err != nil {
		return 0, err
	}
	d := p.at(i)
	v, err := d.u64()
	return math.Float64frombits(v), err
}

// String returns a human-readable rendering of the packet header and payload.
func (p *Packet) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "packet{tag=%d stream=%d src=%d fmt=%q", p.Tag, p.StreamID, p.SrcRank, p.Format())
	vals := p.Values()
	for i, v := range vals {
		if i == 0 {
			b.WriteString(" [")
		} else {
			b.WriteString(" ")
		}
		fmt.Fprintf(&b, "%v", v)
	}
	if len(vals) > 0 {
		b.WriteString("]")
	}
	b.WriteString("}")
	return b.String()
}

// Str returns the i'th value as a string.
func (p *Packet) Str(i int) (string, error) {
	if err := p.check(i, DirString); err != nil {
		return "", err
	}
	d := p.at(i)
	sb, err := d.counted()
	return string(sb), err
}

// Byte returns the i'th value as a byte.
func (p *Packet) Byte(i int) (byte, error) {
	if err := p.check(i, DirByte); err != nil {
		return 0, err
	}
	d := p.at(i)
	return d.u8()
}

// Bytes returns the i'th value as a []byte. The returned slice aliases the
// packet's payload (on a decoded packet, the decoder's input) and must not
// be modified.
func (p *Packet) Bytes(i int) ([]byte, error) {
	if err := p.check(i, DirByteArray); err != nil {
		return nil, err
	}
	d := p.at(i)
	return d.counted()
}

// IntArray returns the i'th value as a fresh []int64.
func (p *Packet) IntArray(i int) ([]int64, error) {
	if err := p.check(i, DirIntArray); err != nil {
		return nil, err
	}
	d := p.at(i)
	return d.ints()
}

// FloatArray returns the i'th value as a fresh []float64.
func (p *Packet) FloatArray(i int) ([]float64, error) {
	if err := p.check(i, DirFloatArray); err != nil {
		return nil, err
	}
	d := p.at(i)
	return d.floats()
}

// StringArray returns the i'th value as a fresh []string.
func (p *Packet) StringArray(i int) ([]string, error) {
	if err := p.check(i, DirStringArray); err != nil {
		return nil, err
	}
	d := p.at(i)
	return d.strings()
}

func (p *Packet) check(i int, want Directive) error {
	dirs := p.desc().dirs
	if i < 0 || i >= len(dirs) {
		return fmt.Errorf("packet: index %d out of range (%d values)", i, len(dirs))
	}
	if dirs[i] != want {
		return fmt.Errorf("%w: value %d is %s, want %s", ErrType, i, dirs[i], want)
	}
	return nil
}

// restamp returns a header-mutable copy sharing the payload, which is safe
// because packets are immutable once constructed (see
// TestRestampSharesPayload). Restamping therefore never copies or
// re-serializes a payload.
func (p *Packet) restamp() *Packet {
	q := *p
	return &q
}

// seqCounterBits splits Seq: the low 40 bits hold the per-(origin,stream)
// counter, the high 24 bits the originating rank. 2^24 ranks and 2^40
// packets per origin per stream outlast any overlay we build.
const seqCounterBits = 40

// MakeSeq packs an origin rank and a 1-based counter into a Seq value.
// Counter zero is reserved: a zero Seq means "unstamped".
func MakeSeq(origin Rank, counter uint64) uint64 {
	return uint64(uint32(origin))<<seqCounterBits | counter&(1<<seqCounterBits-1)
}

// SeqOrigin returns the originating rank packed into a Seq value.
func SeqOrigin(seq uint64) Rank { return Rank(seq >> seqCounterBits) }

// SeqCounter returns the per-(origin,stream) counter packed into a Seq.
func SeqCounter(seq uint64) uint64 { return seq & (1<<seqCounterBits - 1) }

// WithSeq returns a copy of the packet stamped with the given sequence
// number. The payload is shared, not copied.
func (p *Packet) WithSeq(seq uint64) *Packet {
	if p.Seq == seq {
		return p
	}
	q := p.restamp()
	q.Seq = seq
	return q
}

// WithStream returns a copy of the packet re-addressed to the given stream.
// The payload is shared, not copied.
func (p *Packet) WithStream(id uint32) *Packet { return p.WithStreamSrc(id, p.SrcRank) }

// WithStreamSrc re-addresses the packet to a stream and source in one
// copy; the root re-stamps a forwarded result this way as it delivers it.
func (p *Packet) WithStreamSrc(id uint32, r Rank) *Packet {
	if p.StreamID == id && p.SrcRank == r {
		return p
	}
	q := p.restamp()
	q.StreamID = id
	q.SrcRank = r
	return q
}
