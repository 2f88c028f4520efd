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
// encode.go; counted references for zero-copy multicast in refcount.go.
//
// A packet holds its payload in one of two forms. A packet built by New
// holds Go values and serializes them at most once (EncodedBytes). A packet
// produced by Decode holds the payload as it arrived — a slice of the
// decoder's input, validated but not parsed: the typed accessors (Int,
// Float, Bytes, ...) read straight from those bytes, only the generic
// Value/Values/String materialize Go values (once), and re-encoding emits
// the header from the packet's fields followed by the payload bytes
// unchanged. A process that only routes a packet therefore never parses,
// boxes or re-serializes its payload. The price is the aliasing contract
// stated at Decode.
package packet

import (
	"errors"
	"fmt"
	"math"
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

// ParseFormat parses a format string into its directives. The returned
// slice may be shared with other callers and must not be modified.
func ParseFormat(format string) ([]Directive, error) {
	fd, err := lookupFormat(format)
	if err != nil {
		return nil, err
	}
	return fd.dirs, nil
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
// constructed; filters produce new packets rather than mutating inputs, which
// is what makes counted references safe for zero-copy multicast.
type Packet struct {
	// Tag identifies the logical message type.
	Tag int32
	// StreamID identifies the stream this packet travels on. Zero means
	// "no stream" (control traffic).
	StreamID uint32
	// SrcRank is the rank of the node that created the packet.
	SrcRank Rank

	// loaded reports that a wire-backed packet's values have been
	// materialized (see Values). It sits in what would otherwise be padding.
	loaded atomic.Bool

	// Seq is the packet's origin-stamped delivery sequence number, zero
	// when unstamped. Exactly-once delivery packs the originating rank and
	// a per-(origin,stream) counter into it (see MakeSeq); unlike SrcRank,
	// which every hop re-stamps, Seq survives forwarding so receivers can
	// de-duplicate replayed packets. Credit grants reuse the field to carry
	// the cumulative acknowledgement count (see credit.go).
	Seq uint64

	// fd is the interned format descriptor; nil means the empty format.
	fd *formatDesc
	// values holds the payload as Go values: always for a packet built by
	// New, and for a wire-backed packet once loaded is set.
	values []any
	// payload is the payload in wire form, aliasing Decode's input. It is
	// non-nil exactly for decoded packets that have values, is validated
	// against fd at Decode, and is what every re-encode emits.
	payload []byte

	// wire caches the encoded form of a packet built by New so a multicast
	// that places the same packet on k outgoing links encodes it once; all
	// frames share the buffer (see EncodedBytes). mu serializes the two
	// once-only slow paths, that encode and the materialization of a
	// wire-backed packet's values. Both make Packet non-copyable — header
	// restamps go through restamp.
	//
	// When wireRefs is positive at encode time the cache body comes from
	// the arena (GetBuf) and is returned to it (PutBuf) by the final
	// ReleaseEncoded; with no holders the body is a plain allocation the
	// GC reclaims, so code that never touches the custody API keeps its
	// old semantics.
	wire     atomic.Pointer[Buf]
	wireRefs atomic.Int32
	mu       sync.Mutex
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

// RetainEncoded adds n holds on the packet's encoded body. While at least
// one hold is outstanding the encode body may come from the arena, and
// holders must keep their hold across any read of EncodedBytes — the final
// ReleaseEncoded recycles the buffer, after which its bytes belong to the
// next arena taker. The egress custody protocol in internal/core is the
// canonical caller: enqueue retains, the flush (or the replay-ring
// retirement under exactly-once) releases.
func (p *Packet) RetainEncoded(n int32) { p.wireRefs.Add(n) }

// ReleaseEncoded drops one hold, returning the cached encode body to the
// arena when the last hold goes. It reports whether this call was the
// final release. Releasing with no holds outstanding is a no-op returning
// false — that makes the double-release that an ack-during-replay
// re-append could otherwise produce harmless: the second custody chain
// finds the count already at zero and recycles nothing.
func (p *Packet) ReleaseEncoded() bool {
	for {
		v := p.wireRefs.Load()
		if v <= 0 {
			return false
		}
		if p.wireRefs.CompareAndSwap(v, v-1) {
			if v == 1 {
				p.recycleWire()
				return true
			}
			return false
		}
	}
}

// EncodedRefs returns the current number of encoded-body holds (for tests
// and metrics).
func (p *Packet) EncodedRefs() int32 { return p.wireRefs.Load() }

// recycleWire drops the wire cache and returns a pooled body to the
// arena. Safe against concurrent encodes: an encode racing past the swap
// stores a fresh buffer that simply retires to the GC (nobody holds a
// reference that would recycle it).
func (p *Packet) recycleWire() {
	if b := p.wire.Swap(nil); b != nil {
		PutBuf(b)
	}
}

// New constructs a packet, validating the values against the format string.
// The variadic slice is retained by the packet (coerced in place), so
// callers expanding a long-lived []any with ... must not mutate it after.
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
	for i, v := range values {
		cv, err := coerce(dirs[i], v)
		if err != nil {
			return nil, fmt.Errorf("value %d: %w", i, err)
		}
		values[i] = cv
	}
	return &Packet{
		Tag:      tag,
		StreamID: streamID,
		SrcRank:  src,
		fd:       fd,
		values:   values,
	}, nil
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

// coerce normalizes v to the canonical Go type for directive d, accepting
// the common convertible types so callers can pass int literals and the like.
func coerce(d Directive, v any) (any, error) {
	switch d {
	case DirByte:
		switch x := v.(type) {
		case byte:
			return x, nil
		case int:
			if x < 0 || x > 255 {
				return nil, fmt.Errorf("%w: int %d out of byte range", ErrType, x)
			}
			return byte(x), nil
		}
	case DirInt:
		switch x := v.(type) {
		case int64:
			return x, nil
		case int:
			return int64(x), nil
		case int32:
			return int64(x), nil
		case uint32:
			return int64(x), nil
		case Rank:
			return int64(x), nil
		}
	case DirFloat:
		switch x := v.(type) {
		case float64:
			return x, nil
		case float32:
			return float64(x), nil
		case int:
			return float64(x), nil
		}
	case DirString:
		if x, ok := v.(string); ok {
			return x, nil
		}
	case DirByteArray:
		if x, ok := v.([]byte); ok {
			return x, nil
		}
	case DirIntArray:
		switch x := v.(type) {
		case []int64:
			return x, nil
		case []int:
			out := make([]int64, len(x))
			for i, e := range x {
				out[i] = int64(e)
			}
			return out, nil
		}
	case DirFloatArray:
		if x, ok := v.([]float64); ok {
			return x, nil
		}
	case DirStringArray:
		if x, ok := v.([]string); ok {
			return x, nil
		}
	default:
		return nil, fmt.Errorf("%w: unknown directive", ErrBadFormat)
	}
	return nil, fmt.Errorf("%w: got %T for %s", ErrType, v, d)
}

// NumValues returns the number of payload values in the packet.
func (p *Packet) NumValues() int { return len(p.desc().dirs) }

// Directives returns the parsed directives. The returned slice must not be
// modified.
func (p *Packet) Directives() []Directive { return p.desc().dirs }

// Value returns the i'th payload value.
func (p *Packet) Value(i int) any { return p.Values()[i] }

// Values returns all payload values. The returned slice must not be
// modified. On a decoded packet the first call materializes them from the
// wire payload — one []any plus a box per value, what Decode used to cost
// every packet — and every later call, from any goroutine, returns the same
// slice; the typed accessors below never need it.
func (p *Packet) Values() []any {
	if p.wireBacked() {
		return p.load()
	}
	return p.values
}

// wireBacked reports whether the payload must be read from its wire form:
// the packet was decoded and nobody has materialized its values yet.
func (p *Packet) wireBacked() bool { return p.payload != nil && !p.loaded.Load() }

// load materializes a wire-backed packet's values exactly once.
func (p *Packet) load() []any {
	p.mu.Lock()
	defer p.mu.Unlock()
	if !p.loaded.Load() {
		vals, err := decodeValues(p.fd.dirs, p.payload)
		if err != nil {
			// Decode validated the payload with the same bounds checks.
			panic("packet: validated payload failed to materialize: " + err.Error())
		}
		p.values = vals
		p.loaded.Store(true)
	}
	return p.values
}

// at returns a cursor on the i'th value of the wire payload. Skipping the
// values before it cannot fail: Decode walked the whole payload the same
// way.
func (p *Packet) at(i int) decoder {
	d := decoder{b: p.payload}
	for _, dir := range p.fd.dirs[:i] {
		_ = d.skip(dir)
	}
	return d
}

// The typed accessors read a wire-backed packet's values in place: scalars
// and %ac without allocating (Bytes aliases the decoder's input), %s and
// the other arrays as a fresh copy per call — a caller that needs one
// repeatedly should keep it. Once Values has materialized the packet they
// return the materialized values, as they do for a packet built by New.

// Int returns the i'th value as an int64, or an error if it is not one.
func (p *Packet) Int(i int) (int64, error) {
	if err := p.check(i, DirInt); err != nil {
		return 0, err
	}
	if p.wireBacked() {
		d := p.at(i)
		v, err := d.u64()
		return int64(v), err
	}
	return p.values[i].(int64), nil
}

// Float returns the i'th value as a float64.
func (p *Packet) Float(i int) (float64, error) {
	if err := p.check(i, DirFloat); err != nil {
		return 0, err
	}
	if p.wireBacked() {
		d := p.at(i)
		v, err := d.u64()
		return math.Float64frombits(v), err
	}
	return p.values[i].(float64), nil
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
	if p.wireBacked() {
		d := p.at(i)
		sb, err := d.counted()
		return string(sb), err
	}
	return p.values[i].(string), nil
}

// Byte returns the i'th value as a byte.
func (p *Packet) Byte(i int) (byte, error) {
	if err := p.check(i, DirByte); err != nil {
		return 0, err
	}
	if p.wireBacked() {
		d := p.at(i)
		return d.u8()
	}
	return p.values[i].(byte), nil
}

// Bytes returns the i'th value as a []byte. The returned slice is shared
// with the packet (on a decoded packet, with the decoder's input) and must
// not be modified.
func (p *Packet) Bytes(i int) ([]byte, error) {
	if err := p.check(i, DirByteArray); err != nil {
		return nil, err
	}
	if p.wireBacked() {
		d := p.at(i)
		return d.counted()
	}
	return p.values[i].([]byte), nil
}

// IntArray returns the i'th value as a []int64 (shared, do not modify).
func (p *Packet) IntArray(i int) ([]int64, error) {
	if err := p.check(i, DirIntArray); err != nil {
		return nil, err
	}
	if p.wireBacked() {
		d := p.at(i)
		return d.ints()
	}
	return p.values[i].([]int64), nil
}

// FloatArray returns the i'th value as a []float64 (shared, do not modify).
func (p *Packet) FloatArray(i int) ([]float64, error) {
	if err := p.check(i, DirFloatArray); err != nil {
		return nil, err
	}
	if p.wireBacked() {
		d := p.at(i)
		return d.floats()
	}
	return p.values[i].([]float64), nil
}

// StringArray returns the i'th value as a []string (shared, do not modify).
func (p *Packet) StringArray(i int) ([]string, error) {
	if err := p.check(i, DirStringArray); err != nil {
		return nil, err
	}
	if p.wireBacked() {
		d := p.at(i)
		return d.strings()
	}
	return p.values[i].([]string), nil
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

// restamp returns a header-mutable copy sharing the payload in whichever
// form the original holds it — the values slice, the wire bytes, or both —
// which is safe because packets are immutable once constructed (see
// TestRestampSharesValues). A restamped decoded packet therefore still
// re-encodes without a serialization pass. The wire cache and its holds
// are deliberately NOT carried over: a restamped header encodes to
// different bytes, and the copy starts untracked (and Packet's cache
// fields make the struct non-copyable).
func (p *Packet) restamp() *Packet {
	q := &Packet{
		Tag:      p.Tag,
		StreamID: p.StreamID,
		SrcRank:  p.SrcRank,
		Seq:      p.Seq,
		fd:       p.fd,
		payload:  p.payload,
	}
	if !p.wireBacked() {
		q.values = p.values
		if p.payload != nil {
			q.loaded.Store(true)
		}
	}
	return q
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
func (p *Packet) WithStream(id uint32) *Packet {
	if p.StreamID == id {
		return p // immutable: an identical restamp can share the packet
	}
	q := p.restamp()
	q.StreamID = id
	return q
}

// WithSrc returns a copy of the packet with a new source rank. The payload
// is shared, not copied.
func (p *Packet) WithSrc(r Rank) *Packet {
	if p.SrcRank == r {
		return p
	}
	q := p.restamp()
	q.SrcRank = r
	return q
}

// WithStreamSrc re-addresses the packet to a stream and source in one
// copy; the hot upstream forwarding path re-stamps both per hop.
func (p *Packet) WithStreamSrc(id uint32, r Rank) *Packet {
	if p.StreamID == id && p.SrcRank == r {
		return p
	}
	q := p.restamp()
	q.StreamID = id
	q.SrcRank = r
	return q
}
