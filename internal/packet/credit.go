package packet

import "encoding/binary"

// Credit-grant control packets are the return half of the overlay's
// credit-based flow control (see internal/transport's FlowLink and DESIGN.md
// §8): a receiver that has retired n data packets from a link direction
// hands the sender n fresh send credits by emitting one grant on the
// reverse direction. Grants are order-free — they carry no data-plane
// semantics and may overtake or trail any other traffic on the link — so
// transports absorb them at the receive edge before frames reach routing
// code.
//
// The encoding is deliberately compact: a grant is a header-only packet
// (no format string, no payload) whose StreamID field carries the credit
// count and whose Seq field carries the receiver's cumulative acknowledged
// total — the number of data packets it has retired on the link direction
// since the link was established. A grant therefore doubles as the
// acknowledgement that retires the sender's replay ring (DESIGN.md §10):
// no new packet class, and a grant still costs only the 25-byte wire
// header with zero payload encode/decode work on the hot reverse path.
// The cumulative total makes grants self-describing: a sender recovering
// from a missed hook or an out-of-order absorb can resynchronize its ring
// against the receiver's count rather than trusting per-grant deltas.

// NewCreditGrant builds a credit-grant packet returning n send credits and
// acknowledging acked cumulative data packets. n must be positive; the
// count travels in the header's StreamID field, the cumulative ack in Seq.
func NewCreditGrant(n uint32, acked uint64) *Packet {
	return &Packet{Tag: TagCredit, StreamID: n, Seq: acked}
}

// CreditGrantValue reports whether p is a credit grant and, if so, how many
// credits it returns.
func CreditGrantValue(p *Packet) (uint32, bool) {
	if p == nil || p.Tag != TagCredit {
		return 0, false
	}
	return p.StreamID, true
}

// CreditGrantAck returns the cumulative acknowledged total carried by a
// credit grant: how many data packets the receiver has retired on the link
// direction in its lifetime. Zero on pre-ack grants and non-grant packets.
func CreditGrantAck(p *Packet) uint64 {
	if p == nil || p.Tag != TagCredit {
		return 0
	}
	return p.Seq
}

// GrantFrameSize is the length of a wire frame that carries one credit
// grant and nothing else: the uint32 body-length prefix, the frame's packet
// count and the packet's length prefix, then the header-only grant.
const GrantFrameSize = 4 + 4 + 4 + minEncodedPacket

// AppendGrantFrame appends the complete wire frame, length prefix
// included, that AppendFrame would write for NewCreditGrant(n, acked) — the
// same bytes, written from the two fields, so a link can return credits
// without building a Packet.
func AppendGrantFrame(dst []byte, n uint32, acked uint64) []byte {
	dst = binary.LittleEndian.AppendUint32(dst, GrantFrameSize-4)
	dst = binary.LittleEndian.AppendUint32(dst, 1)
	dst = binary.LittleEndian.AppendUint32(dst, minEncodedPacket)
	dst = binary.LittleEndian.AppendUint16(dst, wireMagic)
	dst = append(dst, wireVersion)
	dst = binary.LittleEndian.AppendUint32(dst, uint32(TagCredit))
	dst = binary.LittleEndian.AppendUint32(dst, n)
	dst = binary.LittleEndian.AppendUint32(dst, 0) // SrcRank
	dst = binary.LittleEndian.AppendUint64(dst, acked)
	return binary.LittleEndian.AppendUint16(dst, 0) // no format
}

// ParseGrantFrame reads a complete wire frame, length prefix included, that
// carries exactly one header-only credit grant, returning its credit count
// and cumulative ack in place. It accepts exactly the GrantFrameSize-byte
// frames whose body DecodeFrame decodes to one TagCredit packet; ok is
// false for every other input, which the caller then reads as an ordinary
// frame.
func ParseGrantFrame(b []byte) (n uint32, acked uint64, ok bool) {
	le := binary.LittleEndian
	if len(b) != GrantFrameSize ||
		le.Uint32(b[0:]) != GrantFrameSize-4 ||
		le.Uint32(b[4:]) != 1 ||
		le.Uint32(b[8:]) != minEncodedPacket ||
		le.Uint16(b[12:]) != wireMagic ||
		b[14] != wireVersion ||
		int32(le.Uint32(b[15:])) != TagCredit ||
		le.Uint16(b[35:]) != 0 {
		return 0, 0, false
	}
	return le.Uint32(b[19:]), le.Uint64(b[27:]), true
}
