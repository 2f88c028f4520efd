package sketch

import (
	"fmt"
	"math"
	"math/bits"

	"repro/internal/packet"
)

// HLL is a HyperLogLog distinct-count sketch: 2^p one-byte registers, each
// holding the maximum leading-zero rank observed among hashes routed to it.
// Relative error is ≈ 1.04/√(2^p). Two sketches over any streams merge by
// register-wise max, and the merge is exact: the merged registers are
// bit-identical to sketching the union, so the TBON reduction loses
// nothing.
type HLL struct {
	p    int
	regs []byte
}

// NewHLL returns an empty sketch with 2^p registers, p in [4, 16].
func NewHLL(p int) (*HLL, error) {
	if p < 4 || p > 16 {
		return nil, fmt.Errorf("sketch: HLL precision %d out of range [4, 16]", p)
	}
	return &HLL{p: p, regs: make([]byte, 1<<p)}, nil
}

// Add observes a key.
func (h *HLL) Add(key string) {
	x := hash64(key)
	idx := x >> (64 - h.p)
	rest := x<<h.p | 1<<(h.p-1) // low bits; the guard bit caps rho at 64-p+1
	rho := byte(bits.LeadingZeros64(rest) + 1)
	if rho > h.regs[idx] {
		h.regs[idx] = rho
	}
}

// Estimate returns the approximate number of distinct keys observed.
func (h *HLL) Estimate() int64 {
	m := float64(len(h.regs))
	var sum float64
	zeros := 0
	for _, r := range h.regs {
		sum += math.Ldexp(1, -int(r))
		if r == 0 {
			zeros++
		}
	}
	var alpha float64
	switch len(h.regs) {
	case 16:
		alpha = 0.673
	case 32:
		alpha = 0.697
	case 64:
		alpha = 0.709
	default:
		alpha = 0.7213 / (1 + 1.079/m)
	}
	e := alpha * m * m / sum
	if e <= 2.5*m && zeros > 0 {
		// Small-range correction: linear counting on empty registers.
		e = m * math.Log(m/float64(zeros))
	}
	return int64(e + 0.5)
}

// Merge folds o into h by register-wise max. Precisions must match.
func (h *HLL) Merge(o *HLL) error {
	if h.p != o.p {
		return fmt.Errorf("sketch: HLL precision %d vs %d", h.p, o.p)
	}
	for i, r := range o.regs {
		if r > h.regs[i] {
			h.regs[i] = r
		}
	}
	return nil
}

// HLLFormat is the payload layout: precision, registers.
const HLLFormat = "%d %ac"

// ToPacket encodes the sketch.
func (h *HLL) ToPacket(tag int32, streamID uint32, src packet.Rank) (*packet.Packet, error) {
	return packet.New(tag, streamID, src, HLLFormat, int64(h.p), h.regs)
}

// HLLFromPacket decodes a HyperLogLog packet.
func HLLFromPacket(p *packet.Packet) (*HLL, error) {
	if p.Format() != HLLFormat {
		return nil, fmt.Errorf("sketch: unexpected HLL format %q", p.Format())
	}
	prec, err := p.Int(0)
	if err != nil {
		return nil, err
	}
	regs, err := p.Bytes(1)
	if err != nil {
		return nil, err
	}
	if prec < 4 || prec > 16 || len(regs) != 1<<prec {
		return nil, fmt.Errorf("sketch: HLL precision %d with %d registers", prec, len(regs))
	}
	return &HLL{p: int(prec), regs: append([]byte(nil), regs...)}, nil
}
