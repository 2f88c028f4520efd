// Package histogram implements the mergeable fixed-bin histogram the paper
// lists among complex tree-based computations ("creating ... data
// histograms"): back-ends histogram local observations, and every
// communication process merges child histograms bin-wise, so the front-end
// receives the global distribution at constant (bin-count) message size
// regardless of the number of back-ends.
package histogram

import (
	"errors"
	"fmt"
	"math"

	"repro/internal/filter"
	"repro/internal/packet"
)

// Histogram is a fixed-range, fixed-width binned counter. Out-of-range
// observations clamp to the boundary bins so mass is never lost.
type Histogram struct {
	Min, Max float64
	Bins     []int64
}

// ErrMismatch reports an attempt to merge histograms with different
// configurations.
var ErrMismatch = errors.New("histogram: mismatched bounds or bin count")

// New creates a histogram over [min, max) with n bins.
func New(min, max float64, n int) (*Histogram, error) {
	if n <= 0 {
		return nil, fmt.Errorf("histogram: bin count %d must be positive", n)
	}
	if !(min < max) {
		return nil, fmt.Errorf("histogram: bad range [%g, %g)", min, max)
	}
	return &Histogram{Min: min, Max: max, Bins: make([]int64, n)}, nil
}

// Add records one observation.
func (h *Histogram) Add(x float64) {
	if math.IsNaN(x) {
		return
	}
	i := int(float64(len(h.Bins)) * (x - h.Min) / (h.Max - h.Min))
	if i < 0 {
		i = 0
	}
	if i >= len(h.Bins) {
		i = len(h.Bins) - 1
	}
	h.Bins[i]++
}

// Count returns the total number of recorded observations.
func (h *Histogram) Count() int64 {
	var t int64
	for _, b := range h.Bins {
		t += b
	}
	return t
}

// Merge adds o's counts into h. Configurations must match.
func (h *Histogram) Merge(o *Histogram) error {
	if h.Min != o.Min || h.Max != o.Max || len(h.Bins) != len(o.Bins) {
		return ErrMismatch
	}
	for i, b := range o.Bins {
		h.Bins[i] += b
	}
	return nil
}

// Quantile returns an estimate of the q'th quantile (0..1) assuming uniform
// mass within bins.
func (h *Histogram) Quantile(q float64) float64 {
	total := h.Count()
	if total == 0 {
		return h.Min
	}
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	target := q * float64(total)
	var cum float64
	width := (h.Max - h.Min) / float64(len(h.Bins))
	for i, b := range h.Bins {
		next := cum + float64(b)
		if next >= target && b > 0 {
			frac := (target - cum) / float64(b)
			return h.Min + width*(float64(i)+frac)
		}
		cum = next
	}
	return h.Max
}

// PacketFormat is the payload layout of histogram packets.
const PacketFormat = "%f %f %ad"

// FilterName is the registry name of the histogram merge filter.
const FilterName = "histogram"

// ToPacket encodes the histogram.
func (h *Histogram) ToPacket(tag int32, streamID uint32, src packet.Rank) (*packet.Packet, error) {
	return packet.New(tag, streamID, src, PacketFormat, h.Min, h.Max, h.Bins)
}

// FromPacket decodes a histogram packet.
func FromPacket(p *packet.Packet) (*Histogram, error) {
	if p.Format() != PacketFormat {
		return nil, fmt.Errorf("histogram: unexpected packet format %q", p.Format())
	}
	min, err := p.Float(0)
	if err != nil {
		return nil, err
	}
	max, err := p.Float(1)
	if err != nil {
		return nil, err
	}
	bins, err := p.IntArray(2)
	if err != nil {
		return nil, err
	}
	if !(min < max) || len(bins) == 0 {
		return nil, fmt.Errorf("histogram: invalid payload [%g,%g) %d bins", min, max, len(bins))
	}
	return &Histogram{Min: min, Max: max, Bins: bins}, nil
}

// Filter merges child histograms bin-wise.
type Filter struct{}

// Apply merges the round into a single histogram packet.
func (Filter) Apply(in []*packet.Packet, out filter.Emitter) error {
	if len(in) == 0 {
		return nil
	}
	acc, err := FromPacket(in[0])
	if err != nil {
		return err
	}
	for _, p := range in[1:] {
		h, err := FromPacket(p)
		if err != nil {
			return err
		}
		if err := acc.Merge(h); err != nil {
			return err
		}
	}
	p, err := acc.ToPacket(in[0].Tag, in[0].StreamID, packet.UnknownRank)
	if err != nil {
		return err
	}
	out.Emit(p)
	return nil
}

// Register installs the histogram filter under FilterName.
func Register(reg *filter.Registry) {
	reg.RegisterTransformation(FilterName, func() filter.Transformation { return Filter{} })
}
