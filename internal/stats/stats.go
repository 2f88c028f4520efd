// Package stats implements a composable summary-statistics reduction:
// count, mean, variance, min and max computed exactly across a tree by
// merging sufficient statistics (n, Σx, Σx², min, max) instead of raw
// samples. It is the canonical example of the paper's data-reduction
// property — constant-size output summarizing arbitrarily many inputs —
// one notch richer than the built-in avg filter.
package stats

import (
	"fmt"
	"math"

	"repro/internal/filter"
	"repro/internal/packet"
)

// Moments holds the sufficient statistics of a sample set.
type Moments struct {
	N          int64
	Sum, SumSq float64
	MinV, MaxV float64
}

// New returns empty moments.
func New() *Moments {
	return &Moments{MinV: math.Inf(1), MaxV: math.Inf(-1)}
}

// Add folds one observation in.
func (m *Moments) Add(x float64) {
	m.N++
	m.Sum += x
	m.SumSq += x * x
	if x < m.MinV {
		m.MinV = x
	}
	if x > m.MaxV {
		m.MaxV = x
	}
}

// Merge folds another summary in; the result is exactly the summary of the
// union of the underlying samples (associative and commutative, so the
// reduction is tree-shape invariant).
func (m *Moments) Merge(o *Moments) {
	m.N += o.N
	m.Sum += o.Sum
	m.SumSq += o.SumSq
	if o.MinV < m.MinV {
		m.MinV = o.MinV
	}
	if o.MaxV > m.MaxV {
		m.MaxV = o.MaxV
	}
}

// Mean returns the arithmetic mean (0 when empty).
func (m *Moments) Mean() float64 {
	if m.N == 0 {
		return 0
	}
	return m.Sum / float64(m.N)
}

// Variance returns the population variance (0 when empty). Negative
// rounding residue is clamped to 0.
func (m *Moments) Variance() float64 {
	if m.N == 0 {
		return 0
	}
	mean := m.Mean()
	v := m.SumSq/float64(m.N) - mean*mean
	if v < 0 {
		return 0
	}
	return v
}

// Std returns the population standard deviation.
func (m *Moments) Std() float64 { return math.Sqrt(m.Variance()) }

// Min returns the smallest observation (0 when empty).
func (m *Moments) Min() float64 {
	if m.N == 0 {
		return 0
	}
	return m.MinV
}

// Max returns the largest observation (0 when empty).
func (m *Moments) Max() float64 {
	if m.N == 0 {
		return 0
	}
	return m.MaxV
}

// PacketFormat is the payload layout: n, sum, sum of squares, min, max.
const PacketFormat = "%d %f %f %f %f"

// FilterName is the registry name of the moments merge filter.
const FilterName = "stats"

// ToPacket encodes the summary.
func (m *Moments) ToPacket(tag int32, streamID uint32, src packet.Rank) (*packet.Packet, error) {
	return packet.New(tag, streamID, src, PacketFormat, m.N, m.Sum, m.SumSq, m.MinV, m.MaxV)
}

// FromPacket decodes a summary packet.
func FromPacket(p *packet.Packet) (*Moments, error) {
	if p.Format() != PacketFormat {
		return nil, fmt.Errorf("stats: unexpected packet format %q", p.Format())
	}
	n, err := p.Int(0)
	if err != nil {
		return nil, err
	}
	sum, err := p.Float(1)
	if err != nil {
		return nil, err
	}
	sumsq, err := p.Float(2)
	if err != nil {
		return nil, err
	}
	minv, err := p.Float(3)
	if err != nil {
		return nil, err
	}
	maxv, err := p.Float(4)
	if err != nil {
		return nil, err
	}
	if n < 0 {
		return nil, fmt.Errorf("stats: negative count %d", n)
	}
	return &Moments{N: n, Sum: sum, SumSq: sumsq, MinV: minv, MaxV: maxv}, nil
}

// Filter merges child summaries.
type Filter struct{}

// Apply merges the round into a single summary packet.
func (Filter) Apply(in []*packet.Packet, out filter.Emitter) error {
	if len(in) == 0 {
		return nil
	}
	acc := New()
	for _, p := range in {
		m, err := FromPacket(p)
		if err != nil {
			return err
		}
		acc.Merge(m)
	}
	p, err := acc.ToPacket(in[0].Tag, in[0].StreamID, packet.UnknownRank)
	if err != nil {
		return err
	}
	out.Emit(p)
	return nil
}

// Register installs the moments filter under FilterName.
func Register(reg *filter.Registry) {
	reg.RegisterTransformation(FilterName, func() filter.Transformation { return Filter{} })
}
