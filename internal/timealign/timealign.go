// Package timealign implements the time-aligned data aggregation the paper
// lists among the complex tree-based computations TBONs support (§1, §4):
// back-ends sample local metrics on their own (skew-corrected) clocks, and
// the tree must aggregate values that belong to the same global time bin —
// not merely values that happened to arrive together.
//
// Each packet carries a series of (bin, value) samples. The filter keeps a
// persistent per-bin accumulator; a bin is emitted once every child has
// contributed at least one sample past it (the watermark), so the
// aggregate for time T is complete when it leaves the node regardless of
// how asynchronously children deliver. This composes level by level: a
// parent's emitted bins are its subtree's fully aggregated time series.
package timealign

import (
	"fmt"
	"sort"

	"repro/internal/filter"
	"repro/internal/packet"
)

// PacketFormat is the payload layout: parallel arrays of bin indices and
// bin aggregates, plus the sender's watermark (the highest bin it has
// fully reported; everything <= watermark is final for its subtree).
const PacketFormat = "%ad %af %d"

// FilterName is the registry name of the time-aligned sum filter.
const FilterName = "timealign"

// Series is a time-binned metric series.
type Series struct {
	Bins      []int64
	Values    []float64
	Watermark int64
}

// ToPacket encodes the series.
func (s Series) ToPacket(tag int32, streamID uint32, src packet.Rank) (*packet.Packet, error) {
	if len(s.Bins) != len(s.Values) {
		return nil, fmt.Errorf("timealign: %d bins but %d values", len(s.Bins), len(s.Values))
	}
	return packet.New(tag, streamID, src, PacketFormat, s.Bins, s.Values, s.Watermark)
}

// FromPacket decodes a series packet.
func FromPacket(p *packet.Packet) (Series, error) {
	if p.Format() != PacketFormat {
		return Series{}, fmt.Errorf("timealign: unexpected packet format %q", p.Format())
	}
	bins, err := p.IntArray(0)
	if err != nil {
		return Series{}, err
	}
	values, err := p.FloatArray(1)
	if err != nil {
		return Series{}, err
	}
	if len(bins) != len(values) {
		return Series{}, fmt.Errorf("timealign: %d bins but %d values", len(bins), len(values))
	}
	wm, err := p.Int(2)
	if err != nil {
		return Series{}, err
	}
	return Series{
		Bins:      bins,
		Values:    values,
		Watermark: wm,
	}, nil
}

// Filter aggregates per-bin sums across children with watermark-driven
// release. It is stateful (persistent filter state in the paper's terms):
// partially filled bins wait across executions until every child's
// watermark passes them.
type Filter struct {
	acc        map[int64]float64 // bin -> running sum
	watermarks map[packet.Rank]int64
	emitted    int64 // highest bin already emitted
	expected   int   // children feeding this node (0 = not told)
}

// NewFilter returns an empty aligner. Call SetNumChildren (the overlay
// does this automatically at stream creation) so the aligner knows how
// many contributors must report before a bin is complete; without it, the
// first contributor's watermark alone releases bins.
func NewFilter() *Filter {
	return &Filter{
		acc:        map[int64]float64{},
		watermarks: map[packet.Rank]int64{},
		emitted:    -1,
	}
}

// SetNumChildren tells the aligner how many distinct sources feed it; it
// implements filter.ChildAware.
func (f *Filter) SetNumChildren(n int) { f.expected = n }

// Apply folds the round into the accumulator and emits every bin that
// is now complete (at or below the minimum watermark across children seen
// so far). Output packets carry this node's own watermark so parents can
// align in turn.
func (f *Filter) Apply(in []*packet.Packet, out filter.Emitter) error {
	if len(in) == 0 {
		return nil
	}
	for _, p := range in {
		s, err := FromPacket(p)
		if err != nil {
			return err
		}
		for i, b := range s.Bins {
			f.acc[b] += s.Values[i]
		}
		// Track the per-child watermark by source rank; a child reporting
		// again only moves its watermark forward.
		if wm, ok := f.watermarks[p.SrcRank]; !ok || s.Watermark > wm {
			f.watermarks[p.SrcRank] = s.Watermark
		}
	}
	low := f.minWatermark()
	if low <= f.emitted {
		return nil // nothing newly complete
	}
	var bins []int64
	for b := range f.acc {
		if b > f.emitted && b <= low {
			bins = append(bins, b)
		}
	}
	sort.Slice(bins, func(i, j int) bool { return bins[i] < bins[j] })
	values := make([]float64, len(bins))
	for i, b := range bins {
		values[i] = f.acc[b]
		delete(f.acc, b)
	}
	f.emitted = low
	p, err := Series{Bins: bins, Values: values, Watermark: low}.
		ToPacket(in[0].Tag, in[0].StreamID, packet.UnknownRank)
	if err != nil {
		return err
	}
	out.Emit(p)
	return nil
}

func (f *Filter) minWatermark() int64 {
	if len(f.watermarks) == 0 {
		return -1
	}
	// Until every expected contributor has reported, nothing is complete.
	if f.expected > 0 && len(f.watermarks) < f.expected {
		return -1
	}
	first := true
	var low int64
	for _, wm := range f.watermarks {
		if first || wm < low {
			low = wm
			first = false
		}
	}
	return low
}

// Register installs the aligner under FilterName.
func Register(reg *filter.Registry) {
	reg.RegisterTransformation(FilterName, func() filter.Transformation { return NewFilter() })
}
