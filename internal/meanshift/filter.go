package meanshift

import (
	"fmt"

	"repro/internal/filter"
	"repro/internal/packet"
)

// PacketFormat is the payload layout of distributed mean-shift packets:
// the condensed data set as x,y pairs, the per-point weights, and the peak
// list as x,y pairs.
const PacketFormat = "%af %af %af"

// FilterName is the registry name of the distributed mean-shift filter.
const FilterName = "meanshift"

// MakePacket builds a mean-shift result packet. weights may be nil (all 1).
func MakePacket(tag int32, streamID uint32, src packet.Rank, data []Point, weights []float64, peaks []Point) (*packet.Packet, error) {
	if weights == nil {
		weights = make([]float64, len(data))
		for i := range weights {
			weights[i] = 1
		}
	}
	if len(weights) != len(data) {
		return nil, fmt.Errorf("meanshift: %d points but %d weights", len(data), len(weights))
	}
	return packet.New(tag, streamID, src, PacketFormat,
		PointsToFloats(data), weights, PointsToFloats(peaks))
}

// ParsePacket extracts the condensed data, weights and peaks from a
// mean-shift packet.
func ParsePacket(p *packet.Packet) (data []Point, weights []float64, peaks []Point, err error) {
	if p.Format() != PacketFormat {
		return nil, nil, nil, fmt.Errorf("meanshift: unexpected packet format %q", p.Format())
	}
	dv, err := p.FloatArray(0)
	if err != nil {
		return nil, nil, nil, err
	}
	wv, err := p.FloatArray(1)
	if err != nil {
		return nil, nil, nil, err
	}
	pv, err := p.FloatArray(2)
	if err != nil {
		return nil, nil, nil, err
	}
	data = FloatsToPoints(dv)
	if len(wv) != len(data) {
		return nil, nil, nil, fmt.Errorf("meanshift: %d points but %d weights", len(data), len(wv))
	}
	return data, wv, FloatsToPoints(pv), nil
}

// TotalWeight sums a weight vector (the number of raw samples the
// condensed set represents).
func TotalWeight(ws []float64) float64 {
	var t float64
	for _, w := range ws {
		t += w
	}
	return t
}

// LeafResult runs the complete back-end computation of §3.1 on local raw
// data: find peaks, then condense the data set for upstream transmission.
func LeafResult(data []Point, p Params) (pts []Point, ws []float64, peaks []Point) {
	peaks = FindPeaks(data, p)
	pts, ws = Condense(data, nil, peaks, p)
	return pts, ws, peaks
}

// Filter is the TBON transformation implementing §3.1's distributed
// algorithm at internal nodes: merge the children's (condensed, weighted)
// data sets, run the mean-shift procedure over the merged set using the
// children's peaks as starting points, and forward the newly condensed
// data plus refined peaks.
type Filter struct {
	Params Params
	// OnCompute, if set, observes each execution's input size and is used
	// by the experiment harness to account per-node compute time.
	OnCompute func(points int)
}

// Apply merges child results and re-runs mean-shift.
func (f *Filter) Apply(in []*packet.Packet, out filter.Emitter) error {
	if len(in) == 0 {
		return nil
	}
	var data, seeds []Point
	var weights []float64
	for _, p := range in {
		d, w, pk, err := ParsePacket(p)
		if err != nil {
			return err
		}
		data = append(data, d...)
		weights = append(weights, w...)
		seeds = append(seeds, pk...)
	}
	if f.OnCompute != nil {
		f.OnCompute(len(data))
	}
	peaks := FindPeaksSeeded(data, weights, seeds, f.Params)
	pts, ws := Condense(data, weights, peaks, f.Params)
	p, err := MakePacket(in[0].Tag, in[0].StreamID, packet.UnknownRank, pts, ws, peaks)
	if err != nil {
		return err
	}
	out.Emit(p)
	return nil
}

// Register installs the mean-shift filter under FilterName, capturing the
// given parameters for every instantiation.
func Register(reg *filter.Registry, p Params) {
	p = p.WithDefaults()
	reg.RegisterTransformation(FilterName, func() filter.Transformation {
		return &Filter{Params: p}
	})
}
