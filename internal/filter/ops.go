package filter

import (
	"errors"
	"fmt"
	"strings"

	"repro/internal/packet"
)

// Op selects a built-in numeric aggregation.
type Op int

// The built-in aggregation operators the paper lists for MRNet.
const (
	OpSum Op = iota
	OpMin
	OpMax
	OpAvg
	OpCount
)

// String returns the operator's registry name.
func (o Op) String() string {
	switch o {
	case OpSum:
		return "sum"
	case OpMin:
		return "min"
	case OpMax:
		return "max"
	case OpAvg:
		return "avg"
	case OpCount:
		return "count"
	}
	return "op?"
}

// ErrMixedFormats reports a reduction batch whose packets disagree on
// payload shape.
var ErrMixedFormats = errors.New("filter: mixed payload formats in one batch")

// NumericReduce is the family of built-in aggregations over the first
// payload value of each packet. Supported payload shapes:
//
//	%d / %f      scalar reduce
//	%ad / %af    element-wise reduce (all arrays must share a length)
//
// Averages are composable across tree levels: the avg filter emits packets
// of format "%d %f" (weight, mean) and accepts both plain "%f" inputs
// (weight 1, from back-ends) and its own "%d %f" outputs (from descendant
// communication processes), so nested applications compute the true global
// mean. Counts likewise: "count" emits "%d" partial counts and treats any
// non-"%d" input as a single element.
type NumericReduce struct {
	op Op
}

// NewNumericReduce returns a reduction filter for the given operator.
func NewNumericReduce(op Op) *NumericReduce { return &NumericReduce{op: op} }

// Apply reduces the round to a single packet.
func (nr *NumericReduce) Apply(in []*packet.Packet, out Emitter) error {
	if len(in) == 0 {
		return nil
	}
	var p *packet.Packet
	var err error
	switch nr.op {
	case OpCount:
		p, err = nr.count(in)
	case OpAvg:
		p, err = nr.avg(in)
	default:
		p, err = nr.reduce(in)
	}
	if err != nil {
		return err
	}
	out.Emit(p)
	return nil
}

// Transform returns Apply's outputs as a slice. It only adapts
// bench/ladder.go's filter.sum_ns and filter.sum_allocs rungs: the
// benchmark's next upkeep (ROADMAP item 1) moves them onto Apply and
// deletes it.
func (nr *NumericReduce) Transform(in []*packet.Packet) ([]*packet.Packet, error) {
	return Collect(nr, in)
}

func (nr *NumericReduce) count(in []*packet.Packet) (*packet.Packet, error) {
	var total int64
	for _, p := range in {
		if p.Format() == "%d" {
			v, err := p.Int(0)
			if err != nil {
				return nil, err
			}
			total += v
		} else {
			total++
		}
	}
	return packet.New(in[0].Tag, in[0].StreamID, packet.UnknownRank, "%d", total)
}

func (nr *NumericReduce) avg(in []*packet.Packet) (*packet.Packet, error) {
	var weight int64
	var sum float64
	for _, p := range in {
		switch p.Format() {
		case "%f":
			v, err := p.Float(0)
			if err != nil {
				return nil, err
			}
			sum += v
			weight++
		case "%d %f":
			w, err := p.Int(0)
			if err != nil {
				return nil, err
			}
			m, err := p.Float(1)
			if err != nil {
				return nil, err
			}
			sum += m * float64(w)
			weight += w
		case "%d":
			v, err := p.Int(0)
			if err != nil {
				return nil, err
			}
			sum += float64(v)
			weight++
		default:
			return nil, fmt.Errorf("%w: avg cannot consume %q", ErrMixedFormats, p.Format())
		}
	}
	mean := 0.0
	if weight > 0 {
		mean = sum / float64(weight)
	}
	return packet.New(in[0].Tag, in[0].StreamID, packet.UnknownRank, "%d %f", weight, mean)
}

func (nr *NumericReduce) reduce(in []*packet.Packet) (*packet.Packet, error) {
	format := in[0].Format()
	for _, p := range in[1:] {
		if p.Format() != format {
			return nil, fmt.Errorf("%w: %q vs %q", ErrMixedFormats, format, p.Format())
		}
	}
	switch format {
	case "%d":
		acc, err := in[0].Int(0)
		if err != nil {
			return nil, err
		}
		for _, p := range in[1:] {
			v, _ := p.Int(0)
			acc = nr.foldInt(acc, v)
		}
		return packet.New(in[0].Tag, in[0].StreamID, packet.UnknownRank, "%d", acc)
	case "%f":
		acc, err := in[0].Float(0)
		if err != nil {
			return nil, err
		}
		for _, p := range in[1:] {
			v, _ := p.Float(0)
			acc = nr.foldFloat(acc, v)
		}
		return packet.New(in[0].Tag, in[0].StreamID, packet.UnknownRank, "%f", acc)
	case "%ad":
		acc, err := in[0].IntArray(0)
		if err != nil {
			return nil, err
		}
		for _, p := range in[1:] {
			xs, _ := p.IntArray(0)
			if len(xs) != len(acc) {
				return nil, fmt.Errorf("%w: array lengths %d vs %d", ErrMixedFormats, len(acc), len(xs))
			}
			for i, v := range xs {
				acc[i] = nr.foldInt(acc[i], v)
			}
		}
		return packet.New(in[0].Tag, in[0].StreamID, packet.UnknownRank, "%ad", acc)
	case "%af":
		acc, err := in[0].FloatArray(0)
		if err != nil {
			return nil, err
		}
		for _, p := range in[1:] {
			xs, _ := p.FloatArray(0)
			if len(xs) != len(acc) {
				return nil, fmt.Errorf("%w: array lengths %d vs %d", ErrMixedFormats, len(acc), len(xs))
			}
			for i, v := range xs {
				acc[i] = nr.foldFloat(acc[i], v)
			}
		}
		return packet.New(in[0].Tag, in[0].StreamID, packet.UnknownRank, "%af", acc)
	default:
		return nil, fmt.Errorf("filter: %s cannot consume format %q", nr.op, format)
	}
}

func (nr *NumericReduce) foldInt(a, b int64) int64 {
	switch nr.op {
	case OpMin:
		if b < a {
			return b
		}
		return a
	case OpMax:
		if b > a {
			return b
		}
		return a
	default: // OpSum
		return a + b
	}
}

func (nr *NumericReduce) foldFloat(a, b float64) float64 {
	switch nr.op {
	case OpMin:
		if b < a {
			return b
		}
		return a
	case OpMax:
		if b > a {
			return b
		}
		return a
	default: // OpSum
		return a + b
	}
}

// Concat merges a round into one packet whose format is the concatenation
// of the input formats and whose payload is the inputs' payloads appended
// in order — MRNet's built-in concatenation filter.
type Concat struct{}

// Apply concatenates the round.
func (Concat) Apply(in []*packet.Packet, out Emitter) error {
	if len(in) == 0 {
		return nil
	}
	var fmtParts []string
	var values []any
	for _, p := range in {
		if p.Format() != "" {
			fmtParts = append(fmtParts, p.Format())
		}
		values = append(values, p.Values()...)
	}
	p, err := packet.New(in[0].Tag, in[0].StreamID, packet.UnknownRank,
		strings.Join(fmtParts, " "), values...)
	if err != nil {
		return err
	}
	out.Emit(p)
	return nil
}

// Chain composes transformations in sequence, feeding each filter's output
// to the next. The paper notes MRNet lacks filter chaining but that a
// single "super filter" propagating flow through a sequence of filters can
// seamlessly mimic it — Chain is that super filter. Each stage but the last
// emits into one of two buffers the chain owns and reuses, and the last
// emits to the chain's own receiver. A chain of no stages is the identity.
type Chain struct {
	stages []Transformation
	bufs   [2]Outputs
}

// NewChain returns the chain of the given stages, applied in order.
func NewChain(stages ...Transformation) *Chain { return &Chain{stages: stages} }

// Apply runs every stage in order. A stage that emits nothing ends the
// chain.
func (c *Chain) Apply(in []*packet.Packet, out Emitter) error {
	if len(c.stages) == 0 {
		return Identity{}.Apply(in, out)
	}
	cur := in
	for i, stage := range c.stages {
		var dst Emitter = out
		next := &c.bufs[i%2] // stays empty for the last stage
		if i < len(c.stages)-1 {
			dst = next
		}
		err := stage.Apply(cur, dst)
		c.bufs[(i+1)%2].Reset() // cur, now consumed
		if err != nil {
			next.Reset()
			return fmt.Errorf("filter: chain stage %d: %w", i, err)
		}
		if len(*next) == 0 {
			return nil
		}
		cur = *next
	}
	return nil
}
