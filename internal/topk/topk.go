// Package topk implements an exact top-k reduction over keyed
// observations: every back-end reports its (key, value) measurements —
// e.g. per-function CPU time from a profiling daemon — and each tree level
// keeps only the k largest, so the front-end receives the global top k
// with per-link traffic bounded by k regardless of fleet size. Exactness
// holds because max-selection is associative: the global top k is always
// contained in the union of per-subtree top k's.
package topk

import (
	"fmt"
	"sort"

	"repro/internal/filter"
	"repro/internal/packet"
)

// Entry is one keyed observation.
type Entry struct {
	Key   string
	Value float64
}

// List is a top-k accumulator. The zero value is unusable; construct with
// NewList.
type List struct {
	k       int
	entries []Entry
}

// NewList returns an accumulator keeping the k largest entries.
func NewList(k int) (*List, error) {
	if k <= 0 {
		return nil, fmt.Errorf("topk: k must be positive, got %d", k)
	}
	return &List{k: k}, nil
}

// K returns the list's capacity.
func (l *List) K() int { return l.k }

// Add offers one observation. Duplicate keys are kept separately — the
// caller is responsible for key uniqueness within one origin (distinct
// back-ends reporting the same key are distinct observations, as when two
// hosts both spend time in main).
func (l *List) Add(e Entry) {
	l.entries = append(l.entries, e)
	l.compact()
}

// Merge folds another list in.
func (l *List) Merge(o *List) {
	l.entries = append(l.entries, o.entries...)
	l.compact()
}

func (l *List) compact() {
	sort.SliceStable(l.entries, func(i, j int) bool {
		if l.entries[i].Value != l.entries[j].Value {
			return l.entries[i].Value > l.entries[j].Value
		}
		return l.entries[i].Key < l.entries[j].Key // deterministic ties
	})
	if len(l.entries) > l.k {
		l.entries = l.entries[:l.k]
	}
}

// Entries returns the kept entries, largest first (shared; do not modify).
func (l *List) Entries() []Entry { return l.entries }

// PacketFormat is the payload layout: k, keys, values.
const PacketFormat = "%d %as %af"

// FilterName is the registry name of the top-k merge filter.
const FilterName = "topk"

// ToPacket encodes the list.
func (l *List) ToPacket(tag int32, streamID uint32, src packet.Rank) (*packet.Packet, error) {
	keys := make([]string, len(l.entries))
	vals := make([]float64, len(l.entries))
	for i, e := range l.entries {
		keys[i] = e.Key
		vals[i] = e.Value
	}
	return packet.New(tag, streamID, src, PacketFormat, int64(l.k), keys, vals)
}

// FromPacket decodes a top-k packet.
func FromPacket(p *packet.Packet) (*List, error) {
	if p.Format() != PacketFormat {
		return nil, fmt.Errorf("topk: unexpected packet format %q", p.Format())
	}
	k, err := p.Int(0)
	if err != nil {
		return nil, err
	}
	keys, err := p.StringArray(1)
	if err != nil {
		return nil, err
	}
	vals, err := p.FloatArray(2)
	if err != nil {
		return nil, err
	}
	if len(keys) != len(vals) {
		return nil, fmt.Errorf("topk: %d keys but %d values", len(keys), len(vals))
	}
	l, err := NewList(int(k))
	if err != nil {
		return nil, err
	}
	for i := range keys {
		l.Add(Entry{Key: keys[i], Value: vals[i]})
	}
	return l, nil
}

// Filter merges child top-k lists; all inputs must agree on k.
type Filter struct{}

// Apply merges the round into one top-k packet.
func (Filter) Apply(in []*packet.Packet, out filter.Emitter) error {
	if len(in) == 0 {
		return nil
	}
	acc, err := FromPacket(in[0])
	if err != nil {
		return err
	}
	for _, p := range in[1:] {
		l, err := FromPacket(p)
		if err != nil {
			return err
		}
		if l.k != acc.k {
			return fmt.Errorf("topk: mismatched k (%d vs %d)", l.k, acc.k)
		}
		acc.Merge(l)
	}
	p, err := acc.ToPacket(in[0].Tag, in[0].StreamID, packet.UnknownRank)
	if err != nil {
		return err
	}
	out.Emit(p)
	return nil
}

// Register installs the filter under FilterName.
func Register(reg *filter.Registry) {
	reg.RegisterTransformation(FilterName, func() filter.Transformation { return Filter{} })
}
