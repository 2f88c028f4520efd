// Package eqclass implements the equivalence-class filter computation of
// the paper's Figure 2 — the pattern it argues large classes of data mining
// and clustering applications reduce to. Elements (key, member) are
// classified into equivalence classes by key; the filter merges class sets
// flowing upstream and, crucially, suppresses redundancy: a class already
// reported upstream is forwarded again only with its *new* members.
//
// This is the mechanism MRNet's Paradyn integration used to cut 512-daemon
// startup traffic: when hundreds of daemons report identical platform or
// program structure, the tree forwards each distinct report once per level
// instead of once per daemon.
package eqclass

import (
	"fmt"
	"sort"

	"repro/internal/filter"
	"repro/internal/packet"
)

// Set maps class keys to their member identifiers.
type Set struct {
	classes map[string][]int64
}

// NewSet returns an empty class set.
func NewSet() *Set { return &Set{classes: map[string][]int64{}} }

// Add classifies member into the class named key, reporting whether the
// (key, member) pair was new.
func (s *Set) Add(key string, member int64) bool {
	for _, m := range s.classes[key] {
		if m == member {
			return false
		}
	}
	s.classes[key] = append(s.classes[key], member)
	return true
}

// Merge folds o into s and returns the delta: the pairs of o that were not
// already present in s. The delta is what a suppressing filter forwards.
func (s *Set) Merge(o *Set) *Set {
	delta := NewSet()
	for key, members := range o.classes {
		for _, m := range members {
			if s.Add(key, m) {
				delta.Add(key, m)
			}
		}
	}
	return delta
}

// Len returns the number of (key, member) pairs.
func (s *Set) Len() int {
	n := 0
	for _, ms := range s.classes {
		n += len(ms)
	}
	return n
}

// Keys returns the class keys, sorted.
func (s *Set) Keys() []string {
	ks := make([]string, 0, len(s.classes))
	for k := range s.classes {
		ks = append(ks, k)
	}
	sort.Strings(ks)
	return ks
}

// Members returns the members of the class (sorted copy).
func (s *Set) Members(key string) []int64 {
	ms := append([]int64(nil), s.classes[key]...)
	sort.Slice(ms, func(i, j int) bool { return ms[i] < ms[j] })
	return ms
}

// PacketFormat is the payload layout of class-set packets: a key per
// member, parallel to the member array.
const PacketFormat = "%as %ad"

// FilterName is the registry name of the suppressing equivalence-class
// filter.
const FilterName = "eqclass"

// ToPacket encodes the set as parallel (key, member) arrays.
func (s *Set) ToPacket(tag int32, streamID uint32, src packet.Rank) (*packet.Packet, error) {
	var keys []string
	var members []int64
	for _, k := range s.Keys() {
		for _, m := range s.Members(k) {
			keys = append(keys, k)
			members = append(members, m)
		}
	}
	return packet.New(tag, streamID, src, PacketFormat, keys, members)
}

// FromPacket decodes a class-set packet.
func FromPacket(p *packet.Packet) (*Set, error) {
	if p.Format() != PacketFormat {
		return nil, fmt.Errorf("eqclass: unexpected packet format %q", p.Format())
	}
	keys, err := p.StringArray(0)
	if err != nil {
		return nil, err
	}
	members, err := p.IntArray(1)
	if err != nil {
		return nil, err
	}
	if len(keys) != len(members) {
		return nil, fmt.Errorf("eqclass: %d keys but %d members", len(keys), len(members))
	}
	s := NewSet()
	for i, k := range keys {
		s.Add(k, members[i])
	}
	return s, nil
}

// Filter is the stateful suppressing filter: it accumulates every (key,
// member) pair seen at this node and forwards only pairs that are new,
// reducing upstream traffic to the information content of the reports.
type Filter struct {
	seen *Set
}

// NewFilter returns a filter with empty state.
func NewFilter() *Filter { return &Filter{seen: NewSet()} }

// Apply merges the round into the node's persistent state and forwards
// the delta; a round carrying nothing new is suppressed entirely.
func (f *Filter) Apply(in []*packet.Packet, out filter.Emitter) error {
	if len(in) == 0 {
		return nil
	}
	delta := NewSet()
	for _, p := range in {
		s, err := FromPacket(p)
		if err != nil {
			return err
		}
		d := f.seen.Merge(s)
		delta.Merge(d)
	}
	if delta.Len() == 0 {
		return nil
	}
	p, err := delta.ToPacket(in[0].Tag, in[0].StreamID, packet.UnknownRank)
	if err != nil {
		return err
	}
	out.Emit(p)
	return nil
}

// State serializes the filter's seen-set for state composition (reliability).
func (f *Filter) State() ([]byte, error) {
	p, err := f.seen.ToPacket(0, 0, packet.UnknownRank)
	if err != nil {
		return nil, err
	}
	return p.Encode(), nil
}

// SetState restores a snapshot produced by State. The decoded packet
// aliases b (see packet.Decode) but does not outlive the call — FromPacket
// copies every key and member into the Set — so b is the caller's again on
// return.
func (f *Filter) SetState(b []byte) error {
	p, err := packet.Decode(b)
	if err != nil {
		return err
	}
	s, err := FromPacket(p)
	if err != nil {
		return err
	}
	f.seen = s
	return nil
}

// ReplayState converts a state snapshot back into the data packet whose
// processing reproduces it. Failure recovery replays a lost node's
// composed state through the adopting node's filter pipeline: the adopter
// absorbs it and re-forwards upstream whatever information had been lost
// in flight with the failed node, while duplicates are suppressed level by
// level as usual. Replayed packets carry packet.TagEvent. The returned
// packet is built from the Set's own copies, never from state's bytes.
func (f *Filter) ReplayState(state []byte) ([]*packet.Packet, error) {
	p, err := packet.Decode(state)
	if err != nil {
		return nil, err
	}
	s, err := FromPacket(p)
	if err != nil {
		return nil, err
	}
	if s.Len() == 0 {
		return nil, nil
	}
	out, err := s.ToPacket(packet.TagEvent, 0, packet.UnknownRank)
	if err != nil {
		return nil, err
	}
	return []*packet.Packet{out}, nil
}

// MergeState folds another eqclass filter's seen-set into this one. It
// implements the reliability package's Merger interface, making the filter
// state composable for zero-cost recovery: a lost node's state is the
// union of its children's states.
func (f *Filter) MergeState(other filter.StatefulTransformation) error {
	o, ok := other.(*Filter)
	if !ok {
		return fmt.Errorf("eqclass: cannot merge state from %T", other)
	}
	f.seen.Merge(o.seen)
	return nil
}

// Register installs the suppressing filter under FilterName.
func Register(reg *filter.Registry) {
	reg.RegisterTransformation(FilterName, func() filter.Transformation { return NewFilter() })
}
