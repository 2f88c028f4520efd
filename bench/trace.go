package main

import (
	"sync"
	"sync/atomic"

	"repro/internal/core"
	"repro/internal/packet"
	"repro/internal/topology"
	"repro/internal/transport"
)

// The traced pass. Spans are recorded by the benchmark around its own
// calls into the overlay and by a link wrapper installed through
// Config.WrapFabric; spans inside the engine are a later change (ROADMAP
// item 5). Everything stays in memory until the run ends.

// span is one timed interval. Spans of one operation share Round; Parent
// is the ID of the span that caused this one (0 for none).
type span struct {
	ID      int64  `json:"id"`
	Parent  int64  `json:"parent"`
	Name    string `json:"name"`
	StartNs int64  `json:"start_ns"`
	EndNs   int64  `json:"end_ns"`
	Round   int64  `json:"round"`
}

type spanLog struct {
	mu    sync.Mutex
	next  int64
	spans []span
}

// roundSpanID is the well-known ID of an operation's root span, so that
// leaves and the front-end can parent to it without talking to each other.
func roundSpanID(round int64) int64 { return 1<<62 | round }

func (l *spanLog) add(id, parent int64, name string, start, end, round int64) {
	l.mu.Lock()
	if id == 0 {
		l.next++
		id = l.next
	}
	l.spans = append(l.spans, span{ID: id, Parent: parent, Name: name, StartNs: start, EndNs: end, Round: round})
	l.mu.Unlock()
}

// finish gives every operation's root span the start of its earliest
// child (the first contributor's Send) and returns the spans.
func (l *spanLog) finish() []span {
	l.mu.Lock()
	defer l.mu.Unlock()
	first := map[int64]int64{}
	for _, s := range l.spans {
		if s.Parent == 0 {
			continue
		}
		if t, ok := first[s.Parent]; !ok || s.StartNs < t {
			first[s.Parent] = s.StartNs
		}
	}
	for i := range l.spans {
		if t, ok := first[l.spans[i].ID]; ok && l.spans[i].StartNs == 0 {
			l.spans[i].StartNs = t
		}
	}
	return l.spans
}

// linkCounters is what one traced link end saw. Each link has its own, so
// 64 leaves do not share a cache line; a snapshot sums them per tier.
type linkCounters struct {
	frames atomic.Int64 // link operations (Send or SendBatch)
	data   atomic.Int64 // application packets sent
	ctrl   atomic.Int64 // control packets and credit grants sent
	bytes  atomic.Int64 // bytes put on the wire (0 on chan links, which move pointers)
	ns     atomic.Int64 // time inside the wrapped link's send
	_      [24]byte
}

// tracedLink sits under the credit layer (core wraps what WrapFabric
// leaves in a FlowLink), so it sees grants as well as data. It forwards
// the batch, copy-discipline and crash paths, in the style of simnet.Link.
type tracedLink struct {
	transport.Link
	c     *linkCounters
	wire  bool // the link copies packets onto a wire (TCP), not pointers (chan)
	name  string
	spans *spanLog
}

func (l *tracedLink) Send(p *packet.Packet) error {
	var sent tierTotals
	l.tally(&sent, p)
	t := nowNs()
	err := l.Link.Send(p)
	l.record(t, sent)
	return err
}

func (l *tracedLink) SendBatch(ps []*packet.Packet) error {
	// Count before sending: the chan fabric hands the slice to the peer.
	var sent tierTotals
	for _, p := range ps {
		l.tally(&sent, p)
	}
	t := nowNs()
	err := transport.SendBatch(l.Link, ps)
	l.record(t, sent)
	return err
}

// tally adds one packet to sent. Only links that copy onto a wire count
// bytes: 4 of length prefix plus the encoding.
func (l *tracedLink) tally(sent *tierTotals, p *packet.Packet) {
	if p.Tag < packet.TagFirstApplication {
		sent.ctrl++
	} else {
		sent.data++
	}
	if l.wire {
		sent.bytes += 4 + int64(p.EncodedSize())
	}
}

func (l *tracedLink) record(start int64, sent tierTotals) {
	end := nowNs()
	if l.wire {
		sent.bytes += 8 // frame length prefix + packet count
	}
	n := l.c.frames.Add(1)
	l.c.data.Add(sent.data)
	l.c.ctrl.Add(sent.ctrl)
	l.c.bytes.Add(sent.bytes)
	l.c.ns.Add(end - start)
	if n%spanEveryStream == 0 {
		l.spans.add(0, 0, l.name, start, end, -1)
	}
}

func (l *tracedLink) RecvBatch() ([]*packet.Packet, error) { return transport.RecvBatch(l.Link) }
func (l *tracedLink) BatchCopies() bool                    { return transport.BatchCopies(l.Link) }
func (l *tracedLink) Drop()                                { transport.DropLink(l.Link) }

// tierTotals sums the links of one tier (a tree depth), one direction.
type tierTotals struct{ frames, data, ctrl, bytes, ns int64 }

func (a tierTotals) sub(b tierTotals) tierTotals {
	return tierTotals{a.frames - b.frames, a.data - b.data, a.ctrl - b.ctrl, a.bytes - b.bytes, a.ns - b.ns}
}

// tierStats owns the traced links of one overlay, grouped by the depth of
// the edge's child end: tier 1 holds the root's edges, the deepest tier
// the leaves'.
type tierStats struct {
	tree  *topology.Tree
	spans *spanLog
	up    [][]*linkCounters // by tier: child ends, which send upstream
	down  [][]*linkCounters // by tier: parent ends, which send downstream
}

func newTierStats(tree *topology.Tree, spans *spanLog) *tierStats {
	return &tierStats{tree: tree, spans: spans}
}

func (ts *tierStats) depth(r core.Rank) int { return len(ts.tree.PathToRoot(r)) - 1 }

// wrap is the Config.WrapFabric hook.
func (ts *tierStats) wrap(eps []*transport.Endpoint) {
	grow := func(s [][]*linkCounters, d int) [][]*linkCounters {
		for len(s) <= d {
			s = append(s, nil)
		}
		return s
	}
	for r, ep := range eps {
		d := ts.depth(core.Rank(r))
		if ep.Parent != nil {
			c := &linkCounters{}
			ts.up = grow(ts.up, d)
			ts.up[d] = append(ts.up[d], c)
			ep.Parent = &tracedLink{Link: ep.Parent, c: c, wire: transport.BatchCopies(ep.Parent), name: "transport.sendbatch.up", spans: ts.spans}
		}
		for i, cl := range ep.Children {
			if cl == nil {
				continue
			}
			c := &linkCounters{}
			ts.down = grow(ts.down, d+1)
			ts.down[d+1] = append(ts.down[d+1], c)
			ep.Children[i] = &tracedLink{Link: cl, c: c, wire: transport.BatchCopies(cl), name: "transport.sendbatch.down", spans: ts.spans}
		}
	}
}

func sumLinks(links []*linkCounters) tierTotals {
	var t tierTotals
	for _, c := range links {
		t.frames += c.frames.Load()
		t.data += c.data.Load()
		t.ctrl += c.ctrl.Load()
		t.bytes += c.bytes.Load()
		t.ns += c.ns.Load()
	}
	return t
}

// snapshot returns the per-tier totals so far, upstream and downstream,
// indexed by tier (index 0 is unused).
func (ts *tierStats) snapshot() (up, down []tierTotals) {
	up = make([]tierTotals, len(ts.up))
	for d := range ts.up {
		up[d] = sumLinks(ts.up[d])
	}
	down = make([]tierTotals, len(ts.down))
	for d := range ts.down {
		down[d] = sumLinks(ts.down[d])
	}
	return up, down
}
