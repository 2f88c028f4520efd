package core

import (
	"errors"
	"runtime"

	"repro/internal/packet"
	"repro/internal/transport"
)

// sendToStream is the front-end's user-facing downstream path: Multicast,
// NewStream and Close send on the root's child links directly from the
// user goroutine, not through the root's router or egress queues. It fans
// a packet out to the stream's participating children; ss routing is
// index-aligned with the slot snapshot, and the seqlock retry makes
// routing and links a single consistent pair even while an install
// rewires them. A dead child link is skipped rather than surfaced: the
// subtree is inside its failure window and adoption will re-route it, so
// the loss is the transient downstream in-flight loss the recovery model
// covers.
//
// Each data send first acquires one credit from the child link's window,
// blocking the CALLER — a user goroutine inside
// Multicast — when the window is exhausted. That is the end-to-end
// backpressure story: a slow subtree throttles the producer itself, with
// at most one window of data in flight per link. Control traffic (stream
// setup/teardown) never consumes credits.
func (n *node) sendToStream(ss *streamState, p *packet.Packet) error {
	var down []bool
	var links []transport.Link
	for {
		seq := n.adoptSeq.Load()
		if seq%2 == 1 { // an install is mid-rewire; wait it out
			runtime.Gosched()
			continue
		}
		down = ss.routeSnapshot()
		links = n.childLinks()
		if n.adoptSeq.Load() == seq {
			break
		}
	}
	data := p.Tag != packet.TagControl
	var first error
	for i, l := range links {
		if l == nil || i >= len(down) || !down[i] {
			continue
		}
		var fl *transport.FlowLink // nil for control: it spends no credit
		if data {
			// Aborted acquire (network teardown, closed session) falls
			// through to the send, which surfaces the real link state. A
			// session stream additionally draws one token from its tenant's
			// budget, returned automatically when the link credit comes
			// back.
			fl = flowOf(l)
			fl.AcquireBudgeted(ss.budget, n.nw.dying, nil)
		}
		if err := l.Send(p); err != nil {
			// The packet never went out: refund its credit, or a dead
			// child's window would leak empty and wedge later
			// multicasts to its healthy siblings.
			if fl != nil && ss.budget != nil {
				fl.RefundBudgeted(1)
			} else if fl != nil {
				fl.Refund(1)
			}
			if first == nil && !errors.Is(err, transport.ErrClosed) {
				first = err
			}
		}
	}
	return first
}
