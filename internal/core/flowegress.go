package core

import (
	"repro/internal/packet"
	"repro/internal/transport"
)

// egressSched is the FIFO behind every egressQueue: data and control
// alike leave the link in the order they were enqueued, so per-stream FIFO
// holds by construction and a control packet (stream setup/teardown,
// sessions, shutdown) is a barrier nothing enqueued after it overtakes.
//
// The queue is a slice read from a head offset. A drained queue keeps its
// array for the next round; a credit-stalled one that keeps being fed
// slides its live tail down when the array fills, rather than growing it.
//
// The zero value is an empty queue. All methods are called with the
// owning egressQueue's mu held.
type egressSched struct {
	ps  []*packet.Packet // queued packets from off on, in wire order
	off int
	// data counts the queued data packets alone — the occupancy the link
	// window bounds (control consumes no slots), and what the high-water
	// gauge reports.
	data int
}

// len is how many packets are queued, data and control.
func (s *egressSched) len() int { return len(s.ps) - s.off }

// retireAndGrant records that the receiving pipeline finished n inbound
// data packets from fl and, once the link's grant threshold is crossed,
// returns the whole accumulation to the peer as one compact grant —
// sent directly on the link at once, never through an egress queue,
// because grants are order-free and must not wait behind (possibly
// stalled) data. It takes any credits the link owes with it. This is the
// single implementation of the credit-return protocol, shared by pipeline
// workers and BackEnd.Recv.
func retireAndGrant(m *Metrics, fl *transport.FlowLink, n int) {
	if fl == nil || n == 0 {
		return
	}
	if g := fl.Retire(n); g > 0 {
		sendGrant(m, fl, g)
	}
}

// sendGrant sends one credit grant directly on the link. Grants are the
// hottest control packets, one per quarter window of data or per idle
// point; on TCP one is framed from its fields and absorbed at the peer's
// read edge without a packet, so it allocates nothing on either side.
func sendGrant(m *Metrics, fl *transport.FlowLink, g int) {
	m.CreditGrants.Add(1)
	_ = fl.SendGrant(g)
}

// grantRode is a FlowLink's ride hook: an owed grant left inside a data
// write, where it cost no write of its own.
func (m *Metrics) grantRode() {
	m.CreditGrants.Add(1)
	m.GrantsRidden.Add(1)
}

// flushGrant returns a below-threshold retirement accumulation to the
// peer. Receivers call it at their idle points — pipeline lane drained,
// back-end inbox empty — where Retire's quarter-window batching stops
// being a liveness mechanism: nothing further will cross the threshold,
// and a sender throttled by its tenant's budget — one window, smaller than
// threshold × fan-out past a fan-out of 4 — is waiting for credits its
// packets already earned.
// On TCP the grant is owed (FlowLink.OweIdle), so a receiver that answers
// — a back-end's reply, a router's reduced output — returns it in the same
// write, and the link queue's backstop pays it if no frame leaves first
// (the ride or the backstop counts it: grantRode, payOwed); elsewhere it
// is sent at once. Under load the idle points are never reached and the
// 4:1 batching is untouched.
func flushGrant(m *Metrics, fl *transport.FlowLink) {
	if g := fl.FlushRetired(); g > 0 && !fl.OweIdle(g) {
		sendGrant(m, fl, g)
	}
}

// add enqueues p at the tail. When the array is full and its head holds
// taken slots, the live tail slides down first: a stalled queue fed for
// many rounds reuses one array instead of growing it.
func (s *egressSched) add(p *packet.Packet) {
	if p.Tag != packet.TagControl {
		s.data++
	}
	if len(s.ps) == cap(s.ps) && s.off > 0 {
		n := copy(s.ps, s.ps[s.off:])
		clear(s.ps[n:])
		s.ps, s.off = s.ps[:n], 0
	}
	s.ps = append(s.ps, p)
}

// restore puts the unsent remainder of a failed flush back at the head of
// the queue, in its already-decided wire order (the packets were logically
// on the wire when the link died).
func (s *egressSched) restore(ps []*packet.Packet) {
	if len(ps) == 0 {
		return
	}
	for _, p := range ps {
		if p.Tag != packet.TagControl {
			s.data++
		}
	}
	s.ps = append(append(make([]*packet.Packet, 0, len(ps)+s.len()), ps...), s.ps[s.off:]...)
	s.off = 0
}

// take selects the next wire batch: the queue's head, in order. Unless
// bypass is set, the send credits for every queued data packet are
// requested from fl in one step; take is stalled exactly when it got fewer
// than it has queued data, and it stops at the first data packet it holds
// no credit for (everything behind it stays queued). A credit left unspent
// is refunded. The batch is appended to dst (pass the flusher's reusable
// take buffer, or nil). A drained queue keeps its array for the next
// round unless a burst grew it past twice the link's window. Returns the
// batch, its encoded byte total, and how many data packets it carries
// (their occupancy slots are released by the flusher once the wire
// accepts them).
//
//tbon:allow creditpair credits acquired here transfer to the returned batch: the flusher either sends it or restores it and refunds unsent data credits (failedFlush)
func (s *egressSched) take(fl *transport.FlowLink, bypass bool, dst []*packet.Packet) (ps []*packet.Packet, total, nData int, stalled bool) {
	credits := s.data
	if !bypass {
		credits = fl.TryAcquireN(s.data)
	}
	ps = dst
	for ; s.off < len(s.ps); s.off++ {
		p := s.ps[s.off]
		if p.Tag != packet.TagControl {
			if nData == credits {
				stalled = true
				break
			}
			nData++
		}
		s.ps[s.off] = nil
		ps = append(ps, p)
		total += p.EncodedSize() + 4
	}
	s.data -= nData
	if s.off == len(s.ps) {
		s.ps, s.off = s.ps[:0], 0
		if cap(s.ps) > 2*fl.Window() {
			s.ps = nil // a burst's array goes; the next round grows a fresh one
		}
	}
	if !bypass {
		fl.Refund(credits - nData) // defensive: a data count out of sync
	}
	return ps, total, nData, stalled
}
