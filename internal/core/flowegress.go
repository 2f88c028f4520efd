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
// The queue is a slice of entries read from a head offset. A downstream
// queue clears what it takes. An upstream queue (retain) is also its
// replay ring: taken entries stay in es[keep:off] until the peer's
// cumulative acknowledgement covers them (ack), a failed flush moves off
// back over what the wire did not take (rewind), and a replacement link
// re-sends what is kept by moving off back to keep (replay). A drained
// queue keeps its array for the next round; one that keeps being fed
// while entries are kept or stalled slides its live part down when the
// array fills, rather than growing it.
//
// The zero value is an empty downstream queue. All methods are called
// with the owning egressQueue's mu held.
type egressSched struct {
	es        []egressEntry // kept entries from keep, queued ones from off
	keep, off int
	// data counts the queued data packets alone — the occupancy the link
	// window bounds (control consumes no slots), and what the high-water
	// gauge reports. kept counts the kept data packets, acked the data
	// packets the current link's peer has acknowledged.
	data, kept int
	acked      uint64
	retain     bool
}

// egressEntry is one queued or kept packet with the deferred inbound
// retirement, if any, that its acknowledgement completes. The last output
// of an inbound run carries the run's record: acknowledgements are
// cumulative and flush order is FIFO, so covering it covers the run.
type egressEntry struct {
	p   *packet.Packet
	ack pendRetire
}

// len is how many packets are queued, data and control.
func (s *egressSched) len() int { return len(s.es) - s.off }

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

// add enqueues p at the tail with its record. When the array is full
// and its head holds retired slots, the live part slides down first: a
// stalled or unacknowledged queue fed for many rounds reuses one array
// instead of growing it.
func (s *egressSched) add(p *packet.Packet, ack pendRetire) {
	if p.Tag != packet.TagControl {
		s.data++
	}
	if len(s.es) == cap(s.es) && s.keep > 0 {
		n := copy(s.es, s.es[s.keep:])
		clear(s.es[n:])
		s.es, s.off, s.keep = s.es[:n], s.off-s.keep, 0
	}
	s.es = append(s.es, egressEntry{p: p, ack: ack})
}

// take selects the next wire batch: the queue's head, in order. Unless
// bypass is set, the send credits for every queued data packet are
// requested from fl in one step; take is stalled exactly when it got fewer
// than it has queued data, and it stops at the first data packet it holds
// no credit for (everything behind it stays queued). A credit left unspent
// is refunded. The batch is appended to dst (pass the flusher's reusable
// take buffer, or nil). What an upstream queue takes it keeps, recorded
// before the send, so no acknowledgement can cover a packet it has not
// kept. Returns the batch, its encoded byte total, and how many data
// packets it carries (their occupancy slots are released by the flusher
// once the wire accepts them).
//
//tbon:allow creditpair credits acquired here transfer to the returned batch: the flusher either sends it or rewinds it and refunds unsent data credits (failedFlush)
func (s *egressSched) take(fl *transport.FlowLink, bypass bool, dst []*packet.Packet) (ps []*packet.Packet, total, nData int, stalled bool) {
	credits := s.data
	if !bypass {
		credits = fl.TryAcquireN(s.data)
	}
	ps = dst
	for ; s.off < len(s.es); s.off++ {
		p := s.es[s.off].p
		if p.Tag != packet.TagControl {
			if nData == credits {
				stalled = true
				break
			}
			nData++
		}
		if !s.retain {
			s.es[s.off] = egressEntry{}
		}
		ps = append(ps, p)
		total += p.EncodedSize() + 4
	}
	s.data -= nData
	if s.retain {
		s.kept += nData
	} else {
		s.keep = s.off
	}
	s.tidy(fl.Window())
	if !bypass {
		fl.Refund(credits - nData) // defensive: a data count out of sync
	}
	return ps, total, nData, stalled
}

// tidy restarts a queue that holds nothing at the front of its array,
// unless a burst grew the array past twice the link's window: then it goes,
// and the next round grows a fresh one.
func (s *egressSched) tidy(window int) {
	if s.keep == len(s.es) {
		s.es, s.keep, s.off = s.es[:0], 0, 0
		if cap(s.es) > 2*window {
			s.es = nil
		}
	}
}

// rewind returns the unsent tail of the last take, n entries of which
// nData are data, to the head of the queue: a failed flush's remainder
// keeps its already-decided wire order.
func (s *egressSched) rewind(n, nData int) {
	s.off -= n
	s.data += nData
	s.kept -= nData
}

// ack retires the kept entries up to the one that brings the acknowledged
// data packets to the peer's cumulative count cum, the control entries
// among them included, and appends their records to acks. A control entry
// behind the last covered data packet stays: it may belong to a flush
// still on the wire, which a failure rewinds.
func (s *egressSched) ack(cum uint64, acks []pendRetire, window int) []pendRetire {
	for ; s.acked < cum && s.keep < s.off; s.keep++ {
		e := s.es[s.keep]
		s.es[s.keep] = egressEntry{}
		if e.p.Tag != packet.TagControl {
			s.acked++
			s.kept--
		}
		if e.ack.src != nil {
			acks = append(acks, e.ack)
		}
	}
	s.tidy(window)
	return acks
}

// replay returns every kept data entry to the head of the queue, in order,
// for a replacement link whose peer counts from zero: it drops the kept
// control packets, which already left, and resets acked. Returns how many
// data entries went back.
func (s *egressSched) replay() int {
	w := s.keep
	for _, e := range s.es[s.keep:s.off] {
		if e.p.Tag != packet.TagControl {
			s.es[w] = e
			w++
		}
	}
	if w < s.off {
		n := copy(s.es[w:], s.es[s.off:])
		clear(s.es[w+n:])
		s.es = s.es[:w+n]
	}
	n := w - s.keep
	s.off = s.keep
	s.data += n
	s.kept, s.acked = 0, 0
	return n
}
