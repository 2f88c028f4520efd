package core

import (
	"repro/internal/packet"
	"repro/internal/transport"
)

// egressSched is the priority-aware schedule behind every egressQueue. It
// preserves exactly the invariants the overlay needs — per-stream FIFO,
// and control as barriers — and frees everything else for scheduling:
//
//	priority      among data streams sharing the link, higher
//	              StreamSpec.Priority flushes first;
//	round-robin   streams of equal priority alternate packet-for-packet,
//	              so one hot stream cannot starve its siblings.
//
// Control (stream setup/teardown, sessions, shutdown) seals the current
// EPOCH: everything enqueued before it flushes first, the barrier
// itself next, then the following epoch — its FIFO position, with
// scheduling scoped to within an epoch. A stream's packets split across
// epochs still drain in epoch order, so per-stream FIFO holds
// unconditionally.
//
// The zero value is an empty schedule. All methods are called with the
// owning egressQueue's mu held.
type egressSched struct {
	// retained holds the unsent remainder of a failed flush, already in
	// final wire order; it re-flushes ahead of everything scheduled after
	// it (the packets were logically on the wire when the link died).
	retained []*packet.Packet
	// epochs is the barrier-ordered sequence; the last may be open
	// (barrier == nil) and accepts new data. Drained, it is back on epochBuf.
	epochs   []*schedEpoch
	epochBuf [4]*schedEpoch
	// count is the total queued packets (data + barriers).
	count int
	// data counts the queued data packets alone — the occupancy the link
	// window bounds (control consumes no slots), and what the high-water
	// gauge reports.
	data int
	// freeEpochs and freeStreams recycle drained scheduler scaffolding:
	// steady-state traffic opens and drains an epoch per flush cycle, and
	// without the freelists each cycle would allocate an epoch struct, a
	// stream map, and a stream struct per active stream.
	freeEpochs  []*schedEpoch
	freeStreams []*schedStream
}

// Freelist bounds: epochs recycle at flush cadence so a handful suffices;
// streams scale with concurrent stream count per link.
const (
	maxFreeEpochs  = 8
	maxFreeStreams = 256
)

type schedEpoch struct {
	barrier *packet.Packet
	streams map[uint32]*schedStream
	order   []*schedStream
	rr      int // rotation cursor for equal-priority fairness
	n       int // data packets remaining in the epoch
}

type schedStream struct {
	id   uint32
	prio int
	ps   []*packet.Packet
	off  int
}

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
// and a sender throttled by a tenant sub-budget smaller than
// threshold × fan-out is waiting for credits its packets already earned.
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

// add enqueues p. ctrl marks a sendNow control packet, which seals the
// open epoch as a barrier (creating an empty one if nothing is queued — the
// barrier still orders against whatever comes after). Data lands in the
// open epoch's per-stream FIFO at prio.
func (s *egressSched) add(p *packet.Packet, prio int, ctrl bool) {
	s.count++
	if !ctrl {
		s.data++
	}
	if ctrl && p.Tag == packet.TagControl {
		s.open().barrier = p
		return
	}
	e := s.open()
	st := e.streams[p.StreamID]
	if st == nil {
		if n := len(s.freeStreams); n > 0 {
			st = s.freeStreams[n-1]
			s.freeStreams[n-1] = nil
			s.freeStreams = s.freeStreams[:n-1]
			st.id, st.prio = p.StreamID, prio
		} else {
			st = &schedStream{id: p.StreamID, prio: prio}
		}
		e.streams[st.id] = st
		e.order = append(e.order, st)
	}
	st.ps = append(st.ps, p)
	e.n++
}

// open returns the tail epoch, creating (or recycling) one if none is open.
func (s *egressSched) open() *schedEpoch {
	if n := len(s.epochs); n > 0 && s.epochs[n-1].barrier == nil {
		return s.epochs[n-1]
	}
	var e *schedEpoch
	if n := len(s.freeEpochs); n > 0 {
		e = s.freeEpochs[n-1]
		s.freeEpochs[n-1] = nil
		s.freeEpochs = s.freeEpochs[:n-1]
	} else {
		e = &schedEpoch{streams: map[uint32]*schedStream{}}
	}
	s.epochs = append(s.epochs, e)
	return e
}

// recycle returns a popped epoch's scaffolding to the freelists, clearing
// every packet reference first so recycled structs never pin memory.
func (s *egressSched) recycle(e *schedEpoch) {
	for i, st := range e.order {
		for j := st.off; j < len(st.ps); j++ {
			st.ps[j] = nil
		}
		st.ps, st.off = st.ps[:0], 0
		if len(s.freeStreams) < maxFreeStreams {
			s.freeStreams = append(s.freeStreams, st)
		}
		e.order[i] = nil
	}
	clear(e.streams)
	e.order = e.order[:0]
	e.rr, e.n, e.barrier = 0, 0, nil
	if len(s.freeEpochs) < maxFreeEpochs {
		s.freeEpochs = append(s.freeEpochs, e)
	}
}

// restore puts the unsent remainder of a failed flush back at the head of
// the schedule, in its already-decided wire order.
func (s *egressSched) restore(ps []*packet.Packet) {
	if len(ps) == 0 {
		return
	}
	s.retained = append(append([]*packet.Packet(nil), ps...), s.retained...)
	s.count += len(ps)
	for _, p := range ps {
		if p.Tag != packet.TagControl {
			s.data++
		}
	}
}

// pick returns the epoch's next data packet source: the first non-empty
// stream of maximal priority in rotation order from the cursor, so equal
// priorities round-robin and higher priorities always win.
func (e *schedEpoch) pick() *schedStream {
	n := len(e.order)
	best, bestPrio := -1, 0
	for i := 0; i < n; i++ {
		idx := (e.rr + i) % n
		st := e.order[idx]
		if st.off >= len(st.ps) {
			continue
		}
		if best == -1 || st.prio > bestPrio {
			best, bestPrio = idx, st.prio
		}
	}
	if best == -1 {
		return nil
	}
	e.rr = best + 1
	return e.order[best]
}

// take selects the next wire batch: retained remainder first, then epoch
// by epoch — streams by priority, round-robin within a priority, the
// epoch's barrier last. Unless bypass is set, the send credits for every
// queued data packet are requested from fl in one step; take is stalled
// exactly when it got fewer than it has queued data, and selection stops
// at the first data packet it holds no credit for (everything not
// selected stays queued exactly where it was). A credit left unspent is
// refunded. The batch is appended to dst (pass the flusher's reusable take
// buffer, or nil); drained epochs and streams return to the scheduler's
// freelists. Returns the batch, its encoded byte total, and how many data
// packets it carries (their occupancy slots are released by the flusher
// once the wire accepts them).
//
//tbon:allow creditpair credits acquired here transfer to the returned batch: the flusher either sends it or restores it and refunds unsent data credits (failedFlush)
func (s *egressSched) take(fl *transport.FlowLink, bypass bool, dst []*packet.Packet) (ps []*packet.Packet, total, nData int, stalled bool) {
	credits := s.data
	if !bypass {
		credits = fl.TryAcquireN(s.data)
	}
	ps = dst
	for len(s.retained) > 0 {
		p := s.retained[0]
		if p.Tag != packet.TagControl {
			if nData == credits {
				return ps, total, nData, true
			}
			nData++
			s.data--
		}
		s.retained[0] = nil
		s.retained = s.retained[1:]
		s.count--
		ps = append(ps, p)
		total += p.EncodedSize() + 4
	}
	if len(s.retained) == 0 {
		s.retained = nil
	}
	for len(s.epochs) > 0 {
		e := s.epochs[0]
		for e.n > 0 {
			st := e.pick()
			if st == nil {
				break // defensive: n out of sync cannot wedge the flusher
			}
			if nData == credits {
				return ps, total, nData, true
			}
			p := st.ps[st.off]
			st.ps[st.off] = nil
			st.off++
			if st.off == len(st.ps) {
				st.ps, st.off = st.ps[:0], 0
			}
			e.n--
			s.count--
			s.data--
			nData++
			ps = append(ps, p)
			total += p.EncodedSize() + 4
		}
		if e.barrier != nil {
			ps = append(ps, e.barrier)
			total += e.barrier.EncodedSize() + 4
			e.barrier = nil
			s.count--
		}
		s.epochs[0] = nil
		s.epochs = s.epochs[1:]
		s.recycle(e)
	}
	s.epochs = s.epochBuf[:0] // a burst's heap array goes; the next appends allocate nothing
	if !bypass {
		fl.Refund(credits - nData) // defensive: a data count out of sync
	}
	return ps, total, nData, false
}
