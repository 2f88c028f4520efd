package core

import (
	"sync"

	"repro/internal/packet"
	"repro/internal/transport"
)

// This file holds the building blocks of exactly-once recovery
// (DESIGN.md §10): the receiver-side duplicate window,
// the in-order retirement tracker that makes cumulative grant
// acknowledgements meaningful, the deferred-retirement records that chain
// acknowledgements level by level toward the front-end, and the per-node
// acker goroutine that turns downstream acknowledgements into upstream
// credit grants off the link reader goroutines.

// seqWinSpan is the width of the duplicate-detection window, in sequence
// counters per (stream, origin) pair. Replay duplicates trail their
// original by at most the in-flight packets of the failed region (a few
// link windows), so the window only needs to out-span that reorder
// distance — 4096 leaves two orders of magnitude of slack.
const seqWinSpan = 4096

// seqWin is a sliding bitmap over one origin's sequence counters on one
// stream: seen reports (and records) whether a counter was already
// delivered. Counters behind the window are judged duplicates — per-link
// FIFO plus in-order replay means a genuinely new packet can never trail
// the newest by a full window, and the conservative direction merely drops
// a replayed copy rather than ever delivering one twice.
type seqWin struct {
	hi   uint64 // highest counter observed (0: none yet)
	bits [seqWinSpan / 64]uint64
}

func (w *seqWin) set(c uint64)       { w.bits[(c%seqWinSpan)/64] |= 1 << (c % 64) }
func (w *seqWin) clear(c uint64)     { w.bits[(c%seqWinSpan)/64] &^= 1 << (c % 64) }
func (w *seqWin) test(c uint64) bool { return w.bits[(c%seqWinSpan)/64]&(1<<(c%64)) != 0 }

// seen records counter c and reports whether it was already present.
// Counter 0 is the reserved "unstamped" value and is never a duplicate.
func (w *seqWin) seen(c uint64) bool {
	if c == 0 {
		return false
	}
	switch {
	case c > w.hi:
		// New high: slots between the old and new high leave the window,
		// so their stale bits must not shadow future counters.
		if c-w.hi >= seqWinSpan {
			w.bits = [seqWinSpan / 64]uint64{}
		} else {
			for s := w.hi + 1; s < c; s++ {
				w.clear(s)
			}
		}
		w.hi = c
		w.set(c)
		return false
	case c+seqWinSpan <= w.hi:
		return true // behind the window: only a replay can be this old
	case w.test(c):
		return true
	default:
		w.set(c)
		return false
	}
}

// inOrder makes credit retirement on one inbound link direction follow
// arrival order, whatever order the pipeline and the acker actually
// finish in. The router assigns each arriving run a contiguous index range;
// completions (a lane's finished run, or downstream acknowledgements via the
// acker) mark their range done, and only the newly contiguous prefix is
// retired toward the peer. That is what makes the cumulative count carried
// by grants a true prefix acknowledgement of the sender's replay ring: the
// peer's un-popped suffix is exactly the packets not yet fully processed
// here, so a crash replays everything still at risk and nothing more.
type inOrder struct {
	mu   sync.Mutex
	next uint64 // next arrival index to assign
	low  uint64 // every index < low is complete
	// done maps the start of each range completed out of order, above low,
	// to its end; first is the least start in done while it is non-empty.
	done  map[uint64]uint64
	first uint64
}

// assign reserves n arrival indices and returns the first. Called only by
// the owning router goroutine, in arrival order.
func (t *inOrder) assign(n int) uint64 {
	t.mu.Lock()
	s := t.next
	t.next += uint64(n)
	t.mu.Unlock()
	return s
}

// complete marks [start, start+n) finished and returns how many indices
// became newly contiguous from the bottom — the amount now safe to retire.
// A run that completes in order only moves low; one that completes early
// is recorded as one range until low reaches it.
func (t *inOrder) complete(start uint64, n int) int {
	end := start + uint64(n)
	t.mu.Lock()
	defer t.mu.Unlock()
	if n <= 0 || end <= t.low {
		return 0
	}
	if start > t.low {
		if len(t.done) == 0 || start < t.first {
			t.first = start
		}
		if t.done == nil {
			t.done = map[uint64]uint64{}
		}
		t.done[start] = max(t.done[start], end)
		return 0
	}
	from := t.low
	t.low = end
	for len(t.done) > 0 && t.first <= t.low {
		if e, ok := t.done[t.low]; ok { // the range that follows
			delete(t.done, t.low)
			t.low = max(t.low, e)
			continue
		}
		// first is stale, or a range starts inside the new prefix
		// (overlapping completions): absorb every range low reaches and
		// recompute first.
		t.first = ^uint64(0)
		for s, e := range t.done {
			if s <= t.low {
				delete(t.done, s)
				t.low = max(t.low, e)
			} else {
				t.first = min(t.first, s)
			}
		}
	}
	return int(t.low - from)
}

// pendRetire is one inbound run whose credit retirement is deferred until
// this node's corresponding outputs are acknowledged by its own parent —
// the level-by-level acknowledgement cascade. The front-end is the base
// case (it retires at delivery), so by induction an acknowledged run's
// information has reached the delivery point, and anything less survives
// in some sender's replay ring. Records travel by value, allocating nothing
// per run; the zero record (src nil) retires nothing.
type pendRetire struct {
	src   *transport.FlowLink
	tr    *inOrder // in-order tracker for src
	start uint64   // first arrival index of the run
	n     int      // packets in the run
}

// ringEntry is one flushed-but-unacknowledged data packet in an egress
// queue's replay ring, with the deferred retirement (if any) to complete
// when the peer's cumulative acknowledgement covers it.
type ringEntry struct {
	p   *packet.Packet
	ack pendRetire
}

// replayRing is the preallocated circular buffer behind an upstream
// egress queue. Capacity is the link window: a flush acquires one credit
// per data packet, a grant's acknowledgement is applied before its credits
// return (transport.FlowLink), and noteSent retires entries a grant has
// already covered, so flushed-but-unacknowledged data never exceeds W and
// pushes and pops recycle the same slot structs with no allocation.
// Growth is the safety net for a violated bound — never drop a packet that
// may need replaying — and shows as ReplayRingHighWater > W, which the
// chaos sweep and the slow-consumer ring test assert against.
type replayRing struct {
	buf  []ringEntry
	head int
	n    int
}

func newReplayRing(capacity int) *replayRing {
	if capacity < 1 {
		capacity = 1
	}
	return &replayRing{buf: make([]ringEntry, capacity)}
}

func (r *replayRing) len() int { return r.n }

// at returns the i-th oldest entry (0 = front); callers keep i < len().
func (r *replayRing) at(i int) ringEntry {
	return r.buf[(r.head+i)%len(r.buf)]
}

// push appends e at the back, growing when full.
func (r *replayRing) push(e ringEntry) {
	if r.n == len(r.buf) {
		r.grow()
	}
	r.buf[(r.head+r.n)%len(r.buf)] = e
	r.n++
}

// popFront removes and returns the oldest entry, zeroing its slot so the
// ring never pins packet memory past acknowledgement.
func (r *replayRing) popFront() ringEntry {
	e := r.buf[r.head]
	r.buf[r.head] = ringEntry{}
	r.head = (r.head + 1) % len(r.buf)
	r.n--
	return e
}

// grow doubles capacity, linearizing entries to head 0.
func (r *replayRing) grow() {
	nb := make([]ringEntry, 2*len(r.buf))
	for i := 0; i < r.n; i++ {
		nb[i] = r.at(i)
	}
	r.buf, r.head = nb, 0
}

// acker turns downstream acknowledgements into upstream credit grants.
// Completions arrive from link reader goroutines (the egress ring's ack
// hook), which must never touch the wire themselves — a reader blocked in
// a send stops draining its own link, and two peers doing that
// symmetrically deadlock. So completed does only what needs no wire: it
// completes each run against its in-order tracker, retires whatever
// became contiguous, and returns the credits in full (full flush rather
// than threshold batching: a cascade hop's worth of latency already
// separates these grants from the work they acknowledge, and the sender
// may be blocked on exactly them). A remainder below the threshold is
// owed where the link can owe it (FlowLink.OweIdle) — on TCP, before the
// reader even delivers the frame that carried the acknowledgement, so the
// command that frame usually holds carries the grant on down. A grant that
// crossed the threshold, or that the link cannot owe, is a send: the
// acker's own goroutine does that wire work, one combined grant per link.
type acker struct {
	m      *Metrics
	mu     sync.Mutex
	q      map[*transport.FlowLink]int // grants to send, by link
	notify chan struct{}
	stop   chan struct{}
	done   chan struct{}
	once   sync.Once
}

func newAcker(m *Metrics) *acker {
	a := &acker{
		m:      m,
		notify: make(chan struct{}, 1),
		stop:   make(chan struct{}),
		done:   make(chan struct{}),
	}
	go a.run()
	return a
}

// completed retires a batch of acknowledged runs. Safe from any
// goroutine; never blocks and never touches the wire.
func (a *acker) completed(rs []pendRetire) {
	send := false
	for _, r := range rs {
		n := r.tr.complete(r.start, r.n)
		if n == 0 {
			continue
		}
		g := r.src.Retire(n)
		if g == 0 {
			g = r.src.FlushRetired()
			if g == 0 || r.src.OweIdle(g) {
				continue
			}
		}
		a.mu.Lock()
		if a.q == nil {
			a.q = map[*transport.FlowLink]int{}
		}
		a.q[r.src] += g
		a.mu.Unlock()
		send = true
	}
	if send {
		select {
		case a.notify <- struct{}{}:
		default:
		}
	}
}

// halt stops the acker and waits for its goroutine to exit. Completions
// arriving afterwards are absorbed silently (their credits die with the
// node, like every other resource of a finished process).
func (a *acker) halt() {
	a.once.Do(func() { close(a.stop) })
	<-a.done
}

func (a *acker) run() {
	defer close(a.done)
	for {
		select {
		case <-a.notify:
		case <-a.stop:
			return
		}
		for {
			a.mu.Lock()
			q := a.q
			a.q = nil
			a.mu.Unlock()
			if len(q) == 0 {
				break
			}
			for fl, g := range q {
				sendGrant(a.m, fl, g+fl.FlushRetired())
			}
		}
	}
}
