package core

import (
	"sync"

	"repro/internal/transport"
)

// This file holds the building blocks of exactly-once recovery
// (DESIGN.md §10): the receiver-side duplicate window,
// the in-order retirement tracker that makes cumulative grant
// acknowledgements meaningful, the deferred-retirement records that chain
// acknowledgements level by level toward the front-end, and the completion
// that turns downstream acknowledgements into upstream credit grants owed
// to the links' egress queues, whose clocks pay them.

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
// arrival order, whatever order the pipeline and the acknowledgements
// actually finish in. The router assigns each arriving run a contiguous
// index range; completions (a lane's finished run, or downstream
// acknowledgements via completeRuns) mark their range done, and only the
// newly contiguous prefix is retired toward the peer. That is what makes
// the cumulative count carried by grants a true prefix acknowledgement of
// what the sender's upstream queue keeps: its unacknowledged suffix is
// exactly the packets not yet fully processed here, so a crash replays
// everything still at risk and nothing more.
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
// in what some sender's upstream queue keeps. Records travel by value,
// allocating nothing per run; the zero record (src nil) retires nothing.
type pendRetire struct {
	src   *transport.FlowLink
	tr    *inOrder // in-order tracker for src
	start uint64   // first arrival index of the run
	n     int      // packets in the run
}

// completeRuns turns downstream acknowledgements into upstream credit
// grants, on the goroutine that completed the runs: a link reader, in its
// upstream queue's ack hook (onAck). It may not touch the wire — a reader
// blocked in a send stops draining its own link, and two peers doing that
// symmetrically deadlock. So it does only what needs no wire: it completes
// each run against its in-order tracker, retires whatever became
// contiguous, and owes the credits in full (full flush rather than
// threshold batching: a cascade hop's worth of latency already separates
// these grants from the work they acknowledge, and the sender may be
// blocked on exactly them). A remainder below the threshold is owed where
// the link can owe it idly (FlowLink.OweIdle) — on TCP, before the reader
// even delivers the frame that carried the acknowledgement, so the command
// that frame usually holds carries the grant on down. A grant that crossed
// the threshold, or that the link cannot owe idly (chan), is owed at once
// (FlowLink.OweNow): the source link's egress queue pays it from its clock,
// one combined grant per link, unless a frame leaving first carries it.
func completeRuns(rs []pendRetire) {
	for _, r := range rs {
		n := r.tr.complete(r.start, r.n)
		if n == 0 {
			continue
		}
		g := r.src.Retire(n)
		if g == 0 {
			if g = r.src.FlushRetired(); g == 0 || r.src.OweIdle(g) {
				continue
			}
		}
		r.src.OweNow(g)
	}
}
