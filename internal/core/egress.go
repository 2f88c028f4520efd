package core

import (
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/packet"
	"repro/internal/transport"
)

// BatchPolicy governs per-link egress batching: outbound packets queue in
// a per-link egress queue and are flushed as one multi-packet frame when
// the queue reaches the flush window (size), when a control packet must
// not be delayed (control), when the owner drains at shutdown/reparent
// (drain), and otherwise as soon as the producer yields the CPU: the data
// enqueue that makes the queue non-empty arms its clock at zero (idle).
// Batching amortizes per-message link costs — a channel transfer or a TCP
// write+flush — over the whole frame: what accumulates while the producer
// is busy (or the wire is) is the batch, and no packet waits for a timer.
type BatchPolicy struct {
	// MaxBatch is the flush window in packets: a queue flushes as soon as
	// that many packets wait in it. 1 flushes every packet; 0 selects
	// DefaultBatchPolicy's window. NewNetwork rejects negative values.
	MaxBatch int
	// MaxDelay is the retry back-off of a failed flush (a dead link whose
	// packets are retained for a replacement) and of a replacement link's
	// re-flush (age), and it caps the backstop of a credit grant owed to
	// the peer. No packet on a live link waits for it. Non-positive values
	// select DefaultBatchDelay.
	MaxDelay time.Duration
}

// DefaultBatchDelay is the retry back-off of a policy that does not choose
// one, and the cap of every queue's owed-grant backstop.
const DefaultBatchDelay = 2 * time.Millisecond

// DefaultBatchPolicy is the batching configuration of a zero Config.Batch.
func DefaultBatchPolicy() BatchPolicy {
	return BatchPolicy{MaxBatch: 32, MaxDelay: DefaultBatchDelay}
}

// normalized fills the fields a policy leaves unset from
// DefaultBatchPolicy, so the zero value is exactly that policy.
func (p BatchPolicy) normalized() BatchPolicy {
	def := DefaultBatchPolicy()
	if p.MaxBatch == 0 {
		p.MaxBatch = def.MaxBatch
	}
	if p.MaxDelay <= 0 {
		p.MaxDelay = def.MaxDelay
	}
	return p
}

// maxEgressFrameBytes bounds the encoded bytes batched into one wire
// frame. It is a variable (always packet.MaxWireSize in production) only
// so tests can shrink it to exercise the multi-frame split without
// queueing 256 MiB.
var maxEgressFrameBytes = packet.MaxWireSize

// maxFlushRounds bounds how many take-and-send rounds one flush performs
// before handing the wire back: producers that keep the queue hot trigger
// their own size flushes, so the combiner never needs to spin forever.
const maxFlushRounds = 8

// flush causes, for the metrics counters. flushDrain covers the blocking
// drains (shutdown) and the re-flush after reparenting. flushIdle is the
// clock armed at zero by the enqueue that made the queue non-empty, or a
// caller's idle point (idleNow); flushGranted is the clock armed at zero by
// a cleared credit stall (unstall); flushAge is the clock firing at the
// MaxDelay back-off of a failed flush or a replacement link.
const (
	flushSize = iota
	flushAge
	flushIdle
	flushGranted
	flushControl
	flushDrain
)

// egressQueue batches outbound packets for one link. It is safe for
// concurrent use: a pipeline lane, the owning router, the queue's clock
// and, at the root, user goroutines feed the same link, so every operation
// serializes on the queue's own mutex. FIFO order within the queue is the
// lock-acquisition order, which is what preserves per-stream FIFO (a
// router's stream has exactly one lane per direction) and keeps control
// packets behind data the router already accepted.
//
// Locking is split in two so producers never wait on the wire:
//
//   - mu guards the queued packets (the FIFO) and is held only for
//     O(1) bookkeeping — never across a link Send.
//
//   - flushMu is the wire ownership: exactly one flusher at a time takes
//     batches out (under mu) and sends them (outside mu). Triggered
//     flushes use TryLock, so a producer or the router that finds a flush
//     already in progress simply moves on — the active flusher loops and
//     drains what they appended. Only the explicit drain (shutdown,
//     reparent) blocks for the wire.
//
// The queue is hard-bounded by its link's credit window: data occupancy is
// capped at the window by a slot count kept under mu (senders block,
// abortable by the owner's stop channels), a flush acquires one wire
// credit per data packet, all in one step, and stops — stalled — at the
// first data packet the peer's window has no credit for. What a flush
// sends is the head of one FIFO (flowegress.go), data and control alike,
// so nothing overtakes a packet enqueued before it.
type egressQueue struct {
	pol BatchPolicy
	m   *Metrics

	// stopA/stopB abort a blocked slot acquisition (owner killed, network
	// dying); an aborted sender overflows rather than losing the packet.
	stopA, stopB <-chan struct{}
	// slotFree wakes producers blocked on a full queue (waitSlotLocked).
	// One wake-up can stand for several freed slots, so a woken producer
	// that leaves free slots behind passes it on.
	slotFree chan struct{}
	// released (guarded by mu; closed by releaseWaiters, re-armed by
	// setLink) aborts blocked slot acquisitions when the link dies: a
	// worker waiting on a dead peer's window would otherwise never reach
	// the quiesce barrier recovery needs to install the replacement link —
	// a deadlock. Released senders overflow into the queue, which an
	// upstream queue holds, unbounded, until a replacement link.
	released chan struct{}

	// flushMu is the wire ownership (see above). Held across link sends.
	flushMu sync.Mutex
	// takeBuf is the flusher's reusable batch buffer (owned by flushMu).
	// It is recycled across flushes only when the link copies batches
	// before SendBatch returns (copies); on retaining links — the
	// in-process transport, where the slice itself is the channel
	// transfer — a fresh buffer is taken per flush, allocated once at the
	// queued count rather than grown packet by packet.
	takeBuf []*packet.Packet
	// copies caches transport.BatchCopies(flow); read under flushMu,
	// written at construction and by setLink (which holds both locks).
	copies bool

	mu sync.Mutex
	// flow is the link with its credit accounting. Written under flushMu
	// and mu together (setLink), so holding either suffices to read it.
	flow  *transport.FlowLink
	sched egressSched // what is queued, in flush order, and what is kept
	// held is the hard data-occupancy bound: the data slots taken, out of
	// window (the link window). Senders on pipeline or handler goroutines
	// block when the queue is full, counted in slotWaiters; the router
	// never does (it sends with block=false and may transiently overflow
	// during recovery replay — see sendAck). Overflowing sends take no
	// slot.
	held, window, slotWaiters int
	// timer is the queue's own clock and the one place its rank does timed
	// or reader-initiated wire work: one AfterFunc timer, re-armed in place
	// (retimeLocked) for the earliest of three deadlines, whose callback
	// (pollAge) runs on the timer's goroutine, so neither a router, a
	// pipeline lane nor a link reader touches the wire for an idle, grant
	// or age flush, an owed grant or a beacon. due is the data deadline
	// (see deadline); armCause is the flush cause it counts under. grantDue
	// is the deadline of the grant owed on the link (owe), zero when none
	// is; beatDue that of the rank's next liveness beacon (beacon), zero
	// when beacons are off. Both are kept apart from due because they hold
	// whatever the data side is doing — a stalled, empty or busy queue
	// still pays its grant and sends its beacon. armedAt is when the
	// timer is set to fire, zero once it has fired or stopped; pollNow runs
	// what came due while it is set for later (retimeLocked), built once so
	// that starting it allocates nothing. stopped forbids re-arming once
	// the owner is gone (stop).
	timer     *time.Timer
	due       time.Time
	grantDue  time.Time
	beatDue   time.Time
	beatEvery time.Duration
	beatFrom  Rank
	armedAt   time.Time
	pollNow   func()
	armCause  int
	stalled   bool
	stopped   bool
	// handoff is set by an idle or control flush that found the wire busy;
	// the owner re-arms the clock when it lets go (unlockWire), so the
	// packets are not stranded behind a flush that already took its last
	// batch.
	handoff atomic.Bool
	// localHW mirrors the deepest depth this queue has reported to the
	// global high-water gauge, so the hot path pays an atomic only when
	// it sets a new per-queue record.
	localHW int

	// ringHW mirrors the most data an upstream queue has kept for replay
	// (sched.kept), as localHW does for the replay-ring gauge.
	ringHW int
}

// newEgressQueue wraps a child link with the given (already normalized)
// policy: a downstream queue. Every link of a Network carries credit
// accounting (NewNetwork and each rewiring site wrap it), so l is a
// *transport.FlowLink; anything else is a bug in the caller and panics here.
func newEgressQueue(l transport.Link, pol BatchPolicy, m *Metrics) *egressQueue {
	fl := l.(*transport.FlowLink)
	q := &egressQueue{pol: pol, m: m, window: fl.Window(), slotFree: make(chan struct{}, 1)}
	q.adoptFlow(fl)
	// The clock exists from the start; the first enqueue arms it. It is
	// built under mu: a callback that fires before Stop waits there until
	// q.timer is set, instead of finding it nil.
	q.mu.Lock()
	q.timer = time.AfterFunc(pol.MaxDelay, q.fire)
	q.pollNow = func() { q.pollAge(time.Now()) }
	q.timer.Stop()
	q.mu.Unlock()
	return q
}

// adoptFlow points the queue at fl and its credit state (callers hold
// flushMu and mu, or own the queue exclusively at construction time).
func (q *egressQueue) adoptFlow(fl *transport.FlowLink) {
	q.flow = fl
	q.copies = transport.BatchCopies(fl)
	// (Re-)arm the hard bound: a fresh link means the window is enforceable
	// again after a releaseWaiters interlude.
	q.released = make(chan struct{})
	// A grant from the peer may be the only thing that can restart a
	// stalled queue: resume immediately on refill. Idle grants this side
	// owes the peer ride the queue's frames, backstopped by its clock.
	fl.SetRefillHook(q.unstall)
	fl.SetGrantHooks(q.owe, q.m.grantRode)
	if q.sched.retain {
		fl.SetAckHook(q.onAck)
	}
}

// newUpstreamQueue wraps a parent link: its FIFO keeps what it sends until
// the peer's cumulative grant acknowledgement covers it, holds a flush the
// dead parent cannot take, setLink re-flushes both to the replacement
// parent, and acknowledged packets complete the deferred inbound
// retirements they carry (completeRuns; a back-end's carry none).
func newUpstreamQueue(l transport.Link, pol BatchPolicy, m *Metrics) *egressQueue {
	q := newEgressQueue(l, pol, m)
	q.sched.retain = true
	q.flow.SetAckHook(q.onAck)
	return q
}

// sendAck enqueues a data packet, taking its occupancy slot in the same
// critical section, with ack to be completed when the peer acknowledges
// it (the zero record completes nothing). block chooses between the hard
// bound (pipeline workers, back-end handlers: wait for a slot) and
// router-context overflow (recovery replay, drains: never block the
// control plane, accept a transient excursion past the window).
func (q *egressQueue) sendAck(p *packet.Packet, block bool, ack pendRetire) error {
	q.mu.Lock()
	if q.held < q.window {
		q.held++
	} else if block {
		q.waitSlotLocked()
	}
	return q.enqueueLocked(p, ack, false)
}

// onAck runs on the link's reader goroutine when a grant arrives, before
// the grant's credits return to the send window: the peer's cumulative
// retirement count acknowledges a prefix of this queue's flush order. Pop
// the covered entries and complete their deferred retirements
// (completeRuns) — never the wire from here (a reader blocked in a send
// stops draining its own link). A grant without a cumulative count
// (cum == 0) acknowledges n more packets than the last one did.
func (q *egressQueue) onAck(n int, cum uint64) {
	var buf [ackBuf]pendRetire
	q.mu.Lock()
	if cum == 0 {
		cum = q.sched.acked + uint64(n)
	}
	acks := q.sched.ack(cum, buf[:0], q.window)
	q.mu.Unlock()
	completeRuns(acks)
}

// ackBuf sizes the caller-owned array onAck collects records into: a grant
// covers a window's prefix, and all but a few of its packets carry no run.
const ackBuf = 8

// bindStops sets the channels that abort a blocked slot acquisition.
func (q *egressQueue) bindStops(a, b <-chan struct{}) {
	q.stopA, q.stopB = a, b
}

// waitSlotLocked blocks (abortably) for a data-occupancy slot of a full
// queue; the queue's clock, armed when it went non-empty, is already
// flushing what fills it. An aborted wait (stop channels, a dead link's
// releaseWaiters) takes no slot: the packet overflows, transiently
// exceeding the bound rather than deadlocking. Callers hold mu, which is
// released while blocked and held again on return.
func (q *egressQueue) waitSlotLocked() {
	for q.held >= q.window {
		rel := q.released
		q.slotWaiters++
		q.mu.Unlock()
		woken := false
		select {
		case <-q.slotFree:
			woken = true
		case <-q.stopA:
		case <-q.stopB:
		case <-rel:
		}
		q.mu.Lock()
		q.slotWaiters--
		if !woken {
			return
		}
	}
	q.held++
	q.releaseSlotsLocked(0) // pass the wake-up on while slots remain
}

// releaseSlotsLocked returns n data-occupancy slots and, while any are
// free, wakes a blocked producer; overflow sends may leave fewer held than
// released, so the count stops at zero. Callers hold mu.
func (q *egressQueue) releaseSlotsLocked(n int) {
	q.held = max(q.held-n, 0)
	if q.held < q.window && q.slotWaiters > 0 {
		select {
		case q.slotFree <- struct{}{}:
		default: // a wake-up is already pending
		}
	}
}

// rearmWaiters restores the hard bound after a releaseWaiters interlude
// (the owner finished quiescing, or a replacement link arrived): future
// blocked acquisitions wait again.
func (q *egressQueue) rearmWaiters() {
	if q == nil {
		return
	}
	q.mu.Lock()
	select {
	case <-q.released:
		q.released = make(chan struct{})
	default:
	}
	q.mu.Unlock()
}

// releaseWaiters aborts every blocked slot acquisition and re-enables
// flush retries: called when the queue's link is known dead (parent or
// child EOF) and before every quiesce, so pipeline workers can finish
// their in-flight items — and reach the quiesce barrier — instead of
// waiting on a window nobody may ever refill. Overflowing sends land in
// the queue; rearmWaiters or setLink restores the bound.
func (q *egressQueue) releaseWaiters() {
	if q == nil {
		return
	}
	q.mu.Lock()
	select {
	case <-q.released:
	default:
		close(q.released)
	}
	// A credit stall against a dead peer must not suppress the age retry:
	// the retrying flush observes the dead link and rewinds (upstream) or
	// drops, releasing slots either way.
	q.unstallLocked()
	q.mu.Unlock()
}

// send enqueues a data packet, blocking while the queue is at the link
// window. Flushes once MaxBatch packets wait.
func (q *egressQueue) send(p *packet.Packet) error {
	return q.sendCtx(p, true)
}

// sendCtx is sendAck with no record to complete.
func (q *egressQueue) sendCtx(p *packet.Packet, block bool) error {
	return q.sendAck(p, block, pendRetire{})
}

// sendNow enqueues p and flushes immediately. Control packets use it:
// control (stream setup/teardown, sessions, shutdown) keeps its FIFO
// position behind already queued data but never waits out a batching
// window.
func (q *egressQueue) sendNow(p *packet.Packet) error {
	q.mu.Lock()
	return q.enqueueLocked(p, pendRetire{}, true)
}

// enqueueLocked appends p with its record ack (ctrl marks a sendNow
// control packet, which flushes at once), updates the bookkeeping, unlocks
// mu, and triggers whatever flush is due. Producers never wait on the
// wire: a triggered flush that finds another flusher active is absorbed
// by that flusher's drain loop. The data enqueue that makes the queue
// non-empty arms the clock at zero: the flush runs on the timer's
// goroutine once the producer yields the CPU, so the batch is what the
// producer added meanwhile, and a producer that stops —
// between bursts, blocked on a full window, parked anywhere — leaves
// nothing waiting for a timer. A control enqueue arms nothing: its caller
// flushes at once, and so learns whether the wire took the packet.
func (q *egressQueue) enqueueLocked(p *packet.Packet, ack pendRetire, ctrl bool) error {
	wasEmpty := q.sched.len() == 0
	q.sched.add(p, ack)
	if wasEmpty && !ctrl {
		q.armLocked(0, flushIdle)
	}
	q.m.PacketsQueued.Add(1)
	// The high-water gauge tracks what the link window bounds: data
	// occupancy (control consumes no slots).
	if hw := q.sched.data; hw > q.localHW {
		q.localHW = hw
		raiseGauge(&q.m.EgressHighWater, hw)
	}
	due := ctrl || q.sched.len() >= q.pol.MaxBatch
	q.mu.Unlock()
	if !due {
		return nil
	}
	cause := flushSize
	if ctrl {
		cause = flushControl
	}
	return q.flush(cause)
}

// flush runs the take-and-send loop if no other flusher owns the wire;
// otherwise the active flusher's loop will drain what triggered us. A
// control flush that finds the wire busy hands off to its owner, as an
// idle flush does (flushDue): no clock was armed for the control packet.
func (q *egressQueue) flush(cause int) error {
	if !q.flushMu.TryLock() {
		if cause != flushControl {
			return nil
		}
		// An owner that let go before the flag landed left the wire free.
		q.handoff.Store(true)
		if !q.flushMu.TryLock() {
			return nil
		}
	}
	defer q.unlockWire()
	return q.flushLoop(cause)
}

// unlockWire releases the wire, re-arming the clock for an idle or
// control flush that found it busy (handoff).
func (q *egressQueue) unlockWire() {
	q.flushMu.Unlock()
	if q.handoff.Load() && q.handoff.CompareAndSwap(true, false) {
		q.idle()
	}
}

// idle re-arms the clock at zero for what is queued: the hand-off of an
// idle or control flush that found the wire busy (unlockWire). A
// credit-stalled queue waits for its unstalling grant.
func (q *egressQueue) idle() {
	q.mu.Lock()
	if q.sched.len() > 0 && !q.stalled {
		q.armLocked(0, flushIdle)
	}
	q.mu.Unlock()
}

// idleNow is the idle point of a goroutine that may wait on the wire — a
// back-end handler about to block in Recv, a user goroutine at the root
// done sending: it flushes on the caller, the goroutine that already holds
// the data, rather than waking the clock's. A busy wire is handed off to
// its owner, as the clock's idle flush does.
func (q *egressQueue) idleNow() {
	if q == nil {
		return
	}
	q.mu.Lock()
	d := q.deadlineLocked()
	q.mu.Unlock()
	if !d.IsZero() {
		q.flushDue(d, flushIdle)
	}
}

// flushLoop repeatedly takes a batch (under mu) and sends it (outside mu)
// until the queue is empty, the peer's credit window is exhausted, the
// round bound is hit, or the wire fails. Callers hold flushMu.
func (q *egressQueue) flushLoop(cause int) error {
	for round := 0; round < maxFlushRounds; round++ {
		q.mu.Lock()
		dst := q.takeBuf[:0]
		if !q.copies {
			dst = make([]*packet.Packet, 0, q.sched.len())
		}
		batch, total, nData, stalled := q.sched.take(q.flow, false, dst)
		// The take buffer is recycled across flushes only on links that
		// copy batches; a retaining link owns the slice once sendFrames
		// hands it over (the batchalias contract).
		if q.copies {
			q.takeBuf = batch[:0]
		} else {
			q.takeBuf = nil
		}
		if n := q.sched.kept; n > q.ringHW {
			q.ringHW = n
			raiseGauge(&q.m.ReplayRingHighWater, n)
		}
		if len(batch) > 0 {
			q.mu.Unlock()
			unsent, frames, err := q.sendFrames(batch, total)
			if frames > 0 {
				q.m.FramesSent.Add(frames)
				switch cause {
				case flushSize:
					q.m.FlushSize.Add(1)
				case flushAge:
					q.m.FlushAge.Add(1)
				case flushIdle:
					q.m.FlushIdle.Add(1)
				case flushGranted:
					q.m.FlushGrant.Add(1)
				case flushControl:
					q.m.FlushControl.Add(1)
				case flushDrain:
					q.m.FlushDrain.Add(1)
				}
			}
			if err != nil {
				q.failedFlush(unsent, nData)
				return err
			}
			q.mu.Lock()
			q.releaseSlotsLocked(nData)
			if !q.grantDue.IsZero() && q.flow.Owed() == 0 {
				q.grantDue = time.Time{} // the frame carried it
			}
		}
		if stalled && q.sched.len() > 0 {
			// A grant that landed since take found no stall to clear (the
			// flag is set only below): go another round instead.
			if q.flow.Available() > 0 {
				q.mu.Unlock()
				continue
			}
			q.noteStallLocked()
		}
		done := len(batch) == 0 || stalled || q.sched.len() == 0
		if done {
			q.retimeLocked() // no stale wake-up for a deadline just met
		}
		q.mu.Unlock()
		if done {
			return nil
		}
	}
	return nil
}

// noteStallLocked marks the queue credit-stalled: its age deadline is
// suppressed (only a grant can make progress) and the stall is counted.
// Callers hold mu.
func (q *egressQueue) noteStallLocked() {
	if !q.stalled {
		q.stalled = true
		q.m.CreditStalls.Add(1)
	}
}

// unstall clears a credit stall after an inbound grant refilled the send
// window: the age clock is armed at zero delay, so the timer's goroutine
// resumes the flush at once (counted as a grant flush). The hook runs on the
// link's READER goroutine, which must never itself touch the wire: a reader
// blocked in a send stops draining its own link, and two peers doing that
// symmetrically would deadlock.
func (q *egressQueue) unstall() {
	q.mu.Lock()
	q.unstallLocked()
	q.mu.Unlock()
}

func (q *egressQueue) unstallLocked() {
	if q.stalled {
		q.stalled = false
		q.armLocked(0, flushGranted)
	}
}

// failedFlush rewinds (upstream) or drops (downstream) the unsent
// remainder of a failed flush and refunds the wire credits it had acquired.
// An upstream queue keeps the sent prefix like any unacknowledged flush,
// and holds the remainder, with whatever overflows into it meanwhile,
// until a replacement link: unbounded, as a dead child's queue is.
func (q *egressQueue) failedFlush(unsent []*packet.Packet, nData int) {
	unsentData := 0
	for _, p := range unsent {
		if p.Tag != packet.TagControl {
			unsentData++
		}
	}
	q.mu.Lock()
	defer q.mu.Unlock()
	// Credits were acquired for every data packet taken; refund the unsent
	// ones. Refund, not Refill: no hook may run under mu, and there is
	// nothing to wake — the credits were never the peer's to grant.
	q.flow.Refund(unsentData)
	q.releaseSlotsLocked(nData - unsentData) // sent data left the queue for good
	if q.sched.retain {
		q.sched.rewind(len(unsent), unsentData)
		// Restart the age clock so retries back off by MaxDelay instead of
		// hot-looping on an already-expired deadline.
		q.armLocked(q.pol.MaxDelay, flushAge)
	} else {
		q.m.EgressDrops.Add(int64(len(unsent)))
		q.releaseSlotsLocked(unsentData)
	}
}

// sendFrames moves buf onto the link, splitting it whenever the combined
// encoding would exceed the wire's frame byte bound — a retained buffer
// re-flushed after reparenting, or control flushed behind large queued
// data, can outgrow what a single frame may carry. The common case (total
// within bound) is a single SendBatch. On error the not-yet-sent packets
// are returned; already-sent frames are delivered, so nothing is
// duplicated on retry. Callers hold flushMu (which is what makes reading
// q.flow here safe: setLink swaps it only under flushMu).
func (q *egressQueue) sendFrames(buf []*packet.Packet, total int) (unsent []*packet.Packet, frames int64, err error) {
	if total <= maxEgressFrameBytes+4 {
		if err := transport.SendBatch(q.flow, buf); err != nil {
			return buf, 0, err
		}
		return nil, 1, nil
	}
	start, bytes := 0, 0
	for i, p := range buf {
		sz := p.EncodedSize() + 4
		if i > start && bytes+sz > maxEgressFrameBytes+4 {
			if err := transport.SendBatch(q.flow, buf[start:i]); err != nil {
				return buf[start:], frames, err
			}
			frames++
			start, bytes = i, 0
		}
		bytes += sz
	}
	if err := transport.SendBatch(q.flow, buf[start:]); err != nil {
		return buf[start:], frames, err
	}
	return nil, frames + 1, nil
}

// armLocked sets the data deadline d from now, counted under cause,
// replacing any pending one. It is called wherever the queue gains a
// deadline its timer does not know yet: the empty -> non-empty enqueue, a
// busy wire's hand-off, a cleared credit stall, a retained failed flush, a
// replacement link. Callers hold mu.
func (q *egressQueue) armLocked(d time.Duration, cause int) {
	if q.stopped {
		return
	}
	q.due = time.Now().Add(d)
	q.armCause = cause
	q.retimeLocked()
}

// retimeLocked points the clock at the earliest of the data, grant and
// beacon deadlines, and stops it when none is pending. While an idle flush
// has handed off to a busy wire, the data deadline is the wire owner's,
// which re-arms it when it lets go (unlockWire), so the clock keeps only the
// other two. A deadline that is already due while the timer is set for a
// later one does not pull the timer forward: moving a set timer earlier
// makes the runtime rescan every timer of its P, and with a beacon
// deadline on every rank's queue that cost a third of a kary:16^3 round
// at 50 ms beacons. The due work runs on a goroutine of its own instead,
// as the timer's callback would have run it. Callers hold mu.
func (q *egressQueue) retimeLocked() {
	if q.stopped {
		return
	}
	var next time.Time
	if !q.handoff.Load() {
		next = q.deadlineLocked()
	}
	for _, d := range [...]time.Time{q.grantDue, q.beatDue} {
		if !d.IsZero() && (next.IsZero() || d.Before(next)) {
			next = d
		}
	}
	if next.IsZero() {
		q.timer.Stop()
		q.armedAt = time.Time{}
		return
	}
	if next.Equal(q.armedAt) {
		return
	}
	if !q.armedAt.IsZero() && next.Before(q.armedAt) && !next.After(time.Now()) {
		go q.pollNow()
		return
	}
	q.armedAt = next
	q.timer.Reset(time.Until(next))
}

// owe is the link's owe hook: a grant to the peer became owed. The next
// frame this queue writes carries it; unless one does first, the clock
// pays it at the grant deadline — now for a grant owed at once
// (FlowLink.OweNow), else MaxDelay, capped at DefaultBatchDelay so that a
// policy forbidding age flushes does not also hold a peer's credits. The
// deadline only ever moves earlier.
func (q *egressQueue) owe(now bool) {
	due := time.Now()
	if !now {
		due = due.Add(min(q.pol.MaxDelay, DefaultBatchDelay))
	}
	q.mu.Lock()
	if !q.stopped && (q.grantDue.IsZero() || due.Before(q.grantDue)) {
		q.grantDue = due
		q.retimeLocked()
	}
	q.mu.Unlock()
}

// payOwed pays the owed grant once the grant deadline has passed, writing
// it on its own. It runs whatever the data side is doing — stalled,
// empty, or with another flusher on the wire — and goes through the link's
// send lock, not flushMu: two peers each stalled on the grant the other
// owes must not wait for a data flush that cannot come.
func (q *egressQueue) payOwed(now time.Time) {
	q.mu.Lock()
	g, fl := q.grantDue, q.flow
	due := !g.IsZero() && !now.Before(g)
	if due {
		q.grantDue = time.Time{}
	}
	q.mu.Unlock()
	if !due {
		return
	}
	// A failed write is a dead link, which its reader reports.
	if paid, _ := fl.PayOwed(); paid {
		q.m.CreditGrants.Add(1)
	}
}

// beacon puts origin's liveness beacon on the queue's clock: the first is
// due one period from now, and each one sent (beat) sets the next.
func (q *egressQueue) beacon(origin Rank, period time.Duration) {
	q.mu.Lock()
	q.beatFrom, q.beatEvery = origin, period
	q.beatDue = time.Now().Add(period)
	q.retimeLocked()
	q.mu.Unlock()
}

// beat sends the rank's beacon once the beacon deadline has passed, with
// the link's own Send: a one-packet frame that the parent's reader notes
// and drops (readLink). Like payOwed it runs whatever the data side is
// doing and never waits for flushMu. Beacons are lossy-safe, so one that
// fails (a dead parent, before adoption) is simply followed by the next.
func (q *egressQueue) beat(now time.Time) {
	q.mu.Lock()
	due := !q.beatDue.IsZero() && !now.Before(q.beatDue) && !q.stopped
	if due {
		q.beatDue = now.Add(q.beatEvery)
	}
	fl, origin := q.flow, q.beatFrom
	q.mu.Unlock()
	if due && fl.Send(heartbeatPacket(origin)) == nil {
		q.m.HeartbeatsSent.Add(1)
	}
}

// stop ends the queue's clock for good, with its owed-grant and beacon
// deadlines. Every owner exit calls it — the router or back-end finishing
// or being killed, a child slot displaced or fenced — so nothing keeps
// retrying or beaconing on a link whose process is gone.
func (q *egressQueue) stop() {
	if q == nil {
		return
	}
	q.mu.Lock()
	q.stopped = true
	q.mu.Unlock()
	q.timer.Stop()
}

// deadline returns when the oldest queued packet must be age-flushed, or
// the zero time when the queue is empty or stopped — or credit-stalled, in
// which case only an inbound grant (whose refill hook re-arms the clock) can
// make progress and a timer would just spin.
func (q *egressQueue) deadline() time.Time {
	q.mu.Lock()
	defer q.mu.Unlock()
	return q.deadlineLocked()
}

func (q *egressQueue) deadlineLocked() time.Time {
	if q.sched.len() == 0 || q.stalled || q.stopped {
		return time.Time{}
	}
	return q.due
}

// fire is the clock's callback: the timer is no longer set, and pollAge
// does whatever came due.
func (q *egressQueue) fire() {
	q.mu.Lock()
	q.armedAt = time.Time{}
	q.mu.Unlock()
	q.pollAge(time.Now())
}

// pollAge is the body of the clock's callback (unit tests also drive it
// with a chosen now): it pays an owed grant whose deadline has passed
// (payOwed), sends a beacon that is due (beat), then flushes if the data
// deadline has passed (flushDue). A clock that woke for one deadline while
// another is still pending is pointed at that one.
func (q *egressQueue) pollAge(now time.Time) {
	q.payOwed(now)
	q.beat(now)
	q.mu.Lock()
	d, cause := q.deadlineLocked(), q.armCause
	if d.IsZero() || now.Before(d) {
		q.retimeLocked()
		q.mu.Unlock()
		return
	}
	q.mu.Unlock()
	q.flushDue(d, cause)
}

// flushDue is the flush body of a data deadline d that has come — the
// clock's (pollAge) or a caller's idle point (idleNow): if the wire is
// free, flush; then, if packets remain and nothing moved the deadline
// meanwhile, re-arm. An idle flush that finds the wire busy hands off to
// the wire's owner; any other backs off a full MaxDelay — its flusher
// drains what is queued, and an expired deadline must not be re-polled
// without sleeping. A flush that stopped at its round bound goes
// again at once, on the clock. A failed flush has re-armed itself
// (failedFlush); a stalled queue waits for unstall.
func (q *egressQueue) flushDue(d time.Time, cause int) {
	busy := !q.flushMu.TryLock()
	if busy && cause == flushIdle {
		// An owner that let go before the flag landed left the wire free.
		q.handoff.Store(true)
		if !q.flushMu.TryLock() {
			q.mu.Lock()
			q.retimeLocked() // an owed grant's backstop is not the owner's
			q.mu.Unlock()
			return
		}
		busy = false
	}
	if !busy {
		_ = q.flushLoop(cause)
		q.unlockWire()
	}
	q.mu.Lock()
	if q.sched.len() > 0 && !q.stalled && q.due.Equal(d) {
		if busy {
			q.armLocked(q.pol.MaxDelay, flushAge)
		} else {
			q.armLocked(0, cause)
		}
	} else {
		q.retimeLocked()
	}
	q.mu.Unlock()
}

// drain blocks for the wire and flushes what the peer's credit window
// admits (shutdown). It never bypasses the window: every
// credit-bypassing send would grow what an upstream queue keeps past the
// bound W that prices replay memory at links × W. Past-window packets stay
// queued; the grant that retires in-flight data re-triggers the flush.
func (q *egressQueue) drain() error {
	if q == nil {
		return nil
	}
	q.flushMu.Lock()
	defer q.unlockWire()
	return q.flushLoop(flushDrain)
}

// setLink repoints an upstream queue at a replacement parent link (recovery
// reparenting) and re-flushes what it kept unacknowledged and anything
// held across the old link's death — within the NEW link's credit window,
// which starts full: the packets re-enter the bounded window without
// double-spending credits, and whatever exceeds it stays queued until the
// new peer grants. If the re-flush fails again the queue holds it and the
// age clock retries it.
func (q *egressQueue) setLink(l transport.Link) {
	q.flushMu.Lock()
	q.mu.Lock()
	q.flow.SetRefillHook(nil)
	q.flow.SetAckHook(nil)
	q.flow.SetGrantHooks(nil, nil)
	q.adoptFlow(l.(*transport.FlowLink))
	q.stalled = false
	// The new peer's cumulative count starts at zero and will count the
	// replayed packets first: they go back to the head, in their order, so
	// the prefix correspondence holds on the replacement link too.
	if n := q.sched.replay(); n > 0 {
		// Their occupancy slots were released when they first flushed;
		// best-effort reacquisition keeps the count near the true queue
		// depth (overflow past the window is tolerated here, as in every
		// recovery path).
		q.held = min(q.window, q.held+n)
		q.m.PacketsReplayed.Add(int64(n))
	}
	queued := q.sched.len()
	if queued > 0 {
		q.armLocked(q.pol.MaxDelay, flushAge)
	}
	q.mu.Unlock()
	if queued > 0 {
		_ = q.flushLoop(flushDrain)
	}
	q.unlockWire()
}

// extract removes and returns every queued data packet, in wire order, for
// a fenced dead child slot: nothing queued there ever reached the wire, so
// the router re-routes the packets through the repaired stream table
// instead of dropping them. Control packets addressed to the dead child are
// dropped.
func (q *egressQueue) extract() []*packet.Packet {
	if q == nil {
		return nil
	}
	q.mu.Lock()
	defer q.mu.Unlock()
	total := q.sched.len()
	if total == 0 {
		return nil
	}
	var out []*packet.Packet
	ps, _, _, _ := q.sched.take(q.flow, true, nil)
	for _, p := range ps {
		if p.Tag != packet.TagControl {
			out = append(out, p)
		}
	}
	if d := total - len(out); d > 0 {
		q.m.EgressDrops.Add(int64(d))
	}
	q.releaseSlotsLocked(total)
	q.stalled = false
	return out
}

// pending reports how many packets are queued (tests, backpressure probes).
func (q *egressQueue) pending() int {
	if q == nil {
		return 0
	}
	q.mu.Lock()
	defer q.mu.Unlock()
	return q.sched.len()
}

// raiseGauge lifts a high-water gauge to d if d is a new record.
func raiseGauge(g *atomic.Int64, d int) {
	for {
		cur := g.Load()
		if int64(d) <= cur || g.CompareAndSwap(cur, int64(d)) {
			return
		}
	}
}
