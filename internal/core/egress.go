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
// (drain), and otherwise as soon as the producer yields the CPU: the
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

// maxRetained bounds an egress queue retained across a dead parent link
// (an orphan waiting for adoption): beyond it the oldest packets are
// dropped, mirroring the bounded kernel-buffer loss a real crashed link
// would impose. It only binds past the link window's hard bound, when
// released senders overflowed into the queue while the link was dead.
const maxRetained = 4096

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
//   - mu guards the queued packets (the scheduler) and is held only for
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
// credit per data packet, all in one step, and stops — stalled — when the
// peer's window is exhausted, and the scheduler (flowegress.go) orders
// what a flush sends: order-free control first, then streams by priority,
// round-robin within a priority, with order-sensitive control packets
// acting as barriers that nothing enqueued after them may overtake.
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
	// a deadlock. Released senders overflow into the (retained, bounded)
	// queue.
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
	sched egressSched // what is queued, in flush order
	// held is the hard data-occupancy bound: the data slots taken, out of
	// window (the link window). Senders on pipeline or handler goroutines
	// block when the queue is full, counted in slotWaiters; the router
	// never does (it sends with block=false and may transiently overflow
	// during recovery replay — see sendCtx). Overflowing sends take no
	// slot.
	held, window, slotWaiters int
	// timer is the queue's own clock: one AfterFunc timer, re-armed in
	// place (retimeLocked) for the earlier of two deadlines, whose callback
	// (pollAge) runs on the timer's goroutine, so neither a router, a pipeline
	// lane nor a link reader touches the wire for an idle, grant or age
	// flush. due is the data deadline (see deadline); armCause is the flush
	// cause it counts under. grantDue is the backstop of
	// the grant owed on the link (owe), zero when none is: it is kept
	// apart from due because it holds whatever the data side is doing —
	// a stalled, empty or busy queue still pays it. stopped forbids
	// re-arming once the owner is gone (stop).
	timer    *time.Timer
	due      time.Time
	grantDue time.Time
	armCause int
	stalled  bool
	stopped  bool
	// handoff is set by an idle flush that found the wire busy; the owner
	// re-arms the clock when it lets go (unlockWire), so the packets are
	// not stranded behind a flush that already took its last batch.
	handoff atomic.Bool
	// localHW mirrors the deepest depth this queue has reported to the
	// global high-water gauge, so the hot path pays an atomic only when
	// it sets a new per-queue record.
	localHW int

	// Replay state of an upstream queue (newUpstreamQueue); all of it is
	// nil/zero on a downstream queue, which drops what a dead child link
	// cannot take — downstream traffic carries no replay ring. ring is set
	// once, before the queue is shared, so hot paths test it lock-free;
	// everything else is guarded by mu. Flushed data packets are appended
	// to ring and stay there until the peer's cumulative grant
	// acknowledgement covers them; setLink re-flushes the un-popped suffix
	// to the replacement link ahead of everything else. The ring is the
	// preallocated circular buffer sized to the link window (the credit
	// protocol bounds unacknowledged flushed data at W): a flushed packet
	// moves from the schedule into a ring slot, and the slot is reused once
	// the cumulative ack retires it.
	ring *replayRing
	// acker completes the deferred inbound retirements attached to
	// acknowledged packets; nil at the back-end, where acknowledgements
	// only free ring memory.
	acker *acker
	// Three counters over the data packets of the current link's flush
	// order, reset by setLink: ringSent is how many noteSent has recorded
	// as sent, ackTarget the highest cumulative count the peer has
	// acknowledged, ringAcked how many ring entries have been popped.
	// retireLocked keeps ringAcked == min(ringSent, ackTarget), so the ring
	// holds exactly the recorded-but-unacknowledged packets whichever of a
	// flush's noteSent and its grant's onAck runs first.
	ringSent, ackTarget, ringAcked uint64
	// replaying marks ring packets queued for re-flush by setLink but not
	// yet re-sent: they must be neither re-appended to the ring when their
	// flush completes nor double-queued by a second setLink.
	replaying map[*packet.Packet]struct{}
	// meta carries each enqueued packet's deferred retirement until the
	// flush that sends it moves it into the ring.
	meta   map[*packet.Packet]pendRetire
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
	q.timer = time.AfterFunc(pol.MaxDelay, func() { q.pollAge(time.Now()) })
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
	if q.ring != nil {
		fl.SetAckHook(q.onAck)
	}
}

// newUpstreamQueue wraps a parent link: flushed data packets are held in
// the replay ring until the peer's cumulative grant acknowledgement covers
// them, a flush the dead parent cannot take is retained, setLink re-flushes
// both to the replacement parent, and a (nil at a back-end) completes the
// deferred inbound retirements attached to acknowledged packets.
func newUpstreamQueue(l transport.Link, pol BatchPolicy, m *Metrics, a *acker) *egressQueue {
	q := newEgressQueue(l, pol, m)
	q.acker = a
	q.ring = newReplayRing(q.flow.Window())
	q.flow.SetAckHook(q.onAck)
	return q
}

// sendAck enqueues a data packet like sendCtx, registering ack to be
// completed when the peer acknowledges this packet. The last output of an
// inbound run carries the run's deferred retirement — acknowledgements are
// cumulative and flush order is FIFO, so covering the last packet covers
// the run.
func (q *egressQueue) sendAck(p *packet.Packet, prio int, block bool, ack pendRetire) error {
	if ack.src == nil {
		return q.sendCtx(p, prio, block)
	}
	q.mu.Lock()
	displaced, had := q.meta[p]
	if q.meta == nil {
		q.meta = map[*packet.Packet]pendRetire{}
	}
	q.meta[p] = ack
	q.mu.Unlock()
	if had && displaced != ack && q.acker != nil {
		// The same packet pointer enqueued again before its first flush
		// (an in-process transport can hand a forwarded pointer back):
		// complete the displaced retirement rather than leak it.
		q.acker.completed([]pendRetire{displaced})
	}
	return q.sendCtx(p, prio, block)
}

// noteSent records just-flushed data packets in the replay ring, in flush
// order — including the sent prefix of a flush whose link died mid-way:
// those packets are at risk exactly like any other unacknowledged flush.
// Packets completing a setLink re-flush are already in the ring and are
// only cleared from the replaying set. On an in-process link the peer's
// grant can arrive before this runs; its acknowledgement is then already in
// ackTarget and the entry is retired as soon as it is recorded, which is
// what keeps the ring within the credit window.
func (q *egressQueue) noteSent(sent []*packet.Packet) {
	var buf [ackBuf]pendRetire
	acks := buf[:0]
	q.mu.Lock()
	for _, p := range sent {
		if p.Tag == packet.TagControl {
			continue
		}
		q.ringSent++
		if _, pending := q.replaying[p]; pending {
			delete(q.replaying, p)
		} else {
			ack, ok := q.meta[p]
			if ok {
				delete(q.meta, p)
			}
			q.ring.push(ringEntry{p: p, ack: ack})
		}
		if q.ringAcked < q.ackTarget { // a grant outran this record
			acks = q.retireLocked(acks)
		}
	}
	if n := q.ring.len(); n > q.ringHW {
		q.ringHW = n
		raiseGauge(&q.m.ReplayRingHighWater, n)
	}
	q.mu.Unlock()
	q.complete(acks)
}

// retireLocked pops every ring entry that is both recorded as sent on the
// current link and covered by the peer's cumulative acknowledgement,
// appending its deferred retirement (if any) to acks — a caller-owned
// array of ackBuf entries, so a grant that pops a few runs allocates
// nothing. Entries below ringSent are always in the ring — pushed by
// noteSent, or kept across setLink for replay — so the pop cannot run
// dry. Callers hold mu.
func (q *egressQueue) retireLocked(acks []pendRetire) []pendRetire {
	limit := q.ackTarget
	if q.ringSent < limit {
		limit = q.ringSent
	}
	for ; q.ringAcked < limit; q.ringAcked++ {
		if e := q.ring.popFront(); e.ack.src != nil {
			acks = append(acks, e.ack)
		}
	}
	return acks
}

// onAck runs on the link's reader goroutine when a grant arrives, before
// the grant's credits return to the send window: the peer's cumulative
// retirement count acknowledges a prefix of this queue's flush order. Pop
// the covered ring entries and hand their deferred retirements to the
// acker — never the wire from here (a reader blocked in a send stops
// draining its own link). A grant without a cumulative count (cum == 0)
// acknowledges n more packets than the last one did.
func (q *egressQueue) onAck(n int, cum uint64) {
	q.mu.Lock()
	if cum == 0 {
		cum = q.ackTarget + uint64(n)
	}
	if cum > q.ackTarget {
		q.ackTarget = cum
	}
	var buf [ackBuf]pendRetire
	acks := q.retireLocked(buf[:0])
	q.mu.Unlock()
	q.complete(acks)
}

// ackBuf sizes the caller-owned array retireLocked collects into: a grant
// covers a window's prefix, and all but a few of its packets carry no run.
const ackBuf = 8

// complete hands popped deferred retirements to the acker, if any.
func (q *egressQueue) complete(acks []pendRetire) {
	if len(acks) > 0 && q.acker != nil {
		q.acker.completed(acks)
	}
}

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
// the (bounded on the failure path) retained buffer; rearmWaiters or
// setLink restores the bound.
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
	// the retrying flush observes the dead link and retains (bounded) or
	// drops, releasing slots either way.
	q.unstallLocked()
	q.mu.Unlock()
}

// send enqueues a data packet at default priority, blocking while the
// queue is at the link window. Flushes once MaxBatch packets wait.
func (q *egressQueue) send(p *packet.Packet) error {
	return q.sendCtx(p, 0, true)
}

// sendCtx enqueues a data packet with a stream priority, taking its
// occupancy slot in the same critical section. block chooses between the
// hard bound (pipeline workers, back-end handlers: wait for a slot) and
// router-context overflow (recovery replay, drains: never block the
// control plane, accept a transient excursion past the window).
func (q *egressQueue) sendCtx(p *packet.Packet, prio int, block bool) error {
	q.mu.Lock()
	if q.held < q.window {
		q.held++
	} else if block {
		q.waitSlotLocked()
	}
	return q.enqueueLocked(p, prio, false)
}

// sendNow enqueues p and flushes immediately. Control packets use it:
// order-sensitive control (stream setup/teardown, shutdown) keeps its FIFO
// position behind already queued data but never waits out a batching
// window; order-free control (heartbeats) additionally jumps to the
// scheduler's control lane, so it can never be delayed behind
// credit-stalled data.
func (q *egressQueue) sendNow(p *packet.Packet) error {
	q.mu.Lock()
	return q.enqueueLocked(p, 0, true)
}

// enqueueLocked appends p (ctrl marks a sendNow control packet), updates
// the bookkeeping, unlocks mu, and triggers whatever flush is due.
// Producers never wait on the wire: a triggered flush that finds another
// flusher active is absorbed by that flusher's drain loop. The enqueue
// that makes the queue non-empty arms the clock at zero: the flush runs on
// the timer's goroutine once the producer yields the CPU, so the batch is
// what the producer added meanwhile, and a producer that stops — between
// bursts, blocked on a full window, parked anywhere — leaves nothing
// waiting for a timer.
func (q *egressQueue) enqueueLocked(p *packet.Packet, prio int, ctrl bool) error {
	wasEmpty := q.sched.count == 0
	q.sched.add(p, prio, ctrl)
	if wasEmpty {
		q.armLocked(0, flushIdle)
	}
	q.m.PacketsQueued.Add(1)
	// The high-water gauge tracks what the link window bounds: data
	// occupancy (control consumes no slots).
	if hw := q.sched.data; hw > q.localHW {
		q.localHW = hw
		raiseGauge(&q.m.EgressHighWater, hw)
	}
	due := ctrl || q.sched.count >= q.pol.MaxBatch
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
// otherwise the active flusher's loop will drain what triggered us.
func (q *egressQueue) flush(cause int) error {
	if !q.flushMu.TryLock() {
		return nil
	}
	defer q.unlockWire()
	return q.flushLoop(cause)
}

// unlockWire releases the wire, re-arming the clock for an idle flush
// that found it busy (handoff).
func (q *egressQueue) unlockWire() {
	q.flushMu.Unlock()
	if q.handoff.Load() && q.handoff.CompareAndSwap(true, false) {
		q.idle()
	}
}

// idle re-arms the clock at zero for what is queued: the hand-off of an
// idle flush that found the wire busy (unlockWire). A credit-stalled queue
// waits for its unstalling grant.
func (q *egressQueue) idle() {
	q.mu.Lock()
	if q.sched.count > 0 && !q.stalled {
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
			dst = make([]*packet.Packet, 0, q.sched.count)
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
		if len(batch) > 0 {
			q.mu.Unlock()
			unsent, frames, err := q.sendFrames(batch, total)
			sent := batch[: len(batch)-len(unsent) : len(batch)]
			if q.ring != nil {
				// Ring-append the sent prefix even when the flush failed:
				// those frames reached the wire before the link died, and
				// losing them from the ring would make them unrecoverable.
				q.noteSent(sent)
			}
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
		if stalled && q.sched.count > 0 {
			// A grant that landed since take found no stall to clear (the
			// flag is set only below): go another round instead.
			if q.flow.Available() > 0 {
				q.mu.Unlock()
				continue
			}
			q.noteStallLocked()
		}
		done := len(batch) == 0 || stalled || q.sched.count == 0
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

// failedFlush restores (upstream) or drops (downstream) the unsent
// remainder of a failed flush and refunds the wire credits it had acquired.
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
	if q.ring != nil {
		// The parent link died under us: keep the unsent remainder (bounded)
		// so a reparent can re-flush it to the new parent.
		if n := len(unsent) - maxRetained; n > 0 {
			q.m.EgressDrops.Add(int64(n))
			unsent = unsent[n:]
		}
		q.sched.restore(unsent)
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

// retimeLocked points the clock at the earlier of the data deadline and the
// grant deadline, and stops it when neither is pending. While an idle flush
// has handed off to a busy wire, the data deadline is the wire owner's,
// which re-arms it when it lets go (unlockWire), so the clock keeps only the
// grant's. Callers hold mu.
func (q *egressQueue) retimeLocked() {
	if q.stopped {
		return
	}
	var next time.Time
	if !q.handoff.Load() {
		next = q.deadlineLocked()
	}
	if !q.grantDue.IsZero() && (next.IsZero() || q.grantDue.Before(next)) {
		next = q.grantDue
	}
	if next.IsZero() {
		q.timer.Stop()
		return
	}
	q.timer.Reset(time.Until(next))
}

// owe is the link's owe hook: a grant to the peer became owed. The next
// frame this queue writes carries it; unless one does first, the clock
// pays it at the grant deadline — MaxDelay, capped at DefaultBatchDelay so
// that a policy forbidding age flushes does not also hold a peer's credits.
func (q *egressQueue) owe() {
	q.mu.Lock()
	if q.grantDue.IsZero() && !q.stopped {
		q.grantDue = time.Now().Add(min(q.pol.MaxDelay, DefaultBatchDelay))
		q.retimeLocked()
	}
	q.mu.Unlock()
}

// payOwed is the grant backstop: once the grant deadline has passed, the
// owed grant is written on its own. It runs whatever the data side is
// doing — stalled, empty, or with another flusher on the wire — and goes
// through the link's send lock, not flushMu: two peers each stalled on the
// grant the other owes must not wait for a data flush that cannot come.
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

// stop ends the age clock for good. Every owner exit calls it — the router
// or back-end finishing or being killed, a child slot displaced or fenced —
// so nothing keeps retrying a link whose process is gone.
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
	if q.sched.count == 0 || q.stalled || q.stopped {
		return time.Time{}
	}
	return q.due
}

// pollAge is the clock's callback (unit tests also drive it with a chosen
// now): it pays an owed grant whose deadline has passed (payOwed), then
// flushes if the data deadline has passed (flushDue). A clock that woke for
// one deadline while the other is still pending is pointed at that one.
func (q *egressQueue) pollAge(now time.Time) {
	q.payOwed(now)
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
	if q.sched.count > 0 && !q.stalled && q.due.Equal(d) {
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
// credit-bypassing send would grow the replay ring past the bound W that
// prices replay memory at links × W. Past-window packets stay queued; the
// grant that retires in-flight data re-triggers the flush.
func (q *egressQueue) drain() error {
	if q == nil {
		return nil
	}
	q.flushMu.Lock()
	defer q.unlockWire()
	return q.flushLoop(flushDrain)
}

// setLink repoints an upstream queue at a replacement parent link (recovery
// reparenting) and re-flushes its replay ring and anything retained across
// the old link's death — within the NEW link's credit window, which starts
// full: retained packets re-enter the bounded window without
// double-spending credits, and whatever exceeds it stays queued until the
// new peer grants. If the re-flush fails again the buffer stays retained and
// the age clock retries it.
func (q *egressQueue) setLink(l transport.Link) {
	q.flushMu.Lock()
	q.mu.Lock()
	q.flow.SetRefillHook(nil)
	q.flow.SetAckHook(nil)
	q.flow.SetGrantHooks(nil, nil)
	q.adoptFlow(l.(*transport.FlowLink))
	q.stalled = false
	// The new peer's cumulative count starts at zero and will count the
	// replayed packets first: re-flush the un-popped ring suffix ahead
	// of everything, in ring order, so its prefix correspondence holds
	// on the replacement link too. Entries already queued for re-flush
	// by an earlier setLink are still at the schedule head; skip them.
	q.ringSent, q.ackTarget, q.ringAcked = 0, 0, 0
	var replay []*packet.Packet
	for i := 0; i < q.ring.len(); i++ {
		e := q.ring.at(i)
		if _, pending := q.replaying[e.p]; pending {
			continue
		}
		if q.replaying == nil {
			q.replaying = map[*packet.Packet]struct{}{}
		}
		q.replaying[e.p] = struct{}{}
		replay = append(replay, e.p)
	}
	if len(replay) > 0 {
		q.sched.restore(replay)
		// Their occupancy slots were released when they first flushed;
		// best-effort reacquisition keeps the count near the true queue
		// depth (overflow past the window is tolerated here, as in every
		// recovery path).
		q.held = min(q.window, q.held+len(replay))
		q.m.PacketsReplayed.Add(int64(len(replay)))
	}
	queued := q.sched.count
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
	total := q.sched.count
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
	return q.sched.count
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
