package filter

import (
	"time"

	"repro/internal/packet"
)

// ChildAware is implemented by synchronizers that need to know how many
// child slots feed them (WaitForAll). The overlay node calls SetNumChildren
// once, before any packets arrive.
type ChildAware interface {
	SetNumChildren(n int)
}

// Drainer is implemented by synchronizers that can be force-flushed at
// stream shutdown, releasing everything still held back to emit.
type Drainer interface {
	Drain(emit RoundFunc)
}

// SlotRemapper is implemented by synchronizers with per-child state that can
// survive a change in the child set, as happens when failure recovery makes
// a node adopt its grandchildren. remap[old] gives the new dense slot for
// each existing slot, or -1 to discard that slot's held packets (the slot
// belonged to the failed child); n is the new slot count. Rounds that
// become releasable under the new layout (e.g. a round that was only
// waiting on the removed slot) go to emit.
type SlotRemapper interface {
	RemapSlots(remap []int, n int, emit RoundFunc)
}

// emitEach releases each packet of run as its own one-packet round. The
// rounds are sub-slices of run capped at one element, so nothing the
// receiver appends can write into run.
func emitEach(run []*packet.Packet, emit RoundFunc) {
	for i := range run {
		emit(run[i : i+1 : i+1])
	}
}

// collectRounds returns copies of the rounds offer releases. It backs the
// AddBatch adapters.
func collectRounds(offer func(RoundFunc)) [][]*packet.Packet {
	var out [][]*packet.Packet
	offer(func(round []*packet.Packet) {
		out = append(out, append([]*packet.Packet(nil), round...))
	})
	return out
}

// NullSync delivers every packet immediately upon receipt — MRNet's "null"
// synchronization filter.
type NullSync struct{}

// NewNullSync returns a pass-through synchronizer.
func NewNullSync() *NullSync { return &NullSync{} }

// Offer releases each packet as its own one-packet round, in arrival
// order.
func (*NullSync) Offer(child int, run []*packet.Packet, emit RoundFunc) {
	emitEach(run, emit)
}

// AddBatch returns copies of the rounds Offer releases for ps. It only
// adapts bench/ladder.go's filter.nullsync_ns rung: the benchmark's next
// upkeep (ROADMAP item 1) moves that rung onto Offer and deletes it.
func (s *NullSync) AddBatch(child int, ps []*packet.Packet) [][]*packet.Packet {
	return collectRounds(func(emit RoundFunc) { s.Offer(child, ps, emit) })
}

// Poll never releases anything.
func (*NullSync) Poll(time.Time, RoundFunc) {}

// Pending is always zero.
func (*NullSync) Pending() int { return 0 }

// Deadline is always zero.
func (*NullSync) Deadline() time.Time { return time.Time{} }

// WaitForAll holds packets until one has arrived from every child slot,
// then releases one packet per child as a single round — MRNet's
// "wait_for_all" policy. Packets queue per child in FIFO order, so a fast
// child may run ahead; rounds always contain exactly one packet per child
// in child-slot order. Every round is released in the one n-slot array
// the policy keeps, so releasing allocates nothing.
type WaitForAll struct {
	n      int
	queues []slotQueue
	round  []*packet.Packet
}

// slotQueue is one child slot's FIFO. Popping advances head rather than
// re-slicing, so a queue that drains keeps its array for the next round —
// a request-reply round queues and releases one packet per child without
// allocating — unless a burst grew it past keptSlotCap, which bounds what
// an idle WaitForAll holds per child.
type slotQueue struct {
	ps   []*packet.Packet
	head int
}

const keptSlotCap = 8

func (q *slotQueue) len() int { return len(q.ps) - q.head }

// push appends ps, first sliding the live packets down over the popped
// ones if the array is full.
func (q *slotQueue) push(ps ...*packet.Packet) {
	if q.head > 0 && len(q.ps)+len(ps) > cap(q.ps) {
		n := copy(q.ps, q.ps[q.head:])
		clear(q.ps[n:])
		q.ps, q.head = q.ps[:n], 0
	}
	q.ps = append(q.ps, ps...)
}

// pop removes the head packet; callers keep len() > 0.
func (q *slotQueue) pop() *packet.Packet {
	p := q.ps[q.head]
	q.ps[q.head] = nil
	q.head++
	if q.head == len(q.ps) {
		q.reset()
	}
	return p
}

// reset empties the queue, keeping its array only up to keptSlotCap.
func (q *slotQueue) reset() {
	clear(q.ps[q.head:])
	if cap(q.ps) > keptSlotCap {
		q.ps = nil
	}
	q.ps, q.head = q.ps[:0], 0
}

// NewWaitForAll returns the policy for n children. If n is zero the node
// must call SetNumChildren before the first packet arrives.
func NewWaitForAll(n int) *WaitForAll {
	w := &WaitForAll{}
	w.SetNumChildren(n)
	return w
}

// SetNumChildren sizes the per-child queues and the round array.
func (w *WaitForAll) SetNumChildren(n int) {
	w.n = n
	w.queues = make([]slotQueue, n)
	w.round = make([]*packet.Packet, n)
}

// Offer queues the whole run, then releases every complete round — the
// same rounds packet-at-a-time queuing would release, at one queue scan
// per run instead of one per packet.
func (w *WaitForAll) Offer(child int, run []*packet.Packet, emit RoundFunc) {
	if child < 0 || child >= w.n {
		// Unknown slot: deliver immediately rather than lose data.
		emitEach(run, emit)
		return
	}
	w.queues[child].push(run...)
	w.rounds(emit)
}

// AddBatch returns copies of the rounds Offer releases for ps. It only
// adapts bench/ladder.go's filter.waitforall_ns rung: the benchmark's next
// upkeep (ROADMAP item 1) moves that rung onto Offer and deletes it.
func (w *WaitForAll) AddBatch(child int, ps []*packet.Packet) [][]*packet.Packet {
	return collectRounds(func(emit RoundFunc) { w.Offer(child, ps, emit) })
}

// rounds releases every complete round, one packet per child each, in the
// round array; it drops the array's references once done.
func (w *WaitForAll) rounds(emit RoundFunc) {
	for w.complete() {
		for i := range w.queues {
			w.round[i] = w.queues[i].pop()
		}
		emit(w.round)
	}
	clear(w.round)
}

func (w *WaitForAll) complete() bool {
	if w.n == 0 {
		return false
	}
	for i := range w.queues {
		if w.queues[i].len() == 0 {
			return false
		}
	}
	return true
}

// RemapSlots rewires the per-child queues onto a new slot layout, keeping
// packets already queued from surviving children and discarding those of
// dropped (failed) slots. New slots start with empty queues. Rounds that
// were only waiting on a removed slot become complete under the new layout
// and are released to emit at once.
func (w *WaitForAll) RemapSlots(remap []int, n int, emit RoundFunc) {
	queues := make([]slotQueue, n)
	for old, nu := range remap {
		if nu >= 0 && nu < n && old < len(w.queues) {
			queues[nu] = w.queues[old]
		}
	}
	w.n = n
	w.queues = queues
	w.round = make([]*packet.Packet, n)
	w.rounds(emit)
}

// Poll never releases on time alone.
func (*WaitForAll) Poll(time.Time, RoundFunc) {}

// Pending counts all held packets.
func (w *WaitForAll) Pending() int {
	n := 0
	for i := range w.queues {
		n += w.queues[i].len()
	}
	return n
}

// Deadline is always zero: WaitForAll needs no timer.
func (*WaitForAll) Deadline() time.Time { return time.Time{} }

// Drain releases all held packets as one final partial round, in
// child-slot order. Used when a stream shuts down or a child fails
// permanently.
func (w *WaitForAll) Drain(emit RoundFunc) {
	var batch []*packet.Packet
	for i := range w.queues {
		q := &w.queues[i]
		batch = append(batch, q.ps[q.head:]...)
		q.reset()
	}
	if len(batch) > 0 {
		emit(batch)
	}
}

// TimeOut delivers the packets received within a specified window —
// MRNet's "time_out" policy. The window opens when a packet arrives while
// no window is open; when it expires (observed via Poll) everything
// received so far is released as one round.
type TimeOut struct {
	window   time.Duration
	pending  []*packet.Packet
	deadline time.Time
	now      func() time.Time // test hook
}

// NewTimeOut returns the policy with the given window. A non-positive
// window behaves like NullSync.
func NewTimeOut(window time.Duration) *TimeOut {
	return &TimeOut{window: window, now: time.Now}
}

// Offer queues the run, opening the window if needed. With a non-positive
// window each packet is released at once as its own round.
func (t *TimeOut) Offer(child int, run []*packet.Packet, emit RoundFunc) {
	if t.window <= 0 {
		emitEach(run, emit)
		return
	}
	if len(t.pending) == 0 && len(run) > 0 {
		t.deadline = t.now().Add(t.window)
	}
	t.pending = append(t.pending, run...)
}

// Poll releases the held round once the window has expired.
func (t *TimeOut) Poll(now time.Time, emit RoundFunc) {
	if len(t.pending) > 0 && !now.Before(t.deadline) {
		t.Drain(emit)
	}
}

// Pending counts held packets.
func (t *TimeOut) Pending() int { return len(t.pending) }

// Deadline returns the end of the open window, or zero when idle.
func (t *TimeOut) Deadline() time.Time {
	if len(t.pending) == 0 {
		return time.Time{}
	}
	return t.deadline
}

// Drain releases everything held, regardless of the window.
func (t *TimeOut) Drain(emit RoundFunc) {
	if batch := t.pending; len(batch) > 0 {
		t.pending = nil
		emit(batch)
	}
}
