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

// BatchAdder is implemented by synchronizers with a native multi-packet
// ingest path: AddBatch offers a whole link frame's worth of packets (all
// from the same child slot, in arrival order) in one call, equivalent to —
// but cheaper than — calling Add per packet. All built-in synchronizers
// implement it; the AddBatch helper falls back to per-packet Add for
// custom synchronizers that do not.
type BatchAdder interface {
	AddBatch(child int, ps []*packet.Packet) [][]*packet.Packet
}

// AddBatch feeds a batch of packets from one child slot through s,
// preserving Add-at-a-time semantics for synchronizers without a native
// batch path.
func AddBatch(s Synchronizer, child int, ps []*packet.Packet) [][]*packet.Packet {
	if len(ps) == 1 {
		return s.Add(child, ps[0])
	}
	if ba, ok := s.(BatchAdder); ok {
		return ba.AddBatch(child, ps)
	}
	var out [][]*packet.Packet
	for _, p := range ps {
		out = append(out, s.Add(child, p)...)
	}
	return out
}

// singletons releases each packet as its own one-packet batch, the shape
// per-packet Add would have produced.
func singletons(ps []*packet.Packet) [][]*packet.Packet {
	out := make([][]*packet.Packet, len(ps))
	for i := range ps {
		out[i] = ps[i : i+1 : i+1]
	}
	return out
}

// Drainer is implemented by synchronizers that can be force-flushed at
// stream shutdown, releasing everything still held back.
type Drainer interface {
	Drain() [][]*packet.Packet
}

// SlotRemapper is implemented by synchronizers with per-child state that can
// survive a change in the child set, as happens when failure recovery makes
// a node adopt its grandchildren. remap[old] gives the new dense slot for
// each existing slot, or -1 to discard that slot's held packets (the slot
// belonged to the failed child); n is the new slot count. Batches that
// become releasable under the new layout (e.g. a round that was only
// waiting on the removed slot) are returned so the caller can flush them.
type SlotRemapper interface {
	RemapSlots(remap []int, n int) [][]*packet.Packet
}

// NullSync delivers every packet immediately upon receipt — MRNet's "null"
// synchronization filter.
type NullSync struct{}

// NewNullSync returns a pass-through synchronizer.
func NewNullSync() *NullSync { return &NullSync{} }

// Add releases the packet immediately as a singleton batch.
func (*NullSync) Add(child int, p *packet.Packet) [][]*packet.Packet {
	return [][]*packet.Packet{{p}}
}

// AddBatch releases each packet as its own singleton batch — identical
// delivery semantics to per-packet Add, with one call per link frame.
func (*NullSync) AddBatch(child int, ps []*packet.Packet) [][]*packet.Packet {
	return singletons(ps)
}

// Poll never releases anything.
func (*NullSync) Poll(time.Time) [][]*packet.Packet { return nil }

// Pending is always zero.
func (*NullSync) Pending() int { return 0 }

// Deadline is always zero.
func (*NullSync) Deadline() time.Time { return time.Time{} }

// WaitForAll holds packets until one has arrived from every child slot,
// then releases one packet per child as a single batch — MRNet's
// "wait_for_all" policy. Packets queue per child in FIFO order, so a fast
// child may run ahead; batches always contain exactly one packet per child
// in child-slot order.
type WaitForAll struct {
	n      int
	queues []slotQueue
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

// SetNumChildren sizes the per-child queues.
func (w *WaitForAll) SetNumChildren(n int) {
	w.n = n
	w.queues = make([]slotQueue, n)
}

// Add queues the packet and releases as many complete batches as exist.
func (w *WaitForAll) Add(child int, p *packet.Packet) [][]*packet.Packet {
	if child < 0 || child >= w.n {
		// Unknown slot: deliver immediately rather than lose data.
		return [][]*packet.Packet{{p}}
	}
	w.queues[child].push(p)
	return w.rounds()
}

// AddBatch queues the whole frame, then releases complete rounds once —
// the same rounds per-packet Add would release, at one queue scan per
// frame instead of one per packet.
func (w *WaitForAll) AddBatch(child int, ps []*packet.Packet) [][]*packet.Packet {
	if child < 0 || child >= w.n {
		// Unknown slot: deliver immediately rather than lose data.
		return singletons(ps)
	}
	w.queues[child].push(ps...)
	return w.rounds()
}

// rounds releases every complete round, one packet per child each.
func (w *WaitForAll) rounds() [][]*packet.Packet {
	var out [][]*packet.Packet
	for w.complete() {
		batch := make([]*packet.Packet, w.n)
		for i := range w.queues {
			batch[i] = w.queues[i].pop()
		}
		out = append(out, batch)
	}
	return out
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
// and are released immediately.
func (w *WaitForAll) RemapSlots(remap []int, n int) [][]*packet.Packet {
	queues := make([]slotQueue, n)
	for old, nu := range remap {
		if nu >= 0 && nu < n && old < len(w.queues) {
			queues[nu] = w.queues[old]
		}
	}
	w.n = n
	w.queues = queues
	return w.rounds()
}

// Poll never releases on time alone.
func (*WaitForAll) Poll(time.Time) [][]*packet.Packet { return nil }

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

// Drain releases all held packets as one final partial batch, in child-slot
// order. Used when a stream shuts down or a child fails permanently.
func (w *WaitForAll) Drain() [][]*packet.Packet {
	var batch []*packet.Packet
	for i := range w.queues {
		q := &w.queues[i]
		batch = append(batch, q.ps[q.head:]...)
		q.reset()
	}
	if len(batch) == 0 {
		return nil
	}
	return [][]*packet.Packet{batch}
}

// TimeOut delivers the packets received within a specified window —
// MRNet's "time_out" policy. The window opens when a packet arrives while
// no window is open; when it expires (observed via Poll) everything
// received so far is released as one batch.
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

// Add queues the packet, opening the window if needed. With a non-positive
// window the packet is released immediately.
func (t *TimeOut) Add(child int, p *packet.Packet) [][]*packet.Packet {
	if t.window <= 0 {
		return [][]*packet.Packet{{p}}
	}
	if len(t.pending) == 0 {
		t.deadline = t.now().Add(t.window)
	}
	t.pending = append(t.pending, p)
	return nil
}

// AddBatch queues the whole frame, opening the window if needed.
func (t *TimeOut) AddBatch(child int, ps []*packet.Packet) [][]*packet.Packet {
	if t.window <= 0 {
		return singletons(ps)
	}
	if len(t.pending) == 0 && len(ps) > 0 {
		t.deadline = t.now().Add(t.window)
	}
	t.pending = append(t.pending, ps...)
	return nil
}

// Poll releases the held batch once the window has expired.
func (t *TimeOut) Poll(now time.Time) [][]*packet.Packet {
	if len(t.pending) == 0 || now.Before(t.deadline) {
		return nil
	}
	batch := t.pending
	t.pending = nil
	return [][]*packet.Packet{batch}
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
func (t *TimeOut) Drain() [][]*packet.Packet {
	if len(t.pending) == 0 {
		return nil
	}
	batch := t.pending
	t.pending = nil
	return [][]*packet.Packet{batch}
}
