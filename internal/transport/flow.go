package transport

import (
	"sync"
	"sync/atomic"

	"repro/internal/packet"
)

// FlowLink layers credit-based flow-control accounting over any Link, on
// any fabric: the wrapper is pure bookkeeping around the wrapped link's
// Send/Recv, so the chan and TCP transports (and anything interposed on
// them, like the simnet cost model) get identical credit semantics.
//
// Each direction of a link is governed by a fixed window W of send credits:
//
//   - The SENDER side holds a pool of W credits, kept as a count of the
//     data packets in flight. Every data packet it puts on the wire must
//     first acquire one (Acquire, TryAcquire, or TryAcquireN for a whole
//     batch at once), so at most W data packets can be "in flight" — on
//     the wire or un-retired at the receiver — per direction. Control
//     traffic never consumes credits.
//
//   - The RECEIVER side calls Retire as its pipeline actually finishes
//     packets (not merely enqueues them). Retirements accumulate and, once
//     a quarter-window has built up, Retire hands the caller a grant total
//     to return to the peer as one compact TagCredit packet — batching the
//     reverse traffic without risking deadlock (a stalled sender has W
//     un-granted packets at the receiver, and W ≥ the grant threshold, so
//     the threshold is always eventually crossed).
//
//   - A receiver whose pipeline goes idle below the threshold returns the
//     remainder with OweIdle. On a link that frames its own grants (TCP)
//     and whose egress queue has attached a backstop (SetGrantHooks), that
//     grant is OWED rather than written: the next frame written on the link
//     carries it as a grant frame ahead of its data, in the same write, and
//     only if no frame leaves first does the queue's clock pay it on its
//     own (PayOwed). Any grant written at once takes the owed credits with
//     it. Elsewhere (the chan fabric, a link no queue attached to) the idle
//     grant is sent at once. A receiver that must not touch the wire (a
//     link reader) owes a grant with OweNow instead, on any fabric: the
//     queue's clock pays it at once.
//
//   - Inbound grants are absorbed inside Recv/RecvBatch (on TCP, a
//     grant-only frame already at the link's read edge) and refill the
//     sender pool directly, waking any Acquire-blocked sender; they are
//     invisible above the transport.
//
// Both ends of a link wrap independently (each process wraps its own end),
// and a replacement link minted by recovery or attach gets a fresh wrapper
// — which is exactly how credit state is rebuilt after a rewire: the new
// window starts full on the sender side and unretired on the receiver side,
// so retained buffers re-entering the window cannot double-spend credits.
type FlowLink struct {
	Link
	// credits is the sender-side pool, counting the data packets in
	// flight; a batch takes or returns n credits in one step.
	credits credits
	// retired accumulates receiver-side retirements since the last grant.
	retired atomic.Int64
	// refillHook, when set, is invoked after inbound grants refill the
	// pool — the egress queue's stall/resume wakeup.
	refillHook atomic.Pointer[func()]
	// ackHook, when set, is invoked on inbound grants, before their credits
	// return to the pool, with the grant's credit count and cumulative
	// acknowledged total — the egress replay ring's retirement signal
	// (exactly-once delivery). It runs on the link's reader goroutine and
	// must not touch the wire.
	ackHook atomic.Pointer[func(n int, cum uint64)]
	// retiredTotal counts every receiver-side retirement on this link for
	// the link's lifetime; outgoing grants carry it as the cumulative ack.
	retiredTotal atomic.Uint64
	// frames is the wrapped link when it frames its own grants (TCP).
	frames grantLink
	// owed counts the credits returned to the peer but not yet written:
	// the next frame written carries them (carryOwed), or PayOwed does.
	owed atomic.Int64
	// oweHook, when set, runs when a grant becomes owed (0 -> n) and on
	// every at-once owe (OweNow) — the egress queue arming its backstop;
	// rideHook runs when an owed grant leaves inside a data frame. See
	// SetGrantHooks.
	oweHook  atomic.Pointer[func(now bool)]
	rideHook atomic.Pointer[func()]
	// budMu guards budQ, the FIFO of per-tenant Budget tokens stamped on
	// this link (StampBudget) by senders that queued a packet for it.
	// Credits are fungible, so when a grant refills n credits the n oldest
	// stamps are released — attribution is FIFO-approximate when budgeted
	// and unbudgeted traffic interleave on one link, but every stamp is
	// released by exactly one grant or Abort.
	budMu sync.Mutex
	budQ  []*Budget
}

// NewFlowLink wraps l with a credit window of w packets per direction.
// w < 1 is treated as 1.
func NewFlowLink(l Link, w int) *FlowLink {
	f := &FlowLink{Link: l, credits: newCredits(w)}
	if g, ok := l.(grantLink); ok {
		f.frames = g
		g.absorbGrants(f.refillAck)
		g.carryGrants(f.carryOwed, f.settleOwed)
	}
	return f
}

// grantLink is implemented by links that carry credit grants without a
// Packet (the TCP transport): writeGrant frames a grant from its two fields
// into the link's send scratch, absorbGrants registers the wrapping
// FlowLink's refill to take every grant-only inbound frame at the read
// edge, parsed in place and never decoded, and carryGrants registers the
// claim of the owed grant that every data frame written puts ahead of its
// packets, in the same write, and its settlement once the write is done.
// The wire bytes are those of NewCreditGrant, so the two ends of a link
// need not agree on the path.
type grantLink interface {
	writeGrant(n uint32, acked uint64) error
	absorbGrants(fn func(n int, acked uint64))
	carryGrants(claim func() (n uint32, acked uint64), settle func(n uint32, sent bool))
}

// Abort marks the link finished, releasing every blocked Acquire (they
// proceed and let the send itself fail) and returning every outstanding
// budget stamp — credits on a dead link are never retired, and a tenant
// must not stay charged for them. Idempotent; implied by Close and Drop,
// and called explicitly when recovery replaces a failed link.
func (f *FlowLink) Abort() {
	// A dead link's credits are never coming back, so waiting is
	// pointless: blocked Acquire callers proceed and let the send surface
	// the link's real state.
	f.credits.abort()
	f.releaseBudgets(int(^uint(0) >> 1))
}

// releaseBudgets pops up to n stamps from the head of the budget FIFO and
// returns their tokens.
func (f *FlowLink) releaseBudgets(n int) {
	f.budMu.Lock()
	if n > len(f.budQ) {
		n = len(f.budQ)
	}
	popped := f.budQ[:n]
	rest := f.budQ[n:]
	if len(rest) == 0 {
		f.budQ = nil
	} else {
		f.budQ = append([]*Budget(nil), rest...)
	}
	f.budMu.Unlock()
	for _, b := range popped {
		b.Release(1)
	}
}

// Window returns the link's per-direction credit window.
func (f *FlowLink) Window() int { return int(f.credits.cap) }

// grantThreshold is how many retirements accumulate before Retire releases
// a grant: a quarter window batches the reverse traffic 4:1 while staying
// safely below the window (the deadlock-freedom condition).
func (f *FlowLink) grantThreshold() int64 {
	t := f.credits.cap / 4
	if t < 1 {
		t = 1
	}
	return t
}

// TryAcquire takes one send credit if one is available.
func (f *FlowLink) TryAcquire() bool { return f.credits.tryTake(1) == 1 }

// TryAcquireN takes up to n send credits in one step and returns how many
// it took: a flusher acquires a whole batch's credits at once.
func (f *FlowLink) TryAcquireN(n int) int { return f.credits.tryTake(n) }

// Available reports how many send credits are free, without taking any.
func (f *FlowLink) Available() int { return f.credits.available() }

// Acquire blocks for one send credit, aborting (false) if either stop
// channel fires first. Nil stop channels never fire. On a finished link it
// proceeds (true) without a credit: the send reports the truth.
func (f *FlowLink) Acquire(stopA, stopB <-chan struct{}) bool {
	return f.credits.take(stopA, stopB)
}

// StampBudget charges one token of the tenant budget b, which the caller
// has already taken, to this link: the token returns when the link's
// credits do — the grant that reaches the stamp in FIFO order, or Abort.
// On a finished link it returns at once. A nil b is a no-op.
func (f *FlowLink) StampBudget(b *Budget) {
	if b == nil {
		return
	}
	f.budMu.Lock()
	dead := false
	select {
	case <-f.credits.dead:
		dead = true
	default:
		f.budQ = append(f.budQ, b)
	}
	f.budMu.Unlock()
	if dead {
		// Abort already swept the FIFO: return the token directly rather
		// than stranding it.
		b.Release(1)
	}
}

// Refund returns n unused send credits in one step, running no hook: the
// caller is the would-be sender itself, unwinding a failed flush —
// possibly with its own queue lock held. Credits beyond the window are
// discarded, which keeps the invariant self-healing.
func (f *FlowLink) Refund(n int) { f.credits.give(n) }

// Refill returns n send credits as a grant from the peer would, with a
// cumulative count of zero, which acknowledges nothing. Every grant that
// arrives on a link carries its count (refillAck); Refill serves a caller
// that runs the credit cycle with no peer, as the benchmark's per-layer
// ladder does, and a link whose upstream queue keeps packets for the
// peer's acknowledgement must never take one.
func (f *FlowLink) Refill(n int) { f.refillAck(n, 0) }

// refillAck takes an inbound grant from the peer: n send credits and the
// peer's cumulative retired count cum. The n oldest budget stamps are
// released first — the peer retiring n packets is what frees the tenants
// those credits were charged to — then the ack hook gets cum, so an
// upstream egress queue drops the acknowledged prefix it kept, then the
// credits return to the pool and the refill hook runs (the egress queue's
// stall/resume wakeup). The ack hook runs BEFORE the credits return: a
// flusher can spend a credit only after the packets that credit
// acknowledges have left the queue, which is what bounds what it keeps by
// the window.
func (f *FlowLink) refillAck(n int, cum uint64) {
	f.releaseBudgets(n)
	if hook := f.ackHook.Load(); hook != nil {
		(*hook)(n, cum)
	}
	f.Refund(n)
	if hook := f.refillHook.Load(); hook != nil {
		(*hook)()
	}
}

// SetRefillHook registers fn to run after every inbound grant refill.
func (f *FlowLink) SetRefillHook(fn func()) { storeHook(&f.refillHook, fn) }

// SetAckHook registers fn to run on every inbound grant, before its
// credits return to the pool, with the grant's credit count and cumulative
// acknowledged total. Like the refill hook it runs on the link's reader
// goroutine: it must be quick and must never touch the wire.
func (f *FlowLink) SetAckHook(fn func(n int, cum uint64)) {
	if fn == nil {
		f.ackHook.Store(nil)
		return
	}
	f.ackHook.Store(&fn)
}

// GrantPacket builds the credit-grant packet returning n credits to the
// peer, stamped with this side's cumulative retired total as the ack.
// The snapshot is taken after the retirements it covers were recorded
// (Retire/FlushRetired add to the total before the claim is returned), so
// the cumulative count never undercounts the credits it accompanies.
func (f *FlowLink) GrantPacket(n int) *packet.Packet {
	return packet.NewCreditGrant(uint32(n), f.retiredTotal.Load())
}

// SendGrant returns n credits to the peer, stamped like GrantPacket, directly
// on the wrapped link, together with any owed credits. A link that frames
// grants from their fields (TCP) sends one without allocating; any other
// link is sent GrantPacket(n).
func (f *FlowLink) SendGrant(n int) error {
	if f.owed.Load() > 0 {
		n += int(f.owed.Swap(0))
	}
	if n == 0 {
		return nil
	}
	if f.frames != nil {
		return f.frames.writeGrant(uint32(n), f.retiredTotal.Load())
	}
	return f.Link.Send(f.GrantPacket(n))
}

// OweIdle owes n below-threshold credits to the peer (Owe) if the link
// frames its own grants and its egress queue has attached a backstop
// (SetGrantHooks), reporting whether it did: the next frame written
// carries them, and the backstop pays them if none leaves first. It never
// touches the wire, so a link's reader may call it.
func (f *FlowLink) OweIdle(n int) bool {
	if f.frames == nil || f.oweHook.Load() == nil {
		return false
	}
	f.Owe(n)
	return true
}

// Owe adds n credits to the grant owed to the peer. The grant leaves in the
// next frame written on the link, in a grant written at once (SendGrant),
// or by PayOwed; the owe hook runs when the grant is new (0 -> n), so the
// link's queue can arm its backstop for it.
func (f *FlowLink) Owe(n int) {
	if n > 0 && f.owed.Add(int64(n)) == int64(n) {
		if hook := f.oweHook.Load(); hook != nil {
			(*hook)(false)
		}
	}
}

// OweNow adds n credits to the grant owed to the peer and has the link's
// queue pay it at once: the owe hook moves the queue's grant deadline to
// now, so its clock writes the grant (PayOwed) unless a frame leaving
// first carries it. Unlike OweIdle it owes on any fabric, the chan one
// included, so the link's queue must be attached (SetGrantHooks). It never
// touches the wire, so a link's reader may call it.
func (f *FlowLink) OweNow(n int) {
	if n <= 0 {
		return
	}
	f.owed.Add(int64(n))
	if hook := f.oweHook.Load(); hook != nil {
		(*hook)(true)
	}
}

// Owed reports how many credits are owed to the peer and not yet written.
func (f *FlowLink) Owed() int { return int(f.owed.Load()) }

// PayOwed writes the owed grant on its own, if there is one, reporting
// whether it did: the backstop for an owed grant no frame carried. It goes
// through the link's send lock alone, whatever the data side is doing.
func (f *FlowLink) PayOwed() (paid bool, err error) {
	n := int(f.owed.Swap(0))
	if n == 0 {
		return false, nil
	}
	return true, f.SendGrant(n)
}

// carryOwed claims the owed grant for the frame the wrapped link is about
// to write, under its send lock: the frame carries the returned credits
// and cumulative ack as a grant frame ahead of its data. n == 0 means none
// is owed. The link settles every claim (settleOwed).
func (f *FlowLink) carryOwed() (n uint32, acked uint64) {
	if f.owed.Load() == 0 {
		return 0, 0
	}
	k := f.owed.Swap(0)
	if k == 0 {
		return 0, 0
	}
	return uint32(k), f.retiredTotal.Load()
}

// settleOwed closes a carryOwed claim of n credits, still under the link's
// send lock: a frame that left with the grant runs the ride hook, and one
// the socket took no byte of (TrySendBatch) owes the grant again.
func (f *FlowLink) settleOwed(n uint32, sent bool) {
	if !sent {
		f.Owe(int(n))
		return
	}
	if hook := f.rideHook.Load(); hook != nil {
		(*hook)()
	}
}

// SetGrantHooks attaches the egress queue that writes on this link: owe runs
// when a grant becomes owed (the queue arms its backstop, which lets OweIdle
// owe at all), with now set when it is owed at once (OweNow), and ride runs
// when an owed grant leaves inside a data frame, under the link's send
// lock. Either may be nil; both must be quick and must never touch the
// wire.
func (f *FlowLink) SetGrantHooks(owe func(now bool), ride func()) {
	if owe == nil {
		f.oweHook.Store(nil)
	} else {
		f.oweHook.Store(&owe)
	}
	storeHook(&f.rideHook, ride)
}

func storeHook(p *atomic.Pointer[func()], fn func()) {
	if fn == nil {
		p.Store(nil)
		return
	}
	p.Store(&fn)
}

// Retire records that the receiving pipeline finished n inbound data
// packets. When accumulated retirements cross the grant threshold the
// whole accumulation is claimed and returned for the caller to grant back
// to the peer; otherwise 0.
func (f *FlowLink) Retire(n int) int {
	f.retiredTotal.Add(uint64(n))
	f.retired.Add(int64(n))
	for {
		cur := f.retired.Load()
		if cur < f.grantThreshold() {
			return 0
		}
		if f.retired.CompareAndSwap(cur, 0) {
			return int(cur)
		}
	}
}

// FlushRetired claims the accumulated retirements regardless of the grant
// threshold. Receivers call it when their pipeline goes idle: no further
// work is coming to push the accumulation over the threshold, and the peer
// may be waiting on exactly these credits — a tenant budget smaller than
// threshold × fan-out exhausts before any single link accumulates a
// quarter window, so threshold batching alone is a liveness guarantee only
// for window-limited senders, not budget-limited ones.
func (f *FlowLink) FlushRetired() int {
	for {
		cur := f.retired.Load()
		if cur == 0 {
			return 0
		}
		if f.retired.CompareAndSwap(cur, 0) {
			return int(cur)
		}
	}
}

// absorb refills the pool from any grants in ps and filters them out. The
// filtered slice is freshly allocated, never a compaction of ps: on the
// in-process fabric ps shares its backing array with the slice the sender
// passed to SendBatch, which the sender may still read after the send (the
// exactly-once path appends the sent prefix to its replay ring). When ps
// carries no grants it is returned as-is, so the common case stays
// zero-copy.
func (f *FlowLink) absorb(ps []*packet.Packet) []*packet.Packet {
	grants := 0
	for _, p := range ps {
		if _, ok := packet.CreditGrantValue(p); ok {
			grants++
		}
	}
	if grants == 0 {
		return ps
	}
	kept := make([]*packet.Packet, 0, len(ps)-grants)
	for _, p := range ps {
		if n, ok := packet.CreditGrantValue(p); ok {
			f.refillAck(int(n), packet.CreditGrantAck(p))
			continue
		}
		kept = append(kept, p)
	}
	return kept
}

// Recv delivers the next non-grant packet, absorbing credit grants into the
// sender pool as they arrive.
func (f *FlowLink) Recv() (*packet.Packet, error) {
	for {
		p, err := f.Link.Recv()
		if err != nil {
			return nil, err
		}
		if n, ok := packet.CreditGrantValue(p); ok {
			f.refillAck(int(n), packet.CreditGrantAck(p))
			continue
		}
		return p, nil
	}
}

// RecvBatch delivers the next frame's non-grant packets, absorbing grants;
// frames that carried only grants are skipped entirely.
func (f *FlowLink) RecvBatch() ([]*packet.Packet, error) {
	for {
		ps, err := RecvBatch(f.Link)
		if err != nil {
			return nil, err
		}
		if ps = f.absorb(ps); len(ps) > 0 {
			return ps, nil
		}
	}
}

// SendBatch forwards a whole batch through the wrapped link's native batch
// path. Credit accounting is the caller's concern (the egress queue
// acquires credits per data packet before flushing).
func (f *FlowLink) SendBatch(ps []*packet.Packet) error {
	return SendBatch(f.Link, ps)
}

// BatchCopies delegates the ownership question to the wrapped link: the
// flow wrapper adds bookkeeping, not buffering.
func (f *FlowLink) BatchCopies() bool { return BatchCopies(f.Link) }

// Close closes the wrapped link and releases blocked senders.
func (f *FlowLink) Close() error {
	f.Abort()
	return f.Link.Close()
}

// Drop severs the wrapped link abruptly (crash modeling passes through)
// and releases blocked senders.
func (f *FlowLink) Drop() {
	f.Abort()
	DropLink(f.Link)
}
