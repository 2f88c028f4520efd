package core

import (
	"fmt"
	"io"
	"sync"
	"sync/atomic"

	"repro/internal/packet"
	"repro/internal/transport"
)

// beDelivery is one downstream packet together with the link it arrived
// on: retirement at Recv must credit the link that actually carried the
// packet — after a reparent, inbox residue from the dead parent must not
// grant the replacement parent a window it never spent.
type beDelivery struct {
	p   *packet.Packet
	src *transport.FlowLink
}

// BackEnd is the handle application code uses at a leaf of the overlay.
// Its methods are safe to call from the handler goroutine; Recv returns
// io.EOF once the network shuts down, at which point the handler should
// return.
type BackEnd struct {
	nw    *Network
	rank  Rank
	ep    *transport.Endpoint
	inbox chan beDelivery

	// parentMu guards ep.Parent, which recovery replaces when the
	// back-end's parent process fails and a grandparent adopts it.
	parentMu sync.RWMutex
	// reparentCh delivers the rendezvous of the replacement parent link;
	// the back-end redials it itself (the orphan half of the fabric's
	// rewiring protocol).
	reparentCh chan reparentReq
	// killCh is closed by Kill to crash the back-end.
	killCh   chan struct{}
	killOnce sync.Once

	// eg is the upstream egress queue, shared between the handler goroutine
	// (Send), the queue's own age clock and the link loop (reparent, drain);
	// the queue serializes internally.
	eg *egressQueue

	// seqCtr stamps this back-end's outbound packets with an origin
	// sequence — the identity the whole tree's duplicate detection keys on.
	seqCtr atomic.Uint64
}

func newBackEnd(nw *Network, rank Rank, ep *transport.Endpoint) *BackEnd {
	// The back-end wraps its own end of the parent link with credit
	// accounting: NewNetwork and AttachBackEnd both hand it a raw link.
	ep.Parent = transport.NewFlowLink(ep.Parent, nw.cfg.LinkWindow)
	be := &BackEnd{
		nw:         nw,
		rank:       rank,
		ep:         ep,
		inbox:      make(chan beDelivery, 64),
		reparentCh: make(chan reparentReq, 1),
		killCh:     make(chan struct{}),
	}
	// Leaves originate the upstream flow: their rings replay at reparent
	// like every sender's, but acknowledgements carry no deferred
	// retirements (nil sink) — popping just frees memory.
	be.eg = newUpstreamQueue(ep.Parent, nw.cfg.Batch, &nw.metrics, nil)
	be.eg.bindStops(be.killCh, nw.dying)
	return be
}

// Rank returns the back-end's overlay rank.
func (be *BackEnd) Rank() Rank { return be.rank }

func (be *BackEnd) parentLink() transport.Link {
	be.parentMu.RLock()
	defer be.parentMu.RUnlock()
	return be.ep.Parent
}

func (be *BackEnd) setParent(l transport.Link) {
	be.parentMu.Lock()
	be.ep.Parent = l
	be.parentMu.Unlock()
}

// kill crashes the back-end: its parent link is severed abruptly and the
// link loop exits without waiting for a shutdown announcement.
func (be *BackEnd) kill() {
	be.killOnce.Do(func() { close(be.killCh) })
	transport.DropLink(be.parentLink())
}

func (be *BackEnd) killed() bool {
	select {
	case <-be.killCh:
		return true
	default:
		return false
	}
}

// Recv blocks for the next downstream packet addressed to this back-end
// (multicast data on any stream it belongs to). It returns io.EOF when the
// network is shutting down. About to block on an empty inbox, Recv
// flushes what the handler sent on the handler's own goroutine, sparing
// the queue's clock the wake-up its first send armed. It is also the
// retirement point of downstream traffic: the handler actually consuming
// a packet is what hands the parent its send credit back — a handler that
// stops reading throttles the whole path back to the front-end producer,
// with one window of packets in flight.
func (be *BackEnd) Recv() (*packet.Packet, error) {
	if len(be.inbox) == 0 {
		be.eg.idleNow()
	}
	d, ok := <-be.inbox
	if !ok {
		return nil, io.EOF
	}
	retireAndGrant(&be.nw.metrics, d.src, 1)
	if len(be.inbox) == 0 {
		// The handler has consumed everything delivered so far: grant the
		// below-threshold remainder back rather than sitting on it (see
		// flushGrant — a budget-limited producer may need these credits).
		// On TCP it rides the handler's reply.
		flushGrant(&be.nw.metrics, d.src)
	}
	return d.p, nil
}

// Send emits an upstream packet on the given stream. The packet enters the
// filter pipeline at the back-end's parent and is reduced on its way to the
// front-end. The values are retained by the packet (see packet.New): a
// caller expanding a long-lived []any with ... must not mutate it after.
func (be *BackEnd) Send(streamID uint32, tag int32, format string, values ...any) error {
	p, err := packet.New(tag, streamID, be.rank, format, values...)
	if err != nil {
		return err
	}
	if tag != packet.TagControl {
		// p is not shared yet, so stamp it in place; SendPacket's WithSeq
		// would allocate a second Packet only to set this field.
		p.Seq = packet.MakeSeq(be.rank, be.seqCtr.Add(1))
	}
	return be.SendPacket(p)
}

// SendPacket emits a pre-built packet upstream, re-stamping its stream and
// source identity is NOT performed: the caller controls the header. The
// packet is queued rather than sent immediately, and the call blocks while
// the queue is at the link window; a nil return means it was accepted and
// leaves as soon as the handler yields the CPU — or, if the parent has
// crashed, retained and re-flushed once recovery re-parents this back-end —
// not necessarily that it is on the wire. A failed flush is surfaced only
// when no adoption is coming: the back-end was killed or the network is
// tearing down.
func (be *BackEnd) SendPacket(p *packet.Packet) error {
	if p.Seq == 0 && p.Tag != packet.TagControl {
		p = p.WithSeq(packet.MakeSeq(be.rank, be.seqCtr.Add(1)))
	}
	if err := be.eg.send(p); err != nil && (be.killed() || be.nw.tearingDown()) {
		return fmt.Errorf("core: back-end %d send: %w", be.rank, err)
	}
	return nil
}

// run is the back-end's link loop: it launches the application handler,
// delivers downstream data to it, and tears down at shutdown.
func (be *BackEnd) run() {
	handlerDone := make(chan struct{})
	go func() {
		defer close(handlerDone)
		if h := be.nw.cfg.OnBackEnd; h != nil {
			if err := h(be); err != nil {
				be.nw.recordBackEndErr(fmt.Errorf("back-end %d: %w", be.rank, err))
			}
		}
	}()
loop:
	for {
		p, err := be.parentLink().Recv()
		if err != nil {
			// An unexpected EOF means the parent crashed: survive as an
			// orphan until a grandparent adopts us (or the network tears
			// down). Release the handler if it is blocked on the dead
			// parent's window: its sends overflow into the retained buffer
			// until reparenting.
			be.eg.releaseWaiters()
			if !be.killed() {
				select {
				case req := <-be.reparentCh:
					l, err := req.rw.Redial(req.addr)
					if err != nil {
						// The adoption abandoned the offer (or the fabric
						// failed): stay orphaned and await the next one.
						continue
					}
					// A replacement link starts a fresh credit window on both
					// sides: retained sends re-enter it without
					// double-spending.
					l = transport.NewFlowLink(l, be.nw.cfg.LinkWindow)
					old := be.parentLink()
					be.setParent(l)
					transport.DropLink(old)
					// Repoint the egress queue and re-flush anything
					// retained across the dead parent: accepted packets
					// survive the failure.
					be.eg.setLink(l) //tbon:allow mutationquiesce back-ends have no pipeline to park; setLink excludes Send and the age clock on the queue's own locks
					continue
				case <-be.nw.dying:
				case <-be.killCh:
				}
			}
			break
		}
		if p.Tag == packet.TagControl {
			op, err := ctrlOp(p)
			if err != nil {
				continue
			}
			if op == opShutdown {
				break
			}
			// Stream management is the communication tree's concern; a
			// back-end only needs the data packets themselves.
			continue
		}
		be.nw.metrics.PacketsDown.Add(1)
		select {
		case be.inbox <- beDelivery{p: p, src: flowOf(be.parentLink())}:
		case <-be.killCh:
			break loop
		}
	}
	close(be.inbox)
	<-handlerDone
	// The handler has returned: flush whatever its last sends left queued
	// before the link closes, so no packet is stranded at shutdown.
	if !be.killed() {
		_ = be.eg.drain()
	}
	be.eg.stop()
	_ = be.parentLink().Close()
}
