package transport

import (
	"io"
	"sync"

	"repro/internal/packet"
	"repro/internal/topology"
)

// chanFrame is one channel transfer: either a single packet (the common
// un-batched case, carried inline so it costs no allocation) or a whole
// egress batch. Exactly one field is set.
type chanFrame struct {
	p  *packet.Packet
	ps []*packet.Packet
}

// chanLink is one end of an in-process link built from a pair of buffered
// channels. The buffer provides the bounded queueing (and therefore the
// backpressure) that a TCP socket's kernel buffers provide in the real
// system: a fast sender eventually blocks when its slow receiver falls
// behind, which is exactly the effect that makes flat-tree front-ends a
// bottleneck. The channel element is a frame — one packet or one batch —
// so batching reduces a link's channel operations from one per packet to
// one per flush.
type chanLink struct {
	send chan chanFrame
	recv chan chanFrame

	ownClosed   chan struct{} // closed when this end Closes
	peerClosed  chan struct{} // closed when the peer end Closes
	closeOnce   *sync.Once    // guards ownClosed
	ownDropped  chan struct{} // closed when this end Drops (crash)
	peerDropped chan struct{} // closed when the peer end Drops
	dropOnce    *sync.Once    // guards ownDropped

	// recvMu guards the pending buffer that parcels a received batch out to
	// per-packet Recv callers.
	recvMu  sync.Mutex
	pending []*packet.Packet
	pendOff int
}

// DefaultChanBuffer is the per-direction frame buffer of every fabric and
// replacement link, and of NewPair given a non-positive size. Each buffered
// element is one frame (a packet or a batch), so the buffer bounds queued
// link operations, not queued packets.
const DefaultChanBuffer = 64

// NewPair creates the two ends of an in-process link with the given
// per-direction buffer capacity.
func NewPair(buf int) (Link, Link) {
	if buf <= 0 {
		buf = DefaultChanBuffer
	}
	ab := make(chan chanFrame, buf)
	ba := make(chan chanFrame, buf)
	aClosed := make(chan struct{})
	bClosed := make(chan struct{})
	aDropped := make(chan struct{})
	bDropped := make(chan struct{})
	a := &chanLink{
		send: ab, recv: ba,
		ownClosed: aClosed, peerClosed: bClosed,
		closeOnce:  &sync.Once{},
		ownDropped: aDropped, peerDropped: bDropped,
		dropOnce: &sync.Once{},
	}
	b := &chanLink{
		send: ba, recv: ab,
		ownClosed: bClosed, peerClosed: aClosed,
		closeOnce:  &sync.Once{},
		ownDropped: bDropped, peerDropped: aDropped,
		dropOnce: &sync.Once{},
	}
	return a, b
}

// Send delivers p to the peer, blocking while the buffer is full. It fails
// with ErrClosed once either end has closed.
func (l *chanLink) Send(p *packet.Packet) error {
	return l.sendFrame(chanFrame{p: p})
}

// SendBatch delivers the whole batch as a single channel transfer. The
// link takes ownership of the slice.
func (l *chanLink) SendBatch(ps []*packet.Packet) error {
	if len(ps) == 0 {
		return nil
	}
	if len(ps) == 1 {
		return l.sendFrame(chanFrame{p: ps[0]})
	}
	return l.sendFrame(chanFrame{ps: ps})
}

// TrySendBatch is SendBatch if the channel's buffer has room, and reports
// false, sending nothing, if it has none.
func (l *chanLink) TrySendBatch(ps []*packet.Packet) (bool, error) {
	f := chanFrame{ps: ps}
	switch len(ps) {
	case 0:
		return true, nil
	case 1:
		f = chanFrame{p: ps[0]}
	}
	select {
	case <-l.ownClosed:
		return false, ErrClosed
	case <-l.peerClosed:
		return false, ErrClosed
	default:
	}
	select {
	case l.send <- f:
		return true, nil
	default:
		return false, nil
	}
}

// BatchCopies reports false: SendBatch passes the slice itself through
// the channel, so the receiver shares the sender's backing array and the
// sender must never reuse it (the aliasing class batchalias polices).
func (l *chanLink) BatchCopies() bool { return false }

func (l *chanLink) sendFrame(f chanFrame) error {
	// Fast-path check so a closed link fails even if buffer space remains.
	select {
	case <-l.ownClosed:
		return ErrClosed
	case <-l.peerClosed:
		return ErrClosed
	default:
	}
	select {
	case l.send <- f:
		return nil
	case <-l.ownClosed:
		return ErrClosed
	case <-l.peerClosed:
		return ErrClosed
	}
}

// Recv returns the next packet, parceling out buffered batches one packet
// at a time. After the peer closes, Recv drains any frames already in
// flight and then reports io.EOF; after the peer Drops (crash), in-flight
// frames are lost and Recv reports io.EOF immediately.
func (l *chanLink) Recv() (*packet.Packet, error) {
	l.recvMu.Lock()
	defer l.recvMu.Unlock()
	if p := l.popPending(); p != nil {
		return p, nil
	}
	f, err := l.recvFrame()
	if err != nil {
		return nil, err
	}
	if f.p != nil {
		return f.p, nil
	}
	l.pending = f.ps
	l.pendOff = 0
	return l.popPending(), nil
}

// RecvBatch returns the next frame's packets as one batch.
func (l *chanLink) RecvBatch() ([]*packet.Packet, error) {
	l.recvMu.Lock()
	defer l.recvMu.Unlock()
	if l.pendOff < len(l.pending) {
		ps := l.pending[l.pendOff:]
		l.pending, l.pendOff = nil, 0
		return ps, nil
	}
	f, err := l.recvFrame()
	if err != nil {
		return nil, err
	}
	if f.p != nil {
		return []*packet.Packet{f.p}, nil
	}
	return f.ps, nil
}

// popPending returns the next packet of a partially consumed batch, or nil.
func (l *chanLink) popPending() *packet.Packet {
	if l.pendOff >= len(l.pending) {
		return nil
	}
	p := l.pending[l.pendOff]
	l.pendOff++
	if l.pendOff == len(l.pending) {
		l.pending, l.pendOff = nil, 0
	}
	return p
}

// recvFrame blocks for the next frame; callers hold recvMu.
func (l *chanLink) recvFrame() (chanFrame, error) {
	select {
	case <-l.peerDropped:
		return chanFrame{}, io.EOF
	default:
	}
	select {
	case f := <-l.recv:
		return f, nil
	default:
	}
	select {
	case f := <-l.recv:
		return f, nil
	case <-l.ownClosed:
		return l.drainOrEOF()
	case <-l.peerClosed:
		return l.drainOrEOF()
	}
}

func (l *chanLink) drainOrEOF() (chanFrame, error) {
	// A dropped peer models a crash: whatever it had "on the wire" is lost,
	// so report EOF immediately instead of draining.
	select {
	case <-l.peerDropped:
		return chanFrame{}, io.EOF
	default:
	}
	select {
	case f := <-l.recv:
		return f, nil
	default:
		return chanFrame{}, io.EOF
	}
}

// Close closes this end. Both ends observe the closure: the peer's pending
// and future Sends fail, and its Recv drains then reports io.EOF.
func (l *chanLink) Close() error {
	l.closeOnce.Do(func() { close(l.ownClosed) })
	return nil
}

// Drop severs the link as a crash would: the peer's Recv reports EOF without
// draining packets already buffered, modeling in-flight data loss.
func (l *chanLink) Drop() {
	l.dropOnce.Do(func() { close(l.ownDropped) })
	_ = l.Close()
}

// NewChanFabric wires an entire topology with in-process links of
// DefaultChanBuffer frames per direction, returning one Endpoint per rank
// (indexed by rank).
func NewChanFabric(t *topology.Tree) []*Endpoint {
	eps := make([]*Endpoint, t.Len())
	for r := 0; r < t.Len(); r++ {
		eps[r] = &Endpoint{Rank: packet.Rank(r)}
	}
	for r := 0; r < t.Len(); r++ {
		for _, c := range t.Children(topology.Rank(r)) {
			parentEnd, childEnd := NewPair(DefaultChanBuffer)
			eps[r].Children = append(eps[r].Children, parentEnd)
			eps[c].Parent = childEnd
		}
	}
	return eps
}
