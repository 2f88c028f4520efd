// Package transport provides the point-to-point FIFO channels that connect
// TBON processes. Two interchangeable implementations are provided: an
// in-process channel transport (the default substrate for many-node overlay
// simulation — one goroutine-driven node per process rank) and a TCP
// transport using length-prefixed packet frames, which exercises a real
// network code path.
//
// A Link is reliable and FIFO in each direction, matching the paper's model
// of processes "connected via FIFO channels" implemented over protocols
// like TCP.
package transport

import (
	"errors"

	"repro/internal/packet"
)

// ErrClosed is returned by Send on a link whose either end has been closed.
var ErrClosed = errors.New("transport: link closed")

// Link is one end of a bidirectional, reliable, FIFO message channel.
// Send and Recv are safe for concurrent use; Recv blocks until a packet
// arrives or the link closes (then it returns io.EOF after draining any
// packets already delivered).
type Link interface {
	Send(p *packet.Packet) error
	Recv() (*packet.Packet, error)
	Close() error
}

// BatchLink is implemented by links with a native multi-packet fast path:
// SendBatch moves a whole batch with one link operation (one channel
// transfer, or one length-prefixed frame and one bufio flush on TCP), and
// RecvBatch returns everything one such operation delivered. Both built-in
// transports implement it; the SendBatch/RecvBatch package helpers fall
// back to per-packet Send/Recv for links that do not.
type BatchLink interface {
	Link
	// SendBatch delivers the packets in order as one frame. The link takes
	// ownership of the slice; the caller must not reuse it.
	SendBatch(ps []*packet.Packet) error
	// RecvBatch returns the next frame's packets in order. Like Recv it
	// blocks until data arrives or the link closes (then io.EOF).
	RecvBatch() ([]*packet.Packet, error)
}

// SendBatch sends the packets over l in order, using the link's native
// batch path when it has one. The slice is owned by the link afterwards.
func SendBatch(l Link, ps []*packet.Packet) error {
	if len(ps) == 0 {
		return nil
	}
	if len(ps) == 1 {
		return l.Send(ps[0])
	}
	if b, ok := l.(BatchLink); ok {
		return b.SendBatch(ps)
	}
	for _, p := range ps {
		if err := l.Send(p); err != nil {
			return err
		}
	}
	return nil
}

// RecvBatch receives the next frame from l, falling back to a single-packet
// batch for links without a native batch path.
func RecvBatch(l Link) ([]*packet.Packet, error) {
	if b, ok := l.(BatchLink); ok {
		return b.RecvBatch()
	}
	p, err := l.Recv()
	if err != nil {
		return nil, err
	}
	return []*packet.Packet{p}, nil
}

// BatchCopier is implemented by links that can answer for their send-side
// ownership discipline: BatchCopies reports whether SendBatch copies
// everything it needs (the packets' encoded bytes onto the wire) before
// returning, leaving the slice free for the caller to reuse. The TCP
// transport copies; the in-process transport retains the slice (it IS the
// channel transfer). The egress flusher uses this to recycle its take
// buffer across flushes on copying links — links that don't implement the
// interface are conservatively treated as retaining.
type BatchCopier interface {
	BatchCopies() bool
}

// BatchCopies reports whether l's SendBatch copies the batch before
// returning (see BatchCopier). Unknown links are assumed to retain.
func BatchCopies(l Link) bool {
	if c, ok := l.(BatchCopier); ok {
		return c.BatchCopies()
	}
	return false
}

// TryBatchSender is implemented by links that can send a frame without
// waiting: TrySendBatch sends the batch as SendBatch does if the link
// takes it at once, and otherwise reports false with nothing sent and the
// slice still the caller's. A goroutine that must never wait on the wire
// (a pipeline lane at its idle point) sends through it. The chan
// transport's is a channel send with a default; the TCP transport's is one
// non-blocking write, which finishes a frame the socket took part of.
type TryBatchSender interface {
	TrySendBatch(ps []*packet.Packet) (sent bool, err error)
}

// TrySender returns l's non-blocking send, looking through a FlowLink to
// the link it wraps, or nil when l has none: a link that cannot answer
// counts as one whose send may wait.
func TrySender(l Link) TryBatchSender {
	if f, ok := l.(*FlowLink); ok {
		l = f.Link
	}
	if t, ok := l.(*tcpLink); ok && t.raw == nil {
		return nil // not a socket: no non-blocking write to make
	}
	t, _ := l.(TryBatchSender)
	return t
}

// Dropper is implemented by links that can model a process crash: Drop
// severs the link abruptly, discarding any packets still in flight, so the
// peer observes an unexpected EOF rather than a graceful drain. Fault
// injection (core.Network.Kill) uses this to make the chan and TCP fabrics
// fail the same way a real crashed process would.
type Dropper interface {
	Drop()
}

// DropLink severs a link abruptly, preferring the Dropper fast-fail path
// and falling back to an ordinary Close for links that cannot model loss.
func DropLink(l Link) {
	if l == nil {
		return
	}
	if d, ok := l.(Dropper); ok {
		d.Drop()
		return
	}
	_ = l.Close()
}

// Endpoint bundles the links a single tree node uses: one toward its parent
// (nil for the front-end) and one per child, index-aligned with the
// topology's child order.
type Endpoint struct {
	Rank     packet.Rank
	Parent   Link
	Children []Link
}

// Drop abruptly severs every link owned by the endpoint, modeling the
// owning process crashing.
func (e *Endpoint) Drop() {
	DropLink(e.Parent)
	for _, c := range e.Children {
		DropLink(c)
	}
}

// Close closes every link owned by the endpoint, returning the first error.
func (e *Endpoint) Close() error {
	var first error
	if e.Parent != nil {
		if err := e.Parent.Close(); err != nil && first == nil {
			first = err
		}
	}
	for _, c := range e.Children {
		if c == nil {
			continue
		}
		if err := c.Close(); err != nil && first == nil {
			first = err
		}
	}
	return first
}
