package core

import (
	"errors"
	"fmt"
	"io"
	"sync"
	"time"

	"repro/internal/packet"
)

// StreamSpec describes a new virtual channel over a subset of back-ends.
type StreamSpec struct {
	// Endpoints lists the member back-end ranks. Empty means every
	// back-end in the topology. Streams over subsets let a tool select
	// different portions of the topology for different communication
	// needs; streams may overlap freely.
	Endpoints []Rank
	// Transformation names the upstream reduction filter (registry name).
	// Empty selects the identity filter.
	Transformation string
	// Synchronization names the batching policy: "waitforall", "timeout",
	// or "nullsync". Empty selects "nullsync".
	Synchronization string
	// DownTransformation optionally names a filter applied to each
	// downstream packet at every communication process on its way to the
	// members — the paper's proposed bidirectional filtering. Empty means
	// packets fan out unchanged.
	DownTransformation string
	// RecvBuffer sets the front-end delivery buffer (packets); 0 = 1024.
	RecvBuffer int
	// Priority is the stream's egress scheduling priority: on every link,
	// queued data from higher-priority streams flushes first, and streams
	// of equal priority round-robin so no stream starves. 0 is the
	// default class; negative values yield to it.
	Priority int
}

// Stream is a virtual channel between the front-end and a set of member
// back-ends, with per-node filters reducing upstream traffic.
type Stream struct {
	nw        *Network
	id        uint32
	ss        *streamState // the root's filter and routing state
	members   []Rank
	tform     string
	sync      string
	recvCh    chan *packet.Packet
	closed    chan struct{}
	closeOnce sync.Once
}

// ErrTimeout is returned by RecvTimeout when no packet arrives in time.
var ErrTimeout = errors.New("core: receive timed out")

// Stream-id namespaces: the 32-bit stream id is split into a 12-bit session
// namespace and a 20-bit per-namespace sequence (id = ns<<20 | seq), so a
// tenant session owns a contiguous, collision-free id range and a single
// control packet can address every stream of a tenant at once (CloseSession).
// Namespace 0 is the legacy single-tenant space used by NewStream.
const (
	nsShift = 20
	// MaxNamespace is the largest session namespace id.
	MaxNamespace = 1<<(32-nsShift) - 1
	// maxSeq is the largest per-namespace stream sequence number.
	maxSeq = 1<<nsShift - 1
)

// NamespaceOf returns the session namespace a stream id belongs to.
func NamespaceOf(id uint32) uint32 { return id >> nsShift }

// NewStream establishes a stream in the legacy namespace (0); see
// NewStreamNS.
func (nw *Network) NewStream(spec StreamSpec) (*Stream, error) {
	return nw.NewStreamNS(0, spec)
}

// NewStreamNS establishes a stream in the given session namespace: filter
// and routing state is instantiated at the front-end and announced
// downstream so every communication process on the members' paths sets up
// its own filters before any data flows. A non-zero namespace must have an
// open session (OpenSession); the stream then draws send credits from the
// session's budget and its traffic is charged to the tenant's counters.
func (nw *Network) NewStreamNS(ns uint32, spec StreamSpec) (*Stream, error) {
	if ns > MaxNamespace {
		return nil, fmt.Errorf("core: namespace %d out of range [0, %d]", ns, MaxNamespace)
	}
	nw.mu.Lock()
	if nw.shutdown {
		nw.mu.Unlock()
		return nil, ErrShutdown
	}
	var sess *sessionState
	if ns != 0 {
		if sess = nw.sessions[ns]; sess == nil {
			nw.mu.Unlock()
			return nil, fmt.Errorf("core: namespace %d has no open session", ns)
		}
	}
	seq := nw.nextSeq[ns]
	if seq == 0 {
		seq = 1 // id 0 is never a valid stream
	}
	if seq > maxSeq {
		nw.mu.Unlock()
		return nil, fmt.Errorf("core: namespace %d exhausted its %d stream ids", ns, maxSeq)
	}
	nw.nextSeq[ns] = seq + 1
	id := ns<<nsShift | seq
	nw.mu.Unlock()

	if spec.Synchronization == "" {
		spec.Synchronization = "nullsync"
	}
	// Membership is validated against the live overlay: dead back-ends (a
	// recovered failure) cannot join new streams.
	nw.mu.Lock()
	members := spec.Endpoints
	if len(members) == 0 {
		members = nw.view.aliveLeaves()
	} else {
		for _, m := range members {
			if !nw.view.valid(m) {
				nw.mu.Unlock()
				return nil, fmt.Errorf("core: stream endpoint %d does not exist", m)
			}
			if !nw.view.backend[m] {
				nw.mu.Unlock()
				return nil, fmt.Errorf("core: stream endpoint %d is not a back-end", m)
			}
			if nw.view.dead[m] {
				nw.mu.Unlock()
				return nil, fmt.Errorf("core: stream endpoint %d has failed", m)
			}
		}
	}
	nw.mu.Unlock()

	// Instantiate the front-end's own filter level; this also validates
	// both filter names before anything is announced downstream. Serialize
	// with live recovery (recMu): otherwise a stream could snapshot the
	// pre-adoption slot layout yet register after the adoption repaired
	// every known stream, leaving it permanently mis-routed.
	nw.recMu.Lock()
	ss, err := newStreamState(nw.root, id,
		spec.Transformation, spec.Synchronization, spec.DownTransformation, spec.Priority, members)
	if err != nil {
		nw.recMu.Unlock()
		return nil, err
	}
	if sess != nil {
		// Front-end sends on this stream draw from the tenant's credit
		// budget, and its traffic lands on the tenant's counters. Both are
		// immutable for the session's lifetime, so lock-free reads are safe.
		ss.budget = sess.budget
		ss.tc = sess.counters
	}

	buf := spec.RecvBuffer
	if buf <= 0 {
		buf = 1024
	}
	st := &Stream{
		nw:      nw,
		id:      id,
		ss:      ss,
		members: append([]Rank(nil), members...),
		tform:   spec.Transformation,
		sync:    spec.Synchronization,
		recvCh:  make(chan *packet.Packet, buf),
		closed:  make(chan struct{}),
	}
	ss.st = st
	// Register the stream in the root's table before it is announced: the
	// router takes the command ahead of any inbox message that could carry
	// the stream's data.
	if err := nw.sendNodeCmd(nw.root, &cmdStream{ss: ss}); err != nil {
		nw.recMu.Unlock()
		return nil, fmt.Errorf("core: registering stream %d: %w", id, err)
	}
	if sess != nil {
		sess.counters.StreamsOpened.Add(1)
	}
	nw.mu.Lock()
	nw.streams[id] = st
	nw.mu.Unlock()
	nw.recMu.Unlock()

	// Announce downstream along member paths only.
	nw.root.rootSend(ss, newStreamPacket(id, spec.Transformation, spec.Synchronization,
		spec.DownTransformation, spec.Priority, members))
	return st, nil
}

// Stream returns the open stream with the given id, or nil.
func (nw *Network) Stream(id uint32) *Stream {
	nw.mu.Lock()
	defer nw.mu.Unlock()
	return nw.streams[id]
}

// ID returns the stream identifier carried by its packets.
func (s *Stream) ID() uint32 { return s.id }

// Members returns the member back-end ranks (shared slice; do not modify).
func (s *Stream) Members() []Rank { return s.members }

// Multicast sends a packet downstream to every member back-end. The packet
// fans out along the tree, so the front-end performs only fan-out(root)
// sends regardless of member count. The values are retained by the packet
// (see packet.New): a caller expanding a long-lived []any with ... must
// not mutate it after.
//
// A nil return means the packet was accepted into the egress queue of every
// participating live child of the root, which flushes it without waiting
// for more; the call blocks only while a child's queue holds a full credit
// window or, on a session stream, while the tenant's budget is spent. An
// accepted packet then fares as at every router: a queue fenced by its
// child's failure hands its packets to the adopted orphans, and a flush
// that reaches a dead child is dropped and counted in Metrics.EgressDrops.
// Multicast returns packet.New's error for a malformed format or value,
// and ErrShutdown once the stream is closed (Close, CloseSession or
// Network.Shutdown); nothing else.
func (s *Stream) Multicast(tag int32, format string, values ...any) error {
	p, err := packet.New(tag, s.id, 0, format, values...)
	if err != nil {
		return err
	}
	return s.MulticastPacket(p)
}

// MulticastPacket sends a pre-built packet downstream to all members, on
// Multicast's terms; its only error is ErrShutdown.
func (s *Stream) MulticastPacket(p *packet.Packet) error {
	select {
	case <-s.closed:
		return ErrShutdown
	default:
	}
	p = p.WithStream(s.id)
	s.nw.metrics.PacketsDown.Add(1)
	if tc := s.ss.tc; tc != nil {
		tc.PacketsDown.Add(1)
	}
	s.nw.root.rootSend(s.ss, p)
	return nil
}

// deliverUp is where the root's upward sink puts one reduced result. It is
// restamped with the stream and the root as its source — in place when the
// root's filter built it (Seq == 0, see streamState.Emit), as a header copy
// when forwarded, so the user reads a private copy — and handed to the
// receiver, waiting for room in the receive buffer. A closed stream's
// results are dropped, and so is one that does not fit while the stream
// closes or the network shuts down: Shutdown waits for the front-end, so
// the front-end must not wait for a reader that may never come.
func (s *Stream) deliverUp(q *packet.Packet) {
	select {
	case <-s.closed:
		return
	default:
	}
	if tc := s.ss.tc; tc != nil {
		tc.PacketsUp.Add(1)
	}
	if q.Seq != 0 {
		q = q.WithStreamSrc(s.id, 0)
	} else {
		q.StreamID, q.SrcRank = s.id, 0
	}
	select {
	case s.recvCh <- q:
		return
	default:
	}
	select {
	case s.recvCh <- q:
	case <-s.closed:
	case <-s.nw.dying:
	}
}

// Recv blocks for the next fully reduced packet arriving at the front-end
// on this stream. It returns io.EOF once the stream is closed and drained.
func (s *Stream) Recv() (*packet.Packet, error) {
	select {
	case p := <-s.recvCh:
		return p, nil
	default:
	}
	select {
	case p := <-s.recvCh:
		return p, nil
	case <-s.closed:
		select {
		case p := <-s.recvCh:
			return p, nil
		default:
			return nil, io.EOF
		}
	}
}

// RecvTimeout is Recv with a deadline; it returns ErrTimeout on expiry.
func (s *Stream) RecvTimeout(d time.Duration) (*packet.Packet, error) {
	timer := time.NewTimer(d)
	defer timer.Stop()
	select {
	case p := <-s.recvCh:
		return p, nil
	case <-s.closed:
		select {
		case p := <-s.recvCh:
			return p, nil
		default:
			return nil, io.EOF
		}
	case <-timer.C:
		return nil, ErrTimeout
	}
}

// Close tears the stream down: communication processes drain their
// synchronizers, forget the stream, and propagate the close toward the
// members. Packets already in flight above a draining node are delivered
// unfiltered and dropped at the front-end. The close is queued behind the
// stream's earlier multicasts like any downstream packet, so Close returns
// nil.
func (s *Stream) Close() error {
	s.closeOnce.Do(func() {
		s.nw.root.rootSend(s.ss, closeStreamPacket(s.id))
		s.teardownFE()
	})
	return nil
}

// bulkClose tears down the stream's front-end state without per-stream
// control traffic: CloseSession floods one opCloseSession packet that
// closes every stream of the namespace at every node, so announcing each
// close individually would only duplicate work on the wire.
func (s *Stream) bulkClose() {
	s.closeOnce.Do(s.teardownFE)
}

// teardownFE is the front-end half of a stream close, shared by Close and
// bulkClose (both run under closeOnce). The receiver closes first, so
// results still in the root's pipeline are dropped (deliverUp); then the
// root's router forgets the stream, and data still in flight for it is
// dropped there with its credits returned. The router is told last: a
// worker blocked delivering into a full receiver can hold the router in a
// quiesce that only the close releases.
func (s *Stream) teardownFE() {
	if tc := s.ss.tc; tc != nil {
		tc.StreamsClosed.Add(1)
	}
	s.nw.mu.Lock()
	delete(s.nw.streams, s.id)
	s.nw.mu.Unlock()
	close(s.closed)
	// Best effort: a root that cannot take the command is tearing down.
	_ = s.nw.sendNodeCmd(s.nw.root, &cmdStream{ss: s.ss, drop: true})
}

// closeRecv marks the stream closed without control traffic; used at
// network shutdown.
func (s *Stream) closeRecv() {
	s.closeOnce.Do(func() { close(s.closed) })
}
