package core

import (
	"errors"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/packet"
	"repro/internal/transport"
)

// feState is the front-end's half of the overlay: it owns the root's links,
// runs the root's receive ROUTER (per-link FIFO ingress, control, the
// install command), and dispatches data runs to per-stream pipeline
// shards where the last level of filtering executes before results are
// handed to Stream receivers.
type feState struct {
	nw *Network
	ep *transport.Endpoint

	mu     sync.Mutex // guards states; written by NewStream, read by run loop
	states map[uint32]*streamState

	// shards runs the root-level filter pipelines. The router is the only
	// data dispatcher; user goroutines only enqueue forget items
	// (Stream.Close trimming a shard's poll set).
	shards *shardPool
	// readStop is closed when the router exits, releasing any readLink
	// goroutine still blocked handing a frame to the abandoned inbox.
	readStop chan struct{}

	// ctrlLane is the order-free control ingress (heartbeat beacons): it
	// bypasses the data inbox so detection keeps working however saturated
	// the data plane is.
	ctrlLane chan *packet.Packet

	// epMu guards ep.Children, which the install command grows when the
	// front-end adopts the orphans of a failed child or takes an attached
	// child; Multicast and NewStream read the slice from user goroutines.
	epMu sync.RWMutex
	// adoptSeq is a seqlock around installs: odd while handleInstall is
	// rewiring, bumped again when done. Multicasts use it to read stream
	// routing and the link slice as one consistent pair.
	adoptSeq atomic.Uint64
	// cmdCh delivers the install command into the receive loop, through
	// the same bounded hand-off as a node's (sendNodeCmd).
	cmdCh chan nodeCmd

	// ackTrack maps each inbound child link to its in-order retirement
	// tracker (router-owned): the front-end is the
	// acknowledgement cascade's base case — delivery here IS the ack — but
	// its grants must still follow arrival order for the cumulative count
	// to acknowledge a prefix of the child's replay ring.
	ackTrack map[*transport.FlowLink]*inOrder
}

func (fe *feState) state(id uint32) *streamState {
	fe.mu.Lock()
	defer fe.mu.Unlock()
	if fe.states == nil {
		return nil
	}
	return fe.states[id]
}

func (fe *feState) setState(id uint32, ss *streamState) {
	fe.mu.Lock()
	defer fe.mu.Unlock()
	if fe.states == nil {
		fe.states = map[uint32]*streamState{}
	}
	fe.states[id] = ss
}

func (fe *feState) dropState(id uint32) {
	fe.mu.Lock()
	defer fe.mu.Unlock()
	delete(fe.states, id)
}

// snapshotStates returns the current stream states as a slice.
func (fe *feState) snapshotStates() []*streamState {
	fe.mu.Lock()
	defer fe.mu.Unlock()
	states := make([]*streamState, 0, len(fe.states))
	for _, ss := range fe.states {
		states = append(states, ss)
	}
	return states
}

// childLinks returns the front-end's child link slots. The slice is
// copy-on-write (installChild swaps in a fresh one), so returning the
// reference is safe and keeps the per-packet send path allocation-free.
func (fe *feState) childLinks() []transport.Link {
	fe.epMu.RLock()
	defer fe.epMu.RUnlock()
	return fe.ep.Children
}

// installChild places a link at the given child slot, building a new
// slice so concurrent childLinks readers keep a consistent snapshot. The
// displaced link's credit state is aborted: user goroutines blocked on its
// window (Multicast into a failed subtree) wake up and let their sends
// observe the link's real state.
func (fe *feState) installChild(slot int, l transport.Link) {
	fe.epMu.Lock()
	n := len(fe.ep.Children)
	if slot+1 > n {
		n = slot + 1
	}
	next := make([]transport.Link, n)
	copy(next, fe.ep.Children)
	var old transport.Link
	if slot < len(fe.ep.Children) {
		old = fe.ep.Children[slot]
	}
	next[slot] = l
	fe.ep.Children = next
	fe.epMu.Unlock()
	if old != nil && old != l {
		flowOf(old).Abort()
	}
}

// sendToStream fans a packet out to the stream's participating children.
// ss routing is index-aligned with the slot snapshot; the seqlock retry
// makes routing and links a single consistent pair even while an adoption
// rewires them. A dead child link is skipped rather than surfaced: the
// subtree is inside its failure window and adoption will re-route it, so
// the loss is the transient downstream in-flight loss the recovery model
// covers.
//
// Each data send first acquires one credit from the child link's window,
// blocking the CALLER — a user goroutine inside
// Multicast — when the window is exhausted. That is the end-to-end
// backpressure story: a slow subtree throttles the producer itself, with
// at most one window of data in flight per link. Control traffic (stream
// setup/teardown) never consumes credits.
func (fe *feState) sendToStream(ss *streamState, p *packet.Packet) error {
	var down []bool
	var links []transport.Link
	for {
		seq := fe.adoptSeq.Load()
		if seq%2 == 1 { // an adoption is mid-rewire; wait it out
			runtime.Gosched()
			continue
		}
		down = ss.routeSnapshot()
		links = fe.childLinks()
		if fe.adoptSeq.Load() == seq {
			break
		}
	}
	data := p.Tag != packet.TagControl
	var first error
	for i, l := range links {
		if l == nil || i >= len(down) || !down[i] {
			continue
		}
		var fl *transport.FlowLink // nil for control: it spends no credit
		if data {
			// Aborted acquire (network teardown, closed session) falls
			// through to the send, which surfaces the real link state. A
			// session stream additionally draws one token from its tenant's
			// budget, returned automatically when the link credit comes
			// back.
			fl = flowOf(l)
			fl.AcquireBudgeted(ss.budget, fe.nw.dying, nil)
		}
		if err := l.Send(p); err != nil {
			// The packet never went out: refund its credit, or a dead
			// child's window would leak empty and wedge later
			// multicasts to its healthy siblings.
			if fl != nil && ss.budget != nil {
				fl.RefundBudgeted(1)
			} else if fl != nil {
				fl.Refund(1)
			}
			if first == nil && !errors.Is(err, transport.ErrClosed) {
				first = err
			}
		}
	}
	return first
}

// run is the front-end router loop: it keeps per-link FIFO ingress order,
// notes heartbeats, applies install commands, and dispatches data
// runs to the stream's pipeline shard, where the root-level synchronizer
// and transformation execute and results are handed to Stream.Recv.
func (fe *feState) run() {
	inbox := make(chan inMsg, 4*(len(fe.ep.Children)+1))
	fe.ctrlLane = make(chan *packet.Packet, ctrlLaneDepth)
	defer func() {
		close(fe.readStop)
		fe.shards.abort()
	}()
	for i, c := range fe.ep.Children {
		go readLink(c, i, inbox, fe.ctrlLane, fe.readStop)
	}
	live := len(fe.ep.Children)
loop:
	for {
		// Control lane first: beacons must reach the detector however deep
		// the data backlog is.
		select {
		case p := <-fe.ctrlLane:
			fe.handleOrderFree(p)
			continue
		default:
		}
		// All children being gone may just mean every root child crashed at
		// once: stay up — the recovery manager will hand us their orphans
		// to adopt — until the network tears down.
		if live <= 0 {
			select {
			case c := <-fe.cmdCh:
				live += fe.handleInstall(c, inbox)
			case <-fe.nw.dying:
				break loop
			}
			continue
		}
		select {
		case m := <-inbox:
			if m.ps == nil {
				live--
				continue
			}
			fe.handleUp(m.child, m.ps)
		case p := <-fe.ctrlLane:
			fe.handleOrderFree(p)
		case c := <-fe.cmdCh:
			live += fe.handleInstall(c, inbox)
		}
	}
	// All children gone: retire the shards (completing everything already
	// dispatched), then final-drain so no synchronized data is lost.
	fe.shards.drainStop()
	for _, ss := range fe.snapshotStates() {
		fe.flushBatches(ss, ss.drain())
	}
}

// handleInstall applies the install command at the root — the only
// command the front-end receives — and returns the number of new live
// child links.
func (fe *feState) handleInstall(c nodeCmd, inbox chan inMsg) int {
	cmd := c.(*cmdInstall)
	states := fe.snapshotStates()
	fe.adoptSeq.Add(1) // odd: rewiring in progress
	// Park the pipeline shards: applyInstall rebuilds synchronizers and
	// replays composed state through filters the workers otherwise own.
	fe.shards.quiesce(func() {
		applyInstall(cmd, fe.ep, fe.nw.registry, fe.installChild, states, fe.flushBatches, inbox, fe.ctrlLane, fe.readStop)
	})
	fe.adoptSeq.Add(1) // even again: links and routing consistent
	fe.nw.passShutdown(cmd.links, false, 0)
	close(cmd.done)
	return len(cmd.links)
}

// handleOrderFree processes one control-lane packet at the root: beacons
// feed the failure detector, load reports feed the elastic controller.
func (fe *feState) handleOrderFree(p *packet.Packet) {
	op, err := ctrlOp(p)
	if err != nil {
		return
	}
	switch op {
	case opHeartbeat:
		if origin, err := parseHeartbeat(p); err == nil {
			fe.nw.noteHeartbeat(origin)
		}
	case opLoadReport:
		fe.nw.noteLoadReport(p)
	}
}

// handleUp walks one upstream frame in arrival order, dispatching maximal
// same-stream runs of data packets to the stream's pipeline shard; control
// packets break runs, and a stream's runs land in one shard's FIFO
// mailbox, so per-link, per-stream FIFO semantics are preserved.
func (fe *feState) handleUp(child int, ps []*packet.Packet) {
	var src *transport.FlowLink
	if links := fe.childLinks(); child < len(links) {
		src = flowOf(links[child])
	}
	for i := 0; i < len(ps); {
		p := ps[i]
		if p.Tag == packet.TagControl {
			if op, err := ctrlOp(p); err == nil && op == opCheckpoint {
				fe.nw.cacheCheckpoint(p)
			} else {
				fe.handleOrderFree(p)
			}
			i++
			continue
		}
		j := nextRun(ps, i)
		run := ps[i:j]
		i = j
		fe.nw.metrics.PacketsUp.Add(int64(len(run)))
		tr, start := fe.assignArrival(src, len(run))
		ss := fe.state(p.StreamID)
		if ss == nil {
			// Unknown (e.g. just-closed) stream: drop — there is no
			// receiver — but still retire the packets so the sender's
			// credits come back (in arrival order).
			fe.retireOrdered(src, tr, start, len(run))
			continue
		}
		fe.shards.up(ss, child, run, src, tr, start)
	}
}

// assignArrival allocates in-order arrival indices for a run from src (no
// tracker for residue of a fenced link). Router-only.
func (fe *feState) assignArrival(src *transport.FlowLink, nPkts int) (*inOrder, uint64) {
	if src == nil {
		return nil, 0
	}
	t := fe.ackTrack[src]
	if t == nil {
		t = &inOrder{}
		fe.ackTrack[src] = t
	}
	return t, t.assign(nPkts)
}

// retireOrdered retires a router-dropped run, releasing only the newly
// contiguous arrival prefix.
func (fe *feState) retireOrdered(fl *transport.FlowLink, tr *inOrder, start uint64, n int) {
	if fl != nil {
		retireAndGrant(&fe.nw.metrics, fl, tr.complete(start, n))
	}
}

// shardUp runs the root-level pipeline for one run. Called from the
// stream's up-lane worker; takes the stream's pipeline lock itself. The front-end never consumes the
// deferred retirement: delivery happens right here, so the shard's
// immediate (in-order) retirement after this call IS the end-to-end
// acknowledgement — the base case of the cascade.
func (fe *feState) shardUp(ss *streamState, child int, run []*packet.Packet, ret *pendRetire) bool {
	ss.pipeMu.Lock()
	defer ss.pipeMu.Unlock()
	run = ss.dropDups(run, &fe.nw.metrics)
	fe.flushBatches(ss, ss.addBatch(child, run))
	return false
}

// shardUpRaw is unused at the root: unknown streams are dropped by the
// router before dispatch.
func (fe *feState) shardUpRaw([]*packet.Packet, *pendRetire) bool { return false }

// shardDown is unused at the root: the front-end originates downstream
// traffic, it never routes it.
func (fe *feState) shardDown(*streamState, *packet.Packet) {}

// shardDownRaw is unused at the root for the same reason.
func (fe *feState) shardDownRaw(*packet.Packet) {}

// shardCloseUp / shardCloseDown are unused at the root: Stream.Close
// tears down via control multicast plus a forget item.
func (fe *feState) shardCloseUp(*streamState) {}

func (fe *feState) shardCloseDown(*streamState, *packet.Packet) {}

// shardPoll releases a stream's time-triggered batches.
func (fe *feState) shardPoll(ss *streamState, now time.Time) {
	ss.pipeMu.Lock()
	defer ss.pipeMu.Unlock()
	fe.flushBatches(ss, ss.poll(now))
}

func (fe *feState) flushBatches(ss *streamState, batches [][]*packet.Packet) {
	for _, batch := range batches {
		if len(batch) == 0 {
			continue
		}
		fe.nw.metrics.Batches.Add(1)
		out, err := ss.tform.Transform(batch)
		if err != nil {
			fe.nw.metrics.FilterErrors.Add(1)
			continue
		}
		fe.nw.mu.Lock()
		st := fe.nw.streams[ss.id]
		fe.nw.mu.Unlock()
		if st == nil {
			continue
		}
		if ss.tc != nil {
			ss.tc.PacketsUp.Add(int64(len(out)))
		}
		for _, q := range out {
			st.deliver(q.WithStreamSrc(ss.id, 0))
		}
	}
}
