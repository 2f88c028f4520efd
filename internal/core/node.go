package core

import (
	"sync"

	"repro/internal/packet"
	"repro/internal/transport"
)

// inMsg is one unit of work for a node's event loop: a frame of packets
// arriving on the parent link (child == -1) or on the child link with the
// given slot. A nil slice signals that the link reached EOF.
type inMsg struct {
	child int
	ps    []*packet.Packet
}

// node is a communication process. Its run loop is the control-plane
// ROUTER (see pipeline.go): it owns links, reader goroutines, the streams
// table, control packets, and recovery commands, and dispatches data-packet
// runs to the process's filter pipeline.
//
// The front-end's router is the node at rank 0, the root, and differs in
// its upward sink only: it has no parent link or queue, and a finished
// batch is delivered to its Stream.
// Downstream it is a router like any other; its user goroutines enqueue
// onto its child egress queues where a router's pipeline workers would.
type node struct {
	nw   *Network
	rank Rank
	ep   *transport.Endpoint
	// m is this rank's own counter set (Network.shard).
	m *Metrics

	streams      map[uint32]*streamState
	shuttingDown bool
	liveChildren int

	// pipe runs this node's filters; owned by the router, which is the only
	// dispatcher.
	pipe *pipeline
	// readStop is closed when the router exits, releasing any readLink
	// goroutine still blocked handing a frame to the abandoned inbox.
	readStop chan struct{}
	// heard is the liveness record of this router's children: the link
	// readers note each beacon there and drop it, so a beacon never reaches
	// the inbox (Network.Heartbeats merges every router's record). Credit
	// grants never reach the inbox either: the transport absorbs them at
	// the receive edge.
	heard beacons

	// Egress queues, one per link (the root has no parent queue), shared by
	// the router, the pipeline and, at the root, user goroutines (each queue
	// serializes internally and keeps its own age clock, which the router
	// stops on its way out). parentOut retains its buffer and replay ring
	// across a dead parent link so the packets survive until reparenting.
	// The childOut slice itself is mutated only by the install command,
	// with the pipeline quiesced and epMu held for writing.
	parentOut *egressQueue
	childOut  []*egressQueue

	// orphaned is set when the parent link dies without a shutdown
	// announcement; the node then keeps serving its subtree while it waits
	// for a grandparent adoption (cmdReparent).
	orphaned bool
	// parentGen counts reparents and parentEOFSeen counts parent-link EOFs,
	// so a stale EOF from a replaced link is not mistaken for the death of
	// the current parent.
	parentGen     int
	parentEOFSeen int

	// cmdCh delivers commands (state snapshot, the install command,
	// reparenting, stream registration) into the event loop.
	cmdCh chan nodeCmd
	// killCh is closed by Kill to crash the node: the event loop exits
	// immediately, without draining.
	killCh   chan struct{}
	killOnce sync.Once

	// parentMu guards ep.Parent for readers outside the event loop (kill).
	// epMu guards the child slots — ep.Children, a copy-on-write slice Kill
	// reads, and childOut — together with every stream's routing: an
	// install holds it for writing, and the root's user goroutines hold it
	// for reading while they enqueue, so a send sees slots and routing as
	// one consistent pair.
	parentMu sync.RWMutex
	epMu     sync.RWMutex

	// Exactly-once state. ackTrack maps each inbound child link to its
	// in-order retirement tracker (router-owned; see inOrder). reroute
	// stashes a fenced dead child's never-sent queued packets for
	// re-routing after the adoption repairs the stream table.
	ackTrack map[*transport.FlowLink]*inOrder
	reroute  []*packet.Packet
}

// run executes the communication-process router loop: route downstream
// multicasts toward member back-ends, forward control, and dispatch data to
// the filter pipeline, which synchronizes, transforms, and egresses it.
func (n *node) run() {
	n.streams = map[uint32]*streamState{}
	inbox := make(chan inMsg, 4*(len(n.ep.Children)+1))
	n.readStop = make(chan struct{})
	defer func() {
		// Whatever path the router exits by — graceful finish or crash —
		// the readers, workers and age clocks must not outlive it.
		close(n.readStop)
		n.pipe.abort()
		n.stopEgress()
	}()

	n.ackTrack = map[*transport.FlowLink]*inOrder{}
	// The workers start after the queues exist: an idle worker releases
	// them (pipeline.go).
	n.pipe = newPipeline(n)

	// Reader goroutines: one per link, feeding the event loop.
	go n.readLink(n.ep.Parent, -1, inbox)
	for i, c := range n.ep.Children {
		go n.readLink(c, i, inbox)
	}
	n.liveChildren = len(n.ep.Children)

	// fast counts consecutive fast-path iterations; the periodic forced
	// pass through the full select bounds how long a busy inbox can defer a
	// command.
	fast := 0
	for {
		// Fast path: while messages are ready, handle them without the full
		// select.
		if fast < 1024 {
			select {
			case m := <-inbox:
				fast++
				if done := n.handle(m); done {
					return
				}
				continue
			case <-n.killCh:
				return // crashed: no drain, links already dropped by Kill
			default:
			}
		}
		fast = 0
		// An orphan additionally watches for network teardown: nobody can
		// route a shutdown announcement to it until it is adopted. So does
		// the root, for which teardown is the announcement.
		var dyingC <-chan struct{}
		if n.orphaned || n.rank == 0 && !n.shuttingDown {
			dyingC = n.nw.dying
		}
		select {
		case m := <-inbox:
			if done := n.handle(m); done {
				return
			}
		case c := <-n.cmdCh:
			n.handleCmd(c, inbox)
		case <-n.killCh:
			return // crashed: no drain, links already dropped by Kill
		case <-dyingC:
			// Shutdown has sent the root's children the announcement
			// itself; the root finishes once they have. An orphan finishes
			// at once.
			n.shuttingDown = true
			if n.orphaned || n.liveChildren == 0 {
				n.finish()
				return
			}
		}
	}
}

// newNode builds the router at rank r over its (credit-wrapped) endpoint,
// with an egress queue on every link, before its event loop starts: the
// root's user goroutines may send as soon as NewNetwork returns.
func newNode(nw *Network, r Rank, ep *transport.Endpoint) *node {
	n := &node{nw: nw, rank: r, ep: ep, m: nw.shard(r), cmdCh: make(chan nodeCmd), killCh: make(chan struct{})}
	if ep.Parent != nil {
		// Parent acknowledgements pop the replay ring and release the
		// inbound runs those packets carried — the cascade hop.
		n.parentOut = nw.upstreamQueue(r, ep.Parent, n.m, n.killCh)
		n.parentOut.owner = n
	}
	n.childOut = make([]*egressQueue, len(ep.Children))
	for i, c := range ep.Children {
		n.childOut[i] = n.newChildQueue(c)
	}
	return n
}

// newChildQueue wraps a child link in a downstream egress queue.
func (n *node) newChildQueue(l transport.Link) *egressQueue {
	q := newEgressQueue(l, n.nw.cfg.Batch, n.m)
	q.owner = n
	q.bindStops(n.killCh, n.nw.dying)
	return q
}

// clockLaneDue hands every idle deadline a producer left on the router's
// queues to their clocks: the producer — a pipeline lane, or a root user
// goroutine under epMu — is about to block on a full queue
// (waitSlotLocked), and its idle point will not come until it resumes.
func (n *node) clockLaneDue() {
	n.parentOut.clockDue()
	for _, q := range n.childOut {
		q.clockDue()
	}
}

// kill crashes the node: its links are severed abruptly (peers observe
// unexpected EOF, in-flight packets are lost) and the event loop exits.
// The links go first: a pipeline worker the crash releases from a window
// wait must not get a grant or a packet out — a crashed process sends
// nothing.
func (n *node) kill() {
	n.parentMu.RLock()
	parent := n.ep.Parent
	n.parentMu.RUnlock()
	transport.DropLink(parent)
	for _, c := range n.childLinks() {
		transport.DropLink(c)
	}
	n.killOnce.Do(func() { close(n.killCh) })
}

// childLinks returns the child link slots, a slice installChild swaps,
// never edits.
func (n *node) childLinks() []transport.Link {
	n.epMu.RLock()
	defer n.epMu.RUnlock()
	return n.ep.Children
}

// installChild places a link at the given child slot, growing the slots
// with nil placeholders if they were assigned out of order. The displaced
// link's credit state is aborted: nothing keeps waiting on a window the
// dead peer can never refill, and the tenant budget tokens stamped on it
// return. The slot's egress queue follows the link: a replacement link
// gets a fresh queue and a fenced-off slot (nil link) stashes whatever was
// still queued to the dead child for re-routing. Callers hold the pipeline
// quiesced, since its workers read childOut lock-free, and epMu
// for writing. Both slices are swapped for fresh ones, so a reader that
// takes them under the read lock keeps a consistent snapshot.
func (n *node) installChild(slot int, l transport.Link) {
	links := make([]transport.Link, max(len(n.ep.Children), slot+1))
	copy(links, n.ep.Children)
	outs := make([]*egressQueue, len(links))
	copy(outs, n.childOut)
	displaced, old := links[slot], outs[slot]
	links[slot] = l
	if displaced != nil && displaced != l {
		flowOf(displaced).Abort()
	}
	old.stop() // displaced or fenced: its age clock ends with its link
	if l == nil {
		// The fenced queue's packets never reached the wire; stash them for
		// re-routing once the adoption has repaired the stream table
		// (handleCmd), instead of dropping.
		n.reroute = append(n.reroute, old.extract()...)
		outs[slot] = nil
	} else {
		outs[slot] = n.newChildQueue(l)
	}
	n.ep.Children, n.childOut = links, outs
}

// readLink pumps frames from a link into the inbox, sending a nil-slice
// sentinel at EOF. A nil link (the root's parent) sends nothing. Reading
// whole frames means one inbox message — and one event-loop wakeup — per
// link flush instead of per packet. A child's beacon is noted in the
// router's liveness record and goes no further: the child's upstream queue
// sends it with Link.Send (egressQueue.beat), so it is always a one-packet
// frame of its own, and a saturated inbox delays it no more than the
// frames ahead of it on the link.
// readStop covers the owner exiting without draining the inbox (kill): a
// reader must never stay blocked on a channel nobody reads.
func (n *node) readLink(l transport.Link, slot int, inbox chan<- inMsg) {
	if l == nil {
		return
	}
	for {
		ps, err := transport.RecvBatch(l)
		if err != nil {
			select {
			case inbox <- inMsg{child: slot, ps: nil}:
			case <-n.readStop:
			}
			return
		}
		if len(ps) == 1 && ps[0].Tag == packet.TagControl {
			if origin, ok := parseHeartbeat(ps[0]); ok {
				n.heard.note(origin)
				n.m.HeartbeatsSeen.Add(1)
				continue
			}
		}
		// Fast path: a buffered non-blocking send costs one channel
		// operation; the two-way select only runs when the inbox is full
		// (backpressure) — where blocking, and therefore watching stop,
		// is the point.
		select {
		case inbox <- inMsg{child: slot, ps: ps}:
			continue
		default:
		}
		select {
		case inbox <- inMsg{child: slot, ps: ps}:
		case <-n.readStop:
			return
		}
	}
}

// quiesceShards parks the data plane for fn with a guarantee the barrier
// always forms: pipeline workers may be blocked on a flow-control window
// (a dead peer's, or simply a saturated one), and a parked router cannot
// deliver the grants or EOFs that would free them — so every owned
// queue's slot waiters are released first (each blocked worker overflows
// its one in-hand packet, finishes its item, and parks), and the hard
// bound is re-armed once the workers resume. The transient excursion is at
// most one packet per worker per quiesce.
func (n *node) quiesceShards(fn func()) {
	n.parentOut.releaseWaiters()
	for _, q := range n.childOut {
		q.releaseWaiters()
	}
	n.pipe.quiesce(fn)
	n.parentOut.rearmWaiters()
	for _, q := range n.childOut {
		q.rearmWaiters()
	}
}

// nextRun returns j such that ps[i:j] is a maximal run of data packets on
// ps[i]'s stream: control packets and stream changes end a run, so
// feeding runs to the synchronizer whole preserves exact per-link FIFO
// semantics. A run is also the unit of pipeline dispatch.
func nextRun(ps []*packet.Packet, i int) int {
	j := i + 1
	for j < len(ps) && ps[j].Tag != packet.TagControl && ps[j].StreamID == ps[i].StreamID {
		j++
	}
	return j
}

// handle processes one inbox message, returning true when the node should
// exit.
func (n *node) handle(m inMsg) bool {
	if m.child == -1 {
		return n.handleFromParent(m.ps)
	}
	return n.handleFromChild(m.child, m.ps)
}

func (n *node) handleFromParent(ps []*packet.Packet) bool {
	if ps == nil {
		n.parentEOFSeen++
		if n.parentEOFSeen <= n.parentGen {
			return false // EOF of a link already replaced by reparenting
		}
		// Parent crashed: hold the subtree together and wait for the
		// grandparent to adopt us (the zero-cost recovery model) — released
		// by the adoption, killCh or nw.dying (at once, if the crash raced a
		// shutdown). Any worker waiting on the dead parent's window must be
		// released first, or it never reaches the quiesce barrier the coming
		// reparent needs.
		n.parentOut.releaseWaiters()
		n.orphaned = true
		return false
	}
	src := flowOf(n.ep.Parent)
	for _, p := range ps {
		if p.Tag == packet.TagControl {
			if done := n.handleControl(p); done {
				return true
			}
			continue
		}
		// Downstream data: hand it to the pipeline's down lane, which
		// multicasts it unchanged toward member back-ends in arrival order.
		n.m.PacketsDown.Add(1)
		if ss, ok := n.streams[p.StreamID]; ok {
			n.pipe.down(ss, p, src)
			continue
		}
		// Unknown stream: flood (control may still be propagating on
		// another path in reconfiguration scenarios; flooding is always
		// safe). Routed through the down lane so the router stays off the
		// (window-bounded) egress path.
		n.pipe.downRaw(p, src)
	}
	return false
}

// flowOf extracts a link's credit accounting; nil for a nil (fenced) link.
func flowOf(l transport.Link) *transport.FlowLink {
	fl, _ := l.(*transport.FlowLink)
	return fl
}

// sendDownstream fans a packet out to the stream's participating children
// through their egress queues. Safe from pipeline workers: routing comes from
// the stream's snapshot and the childOut slice only changes under quiesce.
// Called only from pipeline workers, so blocking on a child's window is
// the intended backpressure (it stalls retirement, which stalls the
// upstream sender).
func (n *node) sendDownstream(ss *streamState, p *packet.Packet) {
	down := ss.routeSnapshot()
	for i, q := range n.childOut {
		if q == nil || i >= len(down) || !down[i] {
			continue
		}
		_ = q.sendCtx(p, true)
	}
}

// sendDownstreamNow fans a control packet out to the stream's
// participating children, flushing each queue so control never waits out a
// batching window (it still keeps its FIFO position behind queued data).
func (n *node) sendDownstreamNow(ss *streamState, p *packet.Packet) {
	down := ss.routeSnapshot()
	for i, q := range n.childOut {
		if q == nil || i >= len(down) || !down[i] {
			continue
		}
		_ = q.sendNow(p)
	}
}

// floodNow sends a control packet to every child through its egress queue,
// flushing at once, and returns how many of those flushes failed. Session
// teardown and shutdown are not routed by membership, so the flood is
// total.
func (n *node) floodNow(p *packet.Packet) (failed int) {
	n.epMu.RLock()
	defer n.epMu.RUnlock()
	for _, q := range n.childOut {
		if q != nil && q.sendNow(p) != nil {
			failed++
		}
	}
	return failed
}

// rootSend is how the root's user goroutines send downstream: through the
// child egress queues, like every router's pipeline workers, under epMu's read
// lock so an install cannot move the slots mid-fan-out. A user goroutine
// has no mailbox that drains, so each send is its own idle point: it
// flushes the queues it filled itself before it returns, sparing their
// clocks the wake-up — after releasing epMu, so an install never waits on
// the wire.
// Control (stream announce and close) flushes at once; data on a session
// stream takes the tenant's budget per child first (rootSendBudgeted).
func (n *node) rootSend(ss *streamState, p *packet.Packet) {
	if ss.budget != nil && p.Tag != packet.TagControl {
		n.rootSendBudgeted(ss, p)
		return
	}
	n.epMu.RLock()
	if p.Tag == packet.TagControl {
		n.sendDownstreamNow(ss, p)
	} else {
		n.sendDownstream(ss, p)
	}
	outs := n.childOut
	n.epMu.RUnlock()
	idleQueuesNow(outs)
}

// idleQueuesNow runs each queue's idle point on the caller (egressQueue.idleNow).
func idleQueuesNow(qs []*egressQueue) {
	for _, q := range qs {
		q.idleNow()
	}
}

// rootSendBudgeted fans a session stream's data packet out one child at a
// time, taking a token of the tenant's budget before each enqueue and
// stamping it on that child's link, whose credit FIFO releases it once: on
// the grant that returns it or the link's Abort (a closed session's budget
// stops constraining). The token wait happens outside epMu — an install must
// never wait for a tenant's grants — so the fan-out runs over the slots it
// found first: a child whose queue an install replaced meanwhile is
// skipped, its token returned, and its subtree is inside the failure
// window the adoption repairs. The fan-out enqueues first and flushes
// after, as rootSend does, so it stays as short as an enqueue loop; only
// a send about to wait for a token flushes the children filled so far
// first — its idle point.
func (n *node) rootSendBudgeted(ss *streamState, p *packet.Packet) {
	n.epMu.RLock()
	outs, down := n.childOut, ss.routeSnapshot()
	n.epMu.RUnlock()
	from := 0 // outs[from:] have not had this send's idle point
	for i, q := range outs {
		if q == nil || i >= len(down) || !down[i] {
			continue
		}
		if !ss.budget.TryAcquire() {
			idleQueuesNow(outs[from:i])
			from = i
			if !ss.budget.Acquire(n.nw.dying, nil) {
				return // the network is tearing down
			}
		}
		n.epMu.RLock()
		if n.childOut[i] == q { // installs grow the slots, never shrink them
			q.flow.StampBudget(ss.budget)
			_ = q.sendCtx(p, true)
		} else {
			ss.budget.Release(1)
		}
		n.epMu.RUnlock()
	}
	idleQueuesNow(outs[from:])
}

func (n *node) handleControl(p *packet.Packet) bool {
	op, err := ctrlOp(p)
	if err != nil {
		return false
	}
	switch op {
	case opNewStream:
		id, tform, sync, members, err := parseNewStream(p)
		if err != nil {
			return false
		}
		if _, exists := n.streams[id]; exists {
			// Recovery re-announces streams to adopted subtrees; a node
			// that already carries the stream must keep its filter state.
			return false
		}
		ss, err := newStreamState(n, id, tform, sync, members)
		if err != nil {
			// Unknown filter at this node: degrade to pass-through so data
			// still flows; the front-end surfaced the same error to the
			// caller when it validated the stream spec.
			return false
		}
		n.streams[id] = ss
		n.pipe.register(ss)
		n.sendDownstreamNow(ss, p)
	case opCloseStream:
		id, err := parseCloseStream(p)
		if err != nil {
			return false
		}
		if ss, ok := n.streams[id]; ok {
			// The pipeline drains the synchronizer and forwards the close
			// downstream AFTER every packet dispatched before the close —
			// the mailbox keeps the control's FIFO position. The router
			// forgets the stream now, so later arrivals pass through
			// unfiltered (on the same lane, behind the drain).
			delete(n.streams, id)
			n.pipe.closeStream(ss, p)
		}
	case opCloseSession:
		ns, err := parseCloseSession(p)
		if err != nil {
			return false
		}
		// Tear down every stream of the namespace without quiescing: each
		// victim's synchronizer drains on the up lane behind
		// previously dispatched work, other tenants' streams never stop,
		// and the single packet relays onward to every child in one hop.
		for id, ss := range n.streams {
			if NamespaceOf(id) != ns {
				continue
			}
			delete(n.streams, id)
			n.pipe.closeStreamUp(ss)
		}
		n.floodNow(p)
	case opShutdown:
		n.shuttingDown = true
		// Park the data plane before forwarding: every downstream packet
		// accepted before the announcement is through its pipeline and in
		// an egress queue, so the announcement keeps its exact per-link
		// FIFO position.
		n.quiesceShards(func() {})
		n.floodNow(p)
		if n.liveChildren == 0 {
			n.finish()
			return true
		}
	}
	return false
}

func (n *node) handleFromChild(child int, ps []*packet.Packet) bool {
	if ps == nil {
		n.liveChildren--
		// The child's link is dead: release any worker waiting on its
		// window (nothing can refill it; the slot stays as-is until the
		// child's own recovery fences or replaces it).
		n.childOut[child].releaseWaiters()
		if n.shuttingDown && n.liveChildren == 0 {
			n.finish()
			return true
		}
		return false
	}
	// Walk the frame in arrival order, dispatching maximal same-stream runs
	// of data packets to the pipeline's up lane in one item. Control
	// packets and stream changes break runs, and every run lands in the
	// one FIFO mailbox, so per-link, per-stream semantics are exactly those
	// of packet-at-a-time processing.
	var src *transport.FlowLink
	if child < len(n.ep.Children) {
		src = flowOf(n.ep.Children[child])
	}
	for i := 0; i < len(ps); {
		p := ps[i]
		if p.Tag == packet.TagControl {
			// Upstream carries data only: a beacon stopped at the reader,
			// and no other control flows toward the root.
			i++
			continue
		}
		j := nextRun(ps, i)
		run := ps[i:j]
		i = j
		n.m.PacketsUp.Add(int64(len(run)))
		tr, start := n.assignArrival(src, len(run))
		ss, ok := n.streams[p.StreamID]
		if !ok {
			// Stream unknown here (e.g. closed): pass through unfiltered —
			// at the root, drop and retire — on the up lane, so late data
			// stays behind a just-dispatched close drain.
			n.pipe.upRaw(run, src, tr, start)
			continue
		}
		n.pipe.up(ss, child, run, src, tr, start)
	}
	return false
}

// assignArrival allocates in-order arrival indices for a run from src (no
// tracker for residue of a fenced link). Router-only: assignment order must
// be arrival order.
func (n *node) assignArrival(src *transport.FlowLink, nPkts int) (*inOrder, uint64) {
	if src == nil {
		return nil, 0
	}
	t := n.ackTrack[src]
	if t == nil {
		t = &inOrder{}
		n.ackTrack[src] = t
	}
	return t, t.assign(nPkts)
}

// pipeUp runs the upstream pipeline for one run: synchronize, transform,
// egress. Called from the up-lane worker, the one goroutine that drives
// the stream's filters outside a quiesce. Replay duplicates are dropped
// first (retirement still counts them: the peer spent credits on the
// copies too), and the run's deferred retirement rides the last forwarded
// output — consuming it means the run is released only when the parent
// acknowledges those outputs.
func (n *node) pipeUp(ss *streamState, child int, run []*packet.Packet, ret pendRetire) bool {
	ss.sync.Offer(ss.syncSlot(child), ss.dropDups(run, n.m), ss.begin(true, ret))
	return ss.end()
}

// pipeUpRaw forwards a pass-through run (stream not carried here); the
// deferred retirement rides the last packet. The root has nowhere to
// forward it: the run is dropped, and the up lane retires it.
func (n *node) pipeUpRaw(run []*packet.Packet, ret pendRetire) bool {
	if n.rank == 0 {
		return false
	}
	for i, q := range run {
		if ret.src != nil && i == len(run)-1 {
			_ = n.parentOut.sendAck(q, true, ret)
		} else {
			_ = n.parentOut.send(q)
		}
	}
	return ret.src != nil && len(run) > 0
}

// pipeDownRaw floods an unknown-stream downstream packet to every child
// (reconfiguration window; flooding is always safe). Runs on the down-lane
// worker so a window-bounded child queue blocks the pipeline, never the
// router.
func (n *node) pipeDownRaw(p *packet.Packet) {
	for _, q := range n.childOut {
		if q != nil {
			_ = q.send(p)
		}
	}
}

// finish retires the pipeline (completing every dispatched item),
// drains every stream upward, flushes every egress queue, and closes the
// node's links. Called once all children have closed during shutdown, so
// the released batches are the final data of the run; the egress drain
// guarantees no packet is stranded in a queue when the links close.
func (n *node) finish() {
	n.pipe.drainStop()
	for _, ss := range n.streams {
		ss.drain(false) // router context: may overflow, never blocks
	}
	_ = n.parentOut.drain()
	for _, q := range n.childOut {
		_ = q.drain()
	}
	n.stopEgress()
	n.closeAll()
}

// stopEgress ends every egress queue's age clock: the router is exiting.
func (n *node) stopEgress() {
	n.parentOut.stop()
	for _, q := range n.childOut {
		q.stop()
	}
}

func (n *node) closeAll() {
	for _, l := range n.ep.Children {
		if l != nil {
			_ = l.Close()
		}
	}
	if n.ep.Parent != nil {
		_ = n.ep.Parent.Close()
	}
}
