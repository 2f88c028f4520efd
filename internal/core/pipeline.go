package core

import (
	"sync"
	"time"

	"repro/internal/packet"
	"repro/internal/transport"
)

// Each routing process (the front-end and every internal communication
// process) is split into a thin control-plane router and one filter
// pipeline, as in the paper, where a communication process runs its
// filters on one thread and parallelism comes from the tree: every rank is
// its own router.
//
//   - The ROUTER (node.run) keeps exclusive ownership of the
//     links and their reader goroutines, the streams table, control-packet
//     handling, attach/recovery commands, and per-link FIFO ingress order.
//     It never runs filters on data packets.
//
//   - The PIPELINE runs synchronizer → transformation → egress for every
//     stream of the process, consuming work from unbounded FIFO mailboxes
//     fed by the router in arrival order, so per-stream FIFO holds.
//
// The mailbox being unbounded is what keeps the router a pure control
// plane: dispatch never blocks, so control traffic (recovery commands,
// attach, credit grants) can never be head-of-line blocked behind a slow
// pipeline. Mailbox occupancy is still bounded —
// by the flow-control protocol rather than a channel capacity: each
// inbound link can have at most one window (Config.LinkWindow) of
// un-retired packets in the mailboxes, because the pipeline grants
// credits back only as it finishes items (see retire below).
//
// This is what makes a stream's filter state single-writer: the up-lane
// goroutine alone touches a streamState's filters — except inside
// quiesce, which parks both lanes at a barrier so the router (recovery
// snapshots, adoptions, shutdown) can touch everything alone, and after
// drainStop, once both lanes have exited.
//
// Egress queues are safe for concurrent use (their own mutex); FIFO within
// a queue is enqueue order, which keeps control packets behind data the
// router already accepted and per-stream data in order.

// pipeItem kinds. The pipeline runs TWO lanes — upstream and downstream —
// with independent workers, because the directions have no mutual
// ordering requirement and sharing one FIFO would couple them into a
// deadlock under flow control: a down-worker blocked on a slow consumer's
// window must never pin the upstream retirements that very consumer's
// sends are waiting for (the request-reply cycle).
const (
	itemUp        = iota // upstream data run through the stream's pipeline
	itemUpRaw            // upstream pass-through (stream unknown/closing at this node)
	itemDown             // downstream packet fanned out to the stream's children
	itemDownRaw          // downstream flood (stream unknown at this node)
	itemCloseUp          // drain the stream's synchronizer (up half of a close)
	itemCloseDown        // forward the close downstream behind prior down data
	itemRegister         // track a new stream for time-based polling
	itemPause            // park at the quiesce barrier until released
	itemStop             // graceful worker exit (drainStop)
)

// pipeItem is one unit of mailbox work.
type pipeItem struct {
	kind  int
	ss    *streamState
	child int
	ps    []*packet.Packet
	p     *packet.Packet
	pause *pipePause
	// src is the link the work arrived on (nil only for residue of a link
	// the router has since fenced): the worker retires the packets against
	// it once the pipeline has actually finished them, which is what hands
	// the peer its credits back.
	src *transport.FlowLink
	// tr/start are the run's in-order retirement tracker and first arrival
	// index (upstream lane only; tr is nil exactly when src is): retirement
	// toward src releases only the contiguous arrival prefix, so the
	// cumulative count in grants stays a true prefix acknowledgement of
	// src's replay ring.
	tr    *inOrder
	start uint64
}

// ret builds the run's deferred-retirement record for the pipeline ops;
// it retires nothing when the run has no source link.
func (it *pipeItem) ret() pendRetire {
	return pendRetire{src: it.src, tr: it.tr, start: it.start, n: len(it.ps)}
}

// pipePause is the two-phase quiesce rendezvous: the worker signals
// arrival, then blocks until the router releases the barrier.
type pipePause struct {
	arrived *sync.WaitGroup
	release chan struct{}
}

// pipeline runs the workers for one routing process n: an up-lane
// goroutine, the one owner of every stream's filters, and a down-lane
// goroutine that fans packets out unchanged and reads nothing of a stream
// but its atomic routing snapshot; so the filters take no lock. The
// up-lane ops take the run's deferred-retirement record and report
// whether they CONSUMED it — attached it to an egress packet whose
// downstream acknowledgement will complete it. An unconsumed record is
// retired by the lane immediately after the call.
type pipeline struct {
	n *node
	// upLane carries upstream pipeline work (plus stream bookkeeping);
	// downLane carries downstream fan-out work. Independent workers drain
	// them, so a down fan-out blocked on a slow consumer's window cannot pin
	// the upstream retirements that consumer's own sends wait for.
	upLane, downLane lane
	// streams tracks the live streams for time-based polling: registered at
	// stream creation, learned from dispatched work, and trimmed by close —
	// which the router dispatches behind all of the stream's work, so
	// nothing re-tracks a closed stream. Touched only by the up-lane
	// goroutine.
	streams map[uint32]*streamState
	// upPend / downPend track the links each lane retired against since its
	// last idle flush; when a lane's mailbox drains, the below-threshold
	// retirement accumulations on these links are granted back (see
	// flushGrant). Each set is touched only by its own lane goroutine.
	upPend, downPend map[*transport.FlowLink]struct{}
	// stop aborts both workers (crash path); drainStop uses sentinels
	// instead so queued work completes first.
	stop     chan struct{}
	stopOnce sync.Once
	wg       sync.WaitGroup
}

// lane is one unbounded FIFO mailbox. notify (capacity 1) wakes the
// lane's worker after a push; spurious wakeups are cheap and lost ones
// impossible (push always leaves either a token or a visible item).
type lane struct {
	mu     sync.Mutex
	q      []pipeItem // back on buf whenever it drains (see pop)
	buf    [8]pipeItem
	notify chan struct{}
	// qHW is the lane's high-water mark, mirrored into the global gauge
	// only on new records.
	qHW int
}

// newPipeline starts n's two pipeline workers.
func newPipeline(n *node) *pipeline {
	pl := &pipeline{
		n:        n,
		streams:  map[uint32]*streamState{},
		upPend:   map[*transport.FlowLink]struct{}{},
		downPend: map[*transport.FlowLink]struct{}{},
		stop:     make(chan struct{}),
	}
	pl.upLane.notify = make(chan struct{}, 1)
	pl.downLane.notify = make(chan struct{}, 1)
	pl.wg.Add(2)
	go pl.runUp()
	go pl.runDown()
	return pl
}

// push appends an item to the lane and wakes its worker. Never blocks:
// the lane is unbounded (see the package comment for why its occupancy
// is still bounded under flow control).
func (ln *lane) push(m *Metrics, it pipeItem) {
	ln.mu.Lock()
	ln.q = append(ln.q, it)
	n := len(ln.q)
	grew := n > ln.qHW
	if grew {
		ln.qHW = n
	}
	ln.mu.Unlock()
	if grew {
		raiseGauge(&m.ShardQueueHighWater, n)
	}
	select {
	case ln.notify <- struct{}{}:
	default:
	}
}

// pop removes the lane head.
func (ln *lane) pop() (pipeItem, bool) {
	ln.mu.Lock()
	if len(ln.q) == 0 {
		ln.mu.Unlock()
		return pipeItem{}, false
	}
	it := ln.q[0]
	ln.q[0] = pipeItem{}
	ln.q = ln.q[1:]
	if len(ln.q) == 0 {
		ln.q = ln.buf[:0] // a burst's heap array goes; the next round's pushes allocate nothing
	}
	ln.mu.Unlock()
	return it, true
}

// dispatch enqueues an item on its direction's lane. Pipeline work counts
// toward ShardDispatches; registration does not (pause and stop items are
// pushed onto the lanes directly).
func (pl *pipeline) dispatch(it pipeItem) {
	if it.kind != itemRegister {
		pl.n.m.ShardDispatches.Add(1)
	}
	switch it.kind {
	case itemDown, itemDownRaw, itemCloseDown:
		pl.downLane.push(pl.n.m, it)
	default:
		pl.upLane.push(pl.n.m, it)
	}
}

// up routes an upstream run through the up lane. The router never runs a
// pipeline itself: a pipeline may block on a link window, and the router
// must stay unblockable.
func (pl *pipeline) up(ss *streamState, child int, run []*packet.Packet, src *transport.FlowLink, tr *inOrder, start uint64) {
	pl.dispatch(pipeItem{kind: itemUp, ss: ss, child: child, ps: run, src: src, tr: tr, start: start})
}

// upRaw routes a pass-through run: it rides the same lane as a close's
// drain, so data arriving behind a close keeps its order relative to it.
func (pl *pipeline) upRaw(run []*packet.Packet, src *transport.FlowLink, tr *inOrder, start uint64) {
	pl.dispatch(pipeItem{kind: itemUpRaw, ps: run, src: src, tr: tr, start: start})
}

// down routes a downstream packet through the down lane.
func (pl *pipeline) down(ss *streamState, p *packet.Packet, src *transport.FlowLink) {
	pl.dispatch(pipeItem{kind: itemDown, ss: ss, p: p, src: src})
}

// downRaw routes an unknown-stream downstream flood through the down lane,
// keeping the router off the (possibly window-bounded) egress path.
func (pl *pipeline) downRaw(p *packet.Packet, src *transport.FlowLink) {
	pl.dispatch(pipeItem{kind: itemDownRaw, p: p, src: src})
}

// closeStream splits a close across the lanes — the synchronizer drain
// rides the up lane (behind every prior upstream run) and the downstream
// forward rides the down lane (behind every prior downstream packet); the
// halves carry no mutual ordering requirement.
func (pl *pipeline) closeStream(ss *streamState, p *packet.Packet) {
	pl.dispatch(pipeItem{kind: itemCloseUp, ss: ss})
	pl.dispatch(pipeItem{kind: itemCloseDown, ss: ss, p: p})
}

// closeStreamUp dispatches only the up half of a stream teardown, used by
// session bulk close and by the root: the synchronizer still drains behind
// every upstream run dispatched before it (same mailbox FIFO as
// closeStream), but no per-stream close is forwarded downstream — the
// single flooded opCloseSession packet that triggered this already carries
// the teardown to every child, and at the root Stream.Close and
// CloseSession queue the close onto the child queues themselves.
func (pl *pipeline) closeStreamUp(ss *streamState) {
	pl.dispatch(pipeItem{kind: itemCloseUp, ss: ss})
}

// register tracks a just-created stream for time-based polling, so a
// synchronizer window armed with the pipeline quiesced (adoption feeding
// composed state through it) fires even if no item ever reaches the worker.
func (pl *pipeline) register(ss *streamState) {
	pl.dispatch(pipeItem{kind: itemRegister, ss: ss})
}

// quiesce parks both lanes at a barrier — all work dispatched before the
// call fully processed, no polling — runs fn with the data plane stopped,
// then releases them. While fn runs the router's single goroutine is the
// only one touching filter state, which is what lets recovery snapshot
// and rebuild synchronizers, and shutdown propagation keep its exact FIFO
// position behind in-flight data.
func (pl *pipeline) quiesce(fn func()) {
	select {
	case <-pl.stop:
		fn() // aborted pipeline: the workers are gone, nothing to park
		return
	default:
	}
	var arrived sync.WaitGroup
	release := make(chan struct{})
	pause := &pipePause{arrived: &arrived, release: release}
	arrived.Add(2)
	pl.upLane.push(pl.n.m, pipeItem{kind: itemPause, pause: pause})
	pl.downLane.push(pl.n.m, pipeItem{kind: itemPause, pause: pause})
	arrived.Wait()
	fn()
	close(release)
}

// drainStop retires the workers gracefully: every item already dispatched
// is processed, then each worker exits. Only the owning router may call it
// (it must be the sole remaining dispatcher). The pipeline is marked
// stopped afterwards, which makes a later quiesce or abort a no-op.
func (pl *pipeline) drainStop() {
	pl.upLane.push(pl.n.m, pipeItem{kind: itemStop})
	pl.downLane.push(pl.n.m, pipeItem{kind: itemStop})
	pl.wg.Wait()
	pl.stopOnce.Do(func() { close(pl.stop) })
}

// abort stops the pipeline without draining (crash/kill paths) and waits
// for the workers to exit; in-flight egress sends fail fast because the
// owner's links are already severed. Idempotent, and a no-op after
// drainStop.
func (pl *pipeline) abort() {
	pl.stopOnce.Do(func() { close(pl.stop) })
	pl.wg.Wait()
}

// runUp is the up-lane worker loop: drain ready items, then wait for more
// work or the earliest synchronizer deadline among the tracked streams
// (all time-based polling lives on the up lane — synchronizer windows are
// upstream state). The fast-iteration cap bounds how long a busy mailbox
// can defer time-based releases, mirroring the router's loop discipline.
func (pl *pipeline) runUp() {
	defer pl.wg.Done()
	fast := 0
	for {
		if fast < 1024 {
			if it, ok := pl.upLane.pop(); ok {
				fast++
				if done := pl.handleUp(it); done {
					return
				}
				continue
			}
			// Mailbox drained: nothing further will push the lane's
			// retirement accumulations over the grant threshold, so return
			// them to the peers now (budget-limited senders may be waiting).
			pl.flushPend(pl.upPend)
			select {
			case <-pl.stop:
				return
			default:
			}
		}
		fast = 0
		var timer *time.Timer
		var timerC <-chan time.Time
		if d := pl.earliestDeadline(); !d.IsZero() {
			wait := time.Until(d)
			if wait <= 0 {
				pl.poll()
				continue
			}
			timer = time.NewTimer(wait)
			timerC = timer.C
		}
		select {
		case <-pl.upLane.notify:
			// New mailbox items: loop back and pop them.
			if timer != nil {
				timer.Stop()
			}
		case <-pl.stop:
			if timer != nil {
				timer.Stop()
			}
			return
		case <-timerC:
			pl.poll()
		}
	}
}

// runDown is the down-lane worker loop: pure FIFO over downstream
// fan-outs, no timers (the down lane holds no filter state).
func (pl *pipeline) runDown() {
	defer pl.wg.Done()
	for {
		if it, ok := pl.downLane.pop(); ok {
			if done := pl.handleDown(it); done {
				return
			}
			continue
		}
		// Mailbox drained: grant back the lane's below-threshold
		// retirements before sleeping (see runUp).
		pl.flushPend(pl.downPend)
		select {
		case <-pl.downLane.notify:
		case <-pl.stop:
			return
		}
	}
}

// retire hands the peer its credits back for n finished inbound packets
// (see retireAndGrant), remembering the link in the lane's pending set so
// an idle flush can return whatever accumulation stays below threshold.
func (pl *pipeline) retire(pend map[*transport.FlowLink]struct{}, fl *transport.FlowLink, n int) {
	if fl == nil || n == 0 {
		return
	}
	retireAndGrant(pl.n.m, fl, n)
	pend[fl] = struct{}{}
}

// retireOrdered retires an up-lane run whose deferred-retirement record
// the ops did not consume (the root, or a run that produced no upstream
// output): only the newly contiguous arrival prefix is released.
func (pl *pipeline) retireOrdered(pend map[*transport.FlowLink]struct{}, it pipeItem) {
	if it.src == nil {
		return
	}
	pl.retire(pend, it.src, it.tr.complete(it.start, len(it.ps)))
}

// flushPend grants back the below-threshold retirements accumulated on
// every link the lane touched since its last idle point.
func (pl *pipeline) flushPend(pend map[*transport.FlowLink]struct{}) {
	for fl := range pend {
		flushGrant(pl.n.m, fl)
		delete(pend, fl)
	}
}

// park holds a lane at the quiesce barrier until the router releases it.
func (pl *pipeline) park(pause *pipePause) {
	pause.arrived.Done()
	select {
	case <-pause.release:
	case <-pl.stop:
	}
}

// handleUp executes one up-lane item, returning true when the worker
// should exit. Once done, the item retires against its source link — the
// packets are finished only now, which is what makes the grant a
// statement about pipeline progress rather than queue occupancy.
func (pl *pipeline) handleUp(it pipeItem) bool {
	switch it.kind {
	case itemUp:
		pl.streams[it.ss.id] = it.ss
		if !pl.n.pipeUp(it.ss, it.child, it.ps, it.ret()) {
			pl.retireOrdered(pl.upPend, it)
		}
	case itemUpRaw:
		if !pl.n.pipeUpRaw(it.ps, it.ret()) {
			pl.retireOrdered(pl.upPend, it)
		}
	case itemCloseUp:
		// The up half of a teardown releases whatever the synchronizer
		// holds, so time-window policies do not lose data.
		delete(pl.streams, it.ss.id)
		it.ss.drain(true)
	case itemRegister:
		pl.streams[it.ss.id] = it.ss
	case itemPause:
		pl.park(it.pause)
	case itemStop:
		return true
	}
	return false
}

// handleDown executes one down-lane item: a stream's packet fans out to
// its participating children as it came.
func (pl *pipeline) handleDown(it pipeItem) bool {
	switch it.kind {
	case itemDown:
		pl.n.sendDownstream(it.ss, it.p.WithStream(it.ss.id))
		pl.retire(pl.downPend, it.src, 1)
	case itemDownRaw:
		pl.n.pipeDownRaw(it.p)
		pl.retire(pl.downPend, it.src, 1)
	case itemCloseDown:
		pl.n.sendDownstreamNow(it.ss, it.p)
	case itemPause:
		pl.park(it.pause)
	case itemStop:
		return true
	}
	return false
}

// poll releases every tracked stream's time-triggered rounds.
func (pl *pipeline) poll() {
	now := time.Now()
	for _, ss := range pl.streams {
		ss.sync.Poll(now, ss.begin(true, pendRetire{}))
		ss.end()
	}
}

func (pl *pipeline) earliestDeadline() time.Time {
	var d time.Time
	for _, ss := range pl.streams {
		dd := ss.sync.Deadline()
		if !dd.IsZero() && (d.IsZero() || dd.Before(d)) {
			d = dd
		}
	}
	return d
}
