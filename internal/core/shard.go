package core

import (
	"sync"
	"time"

	"repro/internal/packet"
	"repro/internal/transport"
)

// The stream-sharded data plane splits each routing process (the front-end
// and every internal communication process) into a thin control-plane
// router and a pool of per-stream pipeline shards:
//
//   - The ROUTER (node.run) keeps exclusive ownership of the
//     links and their reader goroutines, the streams table, control-packet
//     handling, attach/recovery commands, and per-link FIFO ingress order.
//     It never runs filters on data packets.
//
//   - Each SHARD owns the filter pipeline — synchronizer → transformation →
//     egress — for a fixed subset of streams (streams hash to shards by
//     stream id), consuming work from an unbounded FIFO mailbox fed by the
//     router. A stream's packets are always dispatched to the same shard in
//     arrival order, so per-stream FIFO is preserved while distinct streams
//     filter concurrently on distinct cores.
//
// The mailbox being unbounded is what keeps the router a pure control
// plane: dispatch never blocks, so control traffic (recovery commands,
// attach, heartbeat relays, credit grants) can never be head-of-line
// blocked behind a slow pipeline. Mailbox occupancy is still bounded —
// by the flow-control protocol rather than a channel capacity: each
// inbound link can have at most one window (Config.LinkWindow) of
// un-retired packets in the mailboxes, because the shard worker grants
// credits back only as it finishes items (see retire below).
//
// This is what makes a stream's filter state single-writer: exactly one
// shard goroutine touches a streamState's synchronizer and transformation —
// except inside quiesce, which parks every shard at a barrier so the router
// (recovery snapshots, adoptions, shutdown) can touch everything alone.
//
// Egress queues are shard-safe (their own mutex); FIFO within a queue is
// enqueue order, which keeps control packets behind data the router
// already accepted and per-stream data in order (single shard per stream).

// shardItem kinds. Each shard runs TWO lanes — upstream and downstream —
// with independent workers, because the directions have no mutual
// ordering requirement and sharing one FIFO would couple them into a
// deadlock under flow control: a down-worker blocked on a slow consumer's
// window must never pin the upstream retirements that very consumer's
// sends are waiting for (the request-reply cycle).
const (
	itemUp        = iota // upstream data run through the stream's pipeline
	itemUpRaw            // upstream pass-through (stream unknown/closing at this node)
	itemDown             // downstream packet through the stream's down-transform
	itemDownRaw          // downstream flood (stream unknown at this node)
	itemCloseUp          // drain the stream's synchronizer (up half of a close)
	itemCloseDown        // forward the close downstream behind prior down data
	itemRegister         // track a new stream for time-based polling
	itemPause            // park at the quiesce barrier until released
	itemStop             // graceful worker exit (drainStop)
)

// shardItem is one unit of mailbox work.
type shardItem struct {
	kind  int
	ss    *streamState
	child int
	ps    []*packet.Packet
	p     *packet.Packet
	pause *shardPause
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
func (it *shardItem) ret() pendRetire {
	return pendRetire{src: it.src, tr: it.tr, start: it.start, n: len(it.ps)}
}

// shardPause is the two-phase quiesce rendezvous: the worker signals
// arrival, then blocks until the router releases the barrier.
type shardPause struct {
	arrived *sync.WaitGroup
	release chan struct{}
}

// shardPool runs the pipeline workers for one routing process n. Each
// stream's work arrives from exactly one up-lane goroutine and one
// down-lane goroutine; n's pipeline ops take the stream's pipeMu around
// their filter-state access themselves (never across a blocking egress
// fan-out), which is what lets the two lanes share a stream safely. The
// up-lane ops take the run's deferred-retirement record and report whether
// they CONSUMED it — attached it to an egress packet whose downstream
// acknowledgement will complete it. An unconsumed record is retired by the
// shard immediately after the call.
type shardPool struct {
	n      *node
	m      *Metrics
	shards []*shard
	// stop aborts every worker (crash path); drainStop uses per-shard
	// sentinels instead so queued work completes first.
	stop     chan struct{}
	stopOnce sync.Once
	wg       sync.WaitGroup
}

// lane is one unbounded FIFO mailbox. notify (capacity 1) wakes the
// lane's worker after a push; spurious wakeups are cheap and lost ones
// impossible (push always leaves either a token or a visible item).
type lane struct {
	mu     sync.Mutex
	q      []shardItem // back on buf whenever it drains (see pop)
	buf    [8]shardItem
	notify chan struct{}
	// qHW is the lane's high-water mark, mirrored into the global gauge
	// only on new records.
	qHW int
}

type shard struct {
	pool *shardPool
	// up carries upstream pipeline work (plus stream bookkeeping); down
	// carries downstream fan-out work. Independent workers drain them, so
	// a down fan-out blocked on a slow consumer's window cannot pin the
	// upstream retirements that consumer's own sends wait for.
	up, down lane
	// streams tracks the shard's live streams for time-based polling:
	// registered at stream creation, learned from dispatched work, and
	// trimmed by close — which the router dispatches behind all of the
	// stream's work, so nothing re-tracks a closed stream. Touched only by
	// the up-lane goroutine.
	streams map[uint32]*streamState
	// upPend / downPend track the links each lane retired against since its
	// last idle flush; when a lane's mailbox drains, the below-threshold
	// retirement accumulations on these links are granted back (see
	// flushGrant). Each set is touched only by its own lane goroutine.
	upPend, downPend map[*transport.FlowLink]struct{}
}

// newShardPool starts count pipeline workers for n. count < 1 is treated
// as 1.
func newShardPool(count int, n *node) *shardPool {
	if count < 1 {
		count = 1
	}
	sp := &shardPool{n: n, m: &n.nw.metrics, stop: make(chan struct{})}
	for i := 0; i < count; i++ {
		sh := &shard{
			pool:     sp,
			streams:  map[uint32]*streamState{},
			upPend:   map[*transport.FlowLink]struct{}{},
			downPend: map[*transport.FlowLink]struct{}{},
		}
		sh.up.notify = make(chan struct{}, 1)
		sh.down.notify = make(chan struct{}, 1)
		sp.shards = append(sp.shards, sh)
		sp.wg.Add(2)
		go sh.runUp()
		go sh.runDown()
	}
	return sp
}

// shardFor maps a stream id to its shard. The mapping is pure, so a
// stream's shard is stable for the life of the process — the property that
// makes per-stream FIFO hold without any cross-shard coordination.
func (sp *shardPool) shardFor(id uint32) *shard {
	h := id * 2654435761 // Fibonacci hash: stream ids are sequential
	return sp.shards[h%uint32(len(sp.shards))]
}

// push appends an item to the lane and wakes its worker. Never blocks:
// the lane is unbounded (see the package comment for why its occupancy
// is still bounded under flow control).
func (ln *lane) push(m *Metrics, it shardItem) {
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
func (ln *lane) pop() (shardItem, bool) {
	ln.mu.Lock()
	if len(ln.q) == 0 {
		ln.mu.Unlock()
		return shardItem{}, false
	}
	it := ln.q[0]
	ln.q[0] = shardItem{}
	ln.q = ln.q[1:]
	if len(ln.q) == 0 {
		ln.q = ln.buf[:0] // a burst's heap array goes; the next round's pushes allocate nothing
	}
	ln.mu.Unlock()
	return it, true
}

// laneFor routes an item kind to its lane.
func (sh *shard) laneFor(kind int) *lane {
	switch kind {
	case itemDown, itemDownRaw, itemCloseDown:
		return &sh.down
	}
	return &sh.up
}

// dispatch enqueues an item on its direction's lane. Pipeline work counts
// toward ShardDispatches; bookkeeping items (register/pause/stop) do not.
func (sp *shardPool) dispatch(sh *shard, it shardItem) {
	switch it.kind {
	case itemUp, itemUpRaw, itemDown, itemDownRaw, itemCloseUp, itemCloseDown:
		sp.m.ShardDispatches.Add(1)
	}
	sh.laneFor(it.kind).push(sp.m, it)
}

// up routes an upstream run through the stream's shard mailbox. The
// router never runs a pipeline itself: a pipeline may block on a link
// window, and the router must stay unblockable.
func (sp *shardPool) up(ss *streamState, child int, run []*packet.Packet, src *transport.FlowLink, tr *inOrder, start uint64) {
	sp.dispatch(sp.shardFor(ss.id), shardItem{kind: itemUp, ss: ss, child: child, ps: run, src: src, tr: tr, start: start})
}

// upRaw routes a pass-through run by stream id alone: the id hashes to the
// same shard that carried the stream while it existed, so data arriving
// behind a close keeps its order relative to the close's drain (the close
// it chases rides the same mailbox).
func (sp *shardPool) upRaw(id uint32, run []*packet.Packet, src *transport.FlowLink, tr *inOrder, start uint64) {
	sp.dispatch(sp.shardFor(id), shardItem{kind: itemUpRaw, ps: run, src: src, tr: tr, start: start})
}

// down routes a downstream packet through the stream's shard mailbox.
func (sp *shardPool) down(ss *streamState, p *packet.Packet, src *transport.FlowLink) {
	sp.dispatch(sp.shardFor(ss.id), shardItem{kind: itemDown, ss: ss, p: p, src: src})
}

// downRaw routes an unknown-stream downstream flood through the id's
// shard, keeping the router off the (possibly window-bounded) egress path.
func (sp *shardPool) downRaw(id uint32, p *packet.Packet, src *transport.FlowLink) {
	sp.dispatch(sp.shardFor(id), shardItem{kind: itemDownRaw, p: p, src: src})
}

// closeStream splits a close across the lanes — the synchronizer drain rides the up lane (behind every
// prior upstream run) and the downstream forward rides the down lane
// (behind every prior downstream packet); the halves carry no mutual
// ordering requirement.
func (sp *shardPool) closeStream(ss *streamState, p *packet.Packet) {
	sh := sp.shardFor(ss.id)
	sp.dispatch(sh, shardItem{kind: itemCloseUp, ss: ss})
	sp.dispatch(sh, shardItem{kind: itemCloseDown, ss: ss, p: p})
}

// closeStreamUp dispatches only the up half of a stream teardown, used by
// session bulk close and by the root: the synchronizer still drains behind
// every upstream run dispatched before it (same mailbox FIFO as
// closeStream), but no per-stream close is forwarded downstream — the
// single flooded opCloseSession packet that triggered this already carries
// the teardown to every child, and at the root Stream.Close and
// CloseSession queue the close onto the child queues themselves.
func (sp *shardPool) closeStreamUp(ss *streamState) {
	sp.dispatch(sp.shardFor(ss.id), shardItem{kind: itemCloseUp, ss: ss})
}

// register tracks a just-created stream for time-based polling, so a
// synchronizer window armed with the shards quiesced (adoption replaying
// composed state) fires even if no item ever reaches the worker.
func (sp *shardPool) register(ss *streamState) {
	sp.dispatch(sp.shardFor(ss.id), shardItem{kind: itemRegister, ss: ss})
}

// quiesce parks every shard at a barrier — all work dispatched before the
// call fully processed, no polling — runs fn with the data plane stopped,
// then releases the shards. While fn runs the router's single goroutine is
// the only one touching filter state, which is what lets recovery snapshot
// and rebuild synchronizers, and shutdown propagation keep its exact FIFO
// position behind in-flight data.
func (sp *shardPool) quiesce(fn func()) {
	select {
	case <-sp.stop:
		fn() // aborted pool: the workers are gone, nothing to park
		return
	default:
	}
	var arrived sync.WaitGroup
	release := make(chan struct{})
	pause := &shardPause{arrived: &arrived, release: release}
	for _, sh := range sp.shards {
		arrived.Add(2)
		sh.up.push(sp.m, shardItem{kind: itemPause, pause: pause})
		sh.down.push(sp.m, shardItem{kind: itemPause, pause: pause})
	}
	arrived.Wait()
	fn()
	close(release)
}

// drainStop retires the workers gracefully: every item already dispatched
// is processed, then each worker exits. Only the owning router may call it
// (it must be the sole remaining dispatcher). The pool is marked stopped
// afterwards, which makes a later quiesce or abort a no-op.
func (sp *shardPool) drainStop() {
	for _, sh := range sp.shards {
		sh.up.push(sp.m, shardItem{kind: itemStop})
		sh.down.push(sp.m, shardItem{kind: itemStop})
	}
	sp.wg.Wait()
	sp.stopOnce.Do(func() { close(sp.stop) })
}

// abort stops the pool without draining (crash/kill paths) and waits for
// the workers to exit; in-flight egress sends fail fast because the
// owner's links are already severed. Idempotent, and a no-op after
// drainStop.
func (sp *shardPool) abort() {
	sp.stopOnce.Do(func() { close(sp.stop) })
	sp.wg.Wait()
}

// runUp is the up-lane worker loop: drain ready items, then wait for more
// work or the earliest synchronizer deadline among this shard's streams
// (all time-based polling lives on the up lane — synchronizer windows are
// upstream state). The fast-iteration cap bounds how long a busy mailbox
// can defer time-based releases, mirroring the router's loop discipline.
func (sh *shard) runUp() {
	defer sh.pool.wg.Done()
	fast := 0
	for {
		if fast < 1024 {
			if it, ok := sh.up.pop(); ok {
				fast++
				if done := sh.handleUp(it); done {
					return
				}
				continue
			}
			// Mailbox drained: nothing further will push the lane's
			// retirement accumulations over the grant threshold, so return
			// them to the peers now (budget-limited senders may be waiting).
			sh.flushPend(sh.upPend)
			select {
			case <-sh.pool.stop:
				return
			default:
			}
		}
		fast = 0
		var timer *time.Timer
		var timerC <-chan time.Time
		if d := sh.earliestDeadline(); !d.IsZero() {
			wait := time.Until(d)
			if wait <= 0 {
				sh.poll()
				continue
			}
			timer = time.NewTimer(wait)
			timerC = timer.C
		}
		select {
		case <-sh.up.notify:
			// New mailbox items: loop back and pop them.
			if timer != nil {
				timer.Stop()
			}
		case <-sh.pool.stop:
			if timer != nil {
				timer.Stop()
			}
			return
		case <-timerC:
			sh.poll()
		}
	}
}

// runDown is the down-lane worker loop: pure FIFO over downstream
// fan-outs, no timers (downstream filters hold no windowed state).
func (sh *shard) runDown() {
	defer sh.pool.wg.Done()
	for {
		if it, ok := sh.down.pop(); ok {
			if done := sh.handleDown(it); done {
				return
			}
			continue
		}
		// Mailbox drained: grant back the lane's below-threshold
		// retirements before sleeping (see runUp).
		sh.flushPend(sh.downPend)
		select {
		case <-sh.down.notify:
		case <-sh.pool.stop:
			return
		}
	}
}

// retire hands the peer its credits back for n finished inbound packets
// (see retireAndGrant), remembering the link in the lane's pending set so
// an idle flush can return whatever accumulation stays below threshold.
func (sh *shard) retire(pend map[*transport.FlowLink]struct{}, fl *transport.FlowLink, n int) {
	if fl == nil || n == 0 {
		return
	}
	retireAndGrant(sh.pool.m, fl, n)
	pend[fl] = struct{}{}
}

// retireOrdered retires an up-lane run whose deferred-retirement record
// the ops did not consume (the root, or a run that produced no upstream
// output): only the newly contiguous arrival prefix is released.
func (sh *shard) retireOrdered(pend map[*transport.FlowLink]struct{}, it shardItem) {
	if it.src == nil {
		return
	}
	sh.retire(pend, it.src, it.tr.complete(it.start, len(it.ps)))
}

// flushPend grants back the below-threshold retirements accumulated on
// every link the lane touched since its last idle point.
func (sh *shard) flushPend(pend map[*transport.FlowLink]struct{}) {
	for fl := range pend {
		flushGrant(sh.pool.m, fl)
		delete(pend, fl)
	}
}

// handleUp executes one up-lane item, returning true when the worker
// should exit. The ops take the stream's pipeline lock internally; once
// done, the item retires against its source link — the packets are
// finished only now, which is what makes the grant a statement about
// pipeline progress rather than queue occupancy.
func (sh *shard) handleUp(it shardItem) bool {
	switch it.kind {
	case itemUp:
		sh.streams[it.ss.id] = it.ss
		if !sh.pool.n.shardUp(it.ss, it.child, it.ps, it.ret()) {
			sh.retireOrdered(sh.upPend, it)
		}
	case itemUpRaw:
		if !sh.pool.n.shardUpRaw(it.ps, it.ret()) {
			sh.retireOrdered(sh.upPend, it)
		}
	case itemCloseUp:
		delete(sh.streams, it.ss.id)
		sh.pool.n.shardCloseUp(it.ss)
	case itemRegister:
		sh.streams[it.ss.id] = it.ss
	case itemPause:
		it.pause.arrived.Done()
		select {
		case <-it.pause.release:
		case <-sh.pool.stop:
		}
	case itemStop:
		return true
	}
	return false
}

// handleDown executes one down-lane item.
func (sh *shard) handleDown(it shardItem) bool {
	switch it.kind {
	case itemDown:
		sh.pool.n.shardDown(it.ss, it.p)
		sh.retire(sh.downPend, it.src, 1)
	case itemDownRaw:
		sh.pool.n.shardDownRaw(it.p)
		sh.retire(sh.downPend, it.src, 1)
	case itemCloseDown:
		sh.pool.n.shardCloseDown(it.ss, it.p)
	case itemPause:
		it.pause.arrived.Done()
		select {
		case <-it.pause.release:
		case <-sh.pool.stop:
		}
	case itemStop:
		return true
	}
	return false
}

func (sh *shard) poll() {
	now := time.Now()
	for _, ss := range sh.streams {
		sh.pool.n.shardPoll(ss, now)
	}
}

func (sh *shard) earliestDeadline() time.Time {
	var d time.Time
	for _, ss := range sh.streams {
		ss.pipeMu.Lock()
		dd := ss.deadline()
		ss.pipeMu.Unlock()
		if !dd.IsZero() && (d.IsZero() || dd.Before(d)) {
			d = dd
		}
	}
	return d
}
