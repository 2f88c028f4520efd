package core

import (
	"errors"
	"fmt"
	"sync"
	"time"

	"repro/internal/filter"
	"repro/internal/packet"
	"repro/internal/transport"
)

// This file implements the live half of the paper's companion reliability
// model (Arnold & Miller, "Zero-cost reliability for tree-based overlay
// networks") on a running Network:
//
//   - fault injection: Kill crashes any non-root process, severing its
//     links abruptly so neighbors observe the failure exactly as they
//     would a real crash;
//   - failure detection feed: every non-root process emits periodic
//     heartbeat control packets that relay to the front-end, where
//     internal/recovery's detector watches for silence;
//   - live reconfiguration: Adopt applies the grandparent-adoption rule in
//     place — orphans are re-linked under the failed node's parent, stream
//     routing and synchronizer child counts are rebuilt, streams are
//     re-announced into adopted subtrees, and the lost node's composable
//     filter state is reconstructed from the orphans' snapshots.

// StateComposer rebuilds a failed node's per-stream filter state from its
// surviving children's snapshots (internal/recovery supplies
// reliability.ComposeStates here). children is ordered like the adoption's
// orphan list; entries are empty for children without state. A nil result
// with nil error means "nothing to restore" (e.g. a stateless filter).
type StateComposer func(streamID uint32, transformation string, children [][]byte) ([]byte, error)

// Adoption reports what a live recovery did.
type Adoption struct {
	// Failed is the crashed process (original numbering, like all ranks
	// on a live network).
	Failed Rank
	// NewParent is the adopter: the failed process's parent.
	NewParent Rank
	// Orphans are the failed process's surviving children, now re-linked
	// under NewParent.
	Orphans []Rank
	// StreamsComposed counts streams whose lost filter state was
	// reconstructed by composition.
	StreamsComposed int
	// Rewire is the time spent reconfiguring the running overlay.
	Rewire time.Duration
}

// ErrNotRecoverable reports an Adopt call the live engine cannot honor.
var ErrNotRecoverable = errors.New("core: failure not recoverable")

// nodeCmd is a recovery command delivered into a node's event loop.
type nodeCmd interface{ isNodeCmd() }

// cmdSnapshot asks a node for its per-stream composable filter state.
type cmdSnapshot struct {
	reply chan map[uint32][]byte
}

// cmdAdopt installs orphan links as new child slots and rebuilds stream
// routing/synchronizers from a fresh slot snapshot.
type cmdAdopt struct {
	deadSlot int // the failed child's slot, fenced off (-1 none)
	// vacated lists further child slots to fence off: a split migrated
	// those children to the new sibling, so the donor must stop routing to
	// them (SplitNode). Unlike deadSlot the children are alive — just
	// elsewhere — which is why the fence rides the same adoption machinery
	// that handles a dead child's slot.
	vacated  []int
	slots    []int            // child slot index per new link
	links    []transport.Link // parent-side ends, index-aligned with slots
	slotInfo []slotInfo       // full refreshed slot snapshot for the adopter
	composed map[uint32][]byte
	reply    chan error
}

// reparentReq hands an orphaned back-end the rendezvous of its
// replacement parent link (the back-end analogue of cmdReparent).
type reparentReq struct {
	rw   transport.Rewirer
	addr string
}

// cmdReparent hands an orphaned node the rendezvous of its replacement
// parent link; the orphan redials it from inside its own event loop (the
// fabric-agnostic half of the rewiring protocol: the adopter listens, the
// orphan redials).
type cmdReparent struct {
	rw    transport.Rewirer
	addr  string
	reply chan error
}

// cmdCheckpoint asks a node to checkpoint its per-stream composable filter
// state upstream (opCheckpoint control packets, cached ckptHops levels up
// at its potential adopters). Replies with the number of streams
// checkpointed.
type cmdCheckpoint struct {
	reply chan int
}

// cmdFetchCkpt reads the node's cached checkpoint blobs for one (failed)
// descendant rank, for adoption-time composition.
type cmdFetchCkpt struct {
	rank  Rank
	reply chan map[uint32][]byte
}

func (*cmdSnapshot) isNodeCmd()   {}
func (*cmdAdopt) isNodeCmd()      {}
func (*cmdReparent) isNodeCmd()   {}
func (*cmdCheckpoint) isNodeCmd() {}
func (*cmdFetchCkpt) isNodeCmd()  {}

// handleCmd executes a recovery command inside the node's event loop.
// Commands that read or rebuild filter state park the pipeline shards
// first (quiesce): the snapshot must be a consistent cut, and the adoption
// rebuilds synchronizers the workers otherwise own single-writer.
func (n *node) handleCmd(c nodeCmd, inbox chan inMsg) {
	switch cmd := c.(type) {
	case *cmdSnapshot:
		cmd.reply <- n.snapshotFilterState()
	case *cmdAdopt:
		states := make([]*streamState, 0, len(n.streams))
		for _, ss := range n.streams {
			states = append(states, ss)
		}
		// The dead child's EOF may still be queued behind data: release any
		// worker waiting on its window NOW, or it never reaches the quiesce
		// barrier below. Vacated (split-migrated) slots get the same
		// treatment — their links are about to be fenced too.
		if cmd.deadSlot >= 0 && cmd.deadSlot < len(n.childOut) {
			n.childOut[cmd.deadSlot].releaseWaiters()
		}
		for _, s := range cmd.vacated {
			if s >= 0 && s < len(n.childOut) {
				n.childOut[s].releaseWaiters()
			}
		}
		n.quiesceShards(func() {
			applyAdoption(cmd, n.ep, n.nw.registry, n.installChild, states, n.flushBatches, inbox, n.ctrlLane, n.readStop)
			n.redispatchStash(cmd.slots)
		})
		n.liveChildren += len(cmd.links)
		if n.shuttingDown {
			down := packet.MustNew(packet.TagControl, 0, n.rank, ctrlShutdownFormat, int64(opShutdown))
			for _, l := range cmd.links {
				_ = l.Send(down)
			}
		}
		cmd.reply <- nil
	case *cmdReparent:
		link, err := cmd.rw.Redial(cmd.addr)
		if err != nil {
			// Redial failed: stay orphaned and await another adoption.
			cmd.reply <- err
			return
		}
		// Fresh link, fresh credit window on both sides: the retained egress
		// queue re-enters the bounded window from zero without
		// double-spending credits.
		link = transport.NewFlowLink(link, n.nw.cfg.LinkWindow)
		// The old parent is dead or being replaced, but its EOF may not
		// have been processed yet: release any worker waiting on its
		// window before quiescing, or the barrier never forms.
		n.parentOut.releaseWaiters()
		// Park the shards for the link swap: workers send on parentOut
		// concurrently, so every link mutation happens with the data plane
		// stopped.
		n.quiesceShards(func() {
			n.parentMu.Lock()
			old := n.ep.Parent
			n.ep.Parent = link
			n.parentMu.Unlock()
			transport.DropLink(old) // usually already dead; fences false positives
			n.parentGen++
			n.orphaned = false
			// Repoint the upstream egress queue, re-flushing any packets it
			// retained while the old parent was dead: accepted-but-unflushed
			// data survives the failure instead of being lost with the link.
			n.parentOut.setLink(link)
		})
		go readLink(link, -1, inbox, n.ctrlLane, n.readStop)
		cmd.reply <- nil
	case *cmdCheckpoint:
		// Snapshot under quiesce (a consistent cut of every stream's filter
		// state), send outside it: sendNow keeps control FIFO behind queued
		// data without waiting out a batching window.
		blobs := n.snapshotFilterState()
		if !n.orphaned {
			for id, blob := range blobs {
				_ = n.parentOut.sendNow(ckptPacket(n.rank, id, ckptHops, blob))
			}
		}
		if len(blobs) > 0 {
			n.nw.metrics.CheckpointsTaken.Add(int64(len(blobs)))
		}
		cmd.reply <- len(blobs)
	case *cmdFetchCkpt:
		out := make(map[uint32][]byte, len(n.ckpts[cmd.rank]))
		for id, b := range n.ckpts[cmd.rank] {
			out[id] = b
		}
		cmd.reply <- out
	}
}

// snapshotFilterState returns every stream's composable filter state, cut
// consistently with the shards quiesced.
func (n *node) snapshotFilterState() map[uint32][]byte {
	blobs := map[uint32][]byte{}
	n.quiesceShards(func() {
		for id, ss := range n.streams {
			if st, ok := ss.tform.(filter.StatefulTransformation); ok {
				if blob, err := st.State(); err == nil && len(blob) > 0 {
					blobs[id] = blob
				}
			}
		}
	})
	return blobs
}

// redispatchStash re-routes a fenced dead child's never-sent queued
// packets through the repaired stream table: they were destined for the
// dead child's subtree, whose members are now reachable through the newly
// adopted slots. Runs under quiesce right after applyAdoption; sends are
// router-context (non-blocking) so recovery never wedges on a full window.
func (n *node) redispatchStash(slots []int) {
	if len(n.reroute) == 0 {
		return
	}
	stash := n.reroute
	n.reroute = nil
	for _, p := range stash {
		ss := n.streams[p.StreamID]
		if ss == nil {
			continue
		}
		down := ss.routeSnapshot()
		for _, slot := range slots {
			if slot < len(down) && down[slot] && slot < len(n.childOut) && n.childOut[slot] != nil {
				_ = n.childOut[slot].sendCtx(p, ss.prio, false)
			}
		}
	}
}

// applyAdoption runs the adoption sequence shared by internal nodes and
// the front-end: fence the declared-dead child off (even a false positive
// — alive but silent — must not keep feeding this node), install the new
// child links, start their readers, and repair every stream. The readers
// start before stream repair so both link directions drain while
// announcements are sent — their packets are only processed after the
// command completes, once routing is rebuilt. Callers run this with their
// pipeline shards quiesced (it mutates child slots and synchronizer state
// the shards otherwise own) and keep their own bookkeeping (live-child
// counts, shutdown racing) around it.
func applyAdoption(c *cmdAdopt, ep *transport.Endpoint, reg *filter.Registry,
	install func(slot int, l transport.Link), states []*streamState,
	flush func(*streamState, [][]*packet.Packet), inbox chan inMsg,
	ctrl chan *packet.Packet, readStop <-chan struct{}) {
	if c.deadSlot >= 0 && c.deadSlot < len(ep.Children) {
		transport.DropLink(ep.Children[c.deadSlot])
		install(c.deadSlot, nil)
	}
	for _, s := range c.vacated {
		if s >= 0 && s < len(ep.Children) {
			transport.DropLink(ep.Children[s])
			install(s, nil)
		}
	}
	for i, l := range c.links {
		install(c.slots[i], l)
	}
	for i, l := range c.links {
		go readLink(l, c.slots[i], inbox, ctrl, readStop)
	}
	repairStreams(reg, states, c, flush)
}

// repairStreams applies an adoption to every stream at the adopter:
// rebuild slot routing and synchronization, re-announce the stream into
// the adopted subtrees, and restore the lost level's composable filter
// state — by replay through the normal pipeline when the filter supports
// it (also regenerating information lost in flight), else by a silent
// state absorb.
func repairStreams(reg *filter.Registry, states []*streamState, c *cmdAdopt,
	flush func(*streamState, [][]*packet.Packet)) {
	for _, ss := range states {
		// Rounds that were only gated on the dead slot complete now —
		// flush them first, they are the oldest data.
		if released := ss.rebuildSlots(c.slotInfo); len(released) > 0 {
			flush(ss, released)
		}
		announceStream(ss, c.slots, c.links)
		if batch := replayComposed(ss, c.composed); batch != nil {
			flush(ss, [][]*packet.Packet{batch})
		} else {
			absorbComposed(reg, ss, c.composed)
		}
	}
}

// announceStream re-establishes a stream in newly adopted subtrees: the
// opNewStream control message is replayed on each new child link whose
// subtree carries members. Nodes that already know the stream ignore the
// replay, so this only repairs state lost with the failed node.
func announceStream(ss *streamState, slots []int, links []transport.Link) {
	down := ss.routeSnapshot()
	for i, slot := range slots {
		if slot < len(down) && down[slot] {
			_ = links[i].Send(ss.announcePacket())
		}
	}
}

// stateMerger matches reliability.Merger structurally, avoiding a core →
// reliability dependency: stateful filters that can absorb a sibling
// instance's state implement it (e.g. the eqclass filter).
type stateMerger interface {
	MergeState(other filter.StatefulTransformation) error
}

// stateReplayer is implemented by stateful filters that can turn a state
// snapshot back into data packets. During adoption the composed lost state
// is replayed through the adopter's normal filter pipeline, which both
// absorbs it and re-forwards upstream any information that was in flight
// with the failed node when it crashed — the strongest form of the
// zero-cost repair.
type stateReplayer interface {
	ReplayState(state []byte) ([]*packet.Packet, error)
}

// replayComposed converts ss's composed lost state into a batch to feed
// through the adopter's pipeline, or nil when the filter cannot replay
// (callers then fall back to a silent absorb via absorbComposed).
func replayComposed(ss *streamState, composed map[uint32][]byte) []*packet.Packet {
	blob := composed[ss.id]
	if len(blob) == 0 {
		return nil
	}
	r, ok := ss.tform.(stateReplayer)
	if !ok {
		return nil
	}
	pkts, err := r.ReplayState(blob)
	if err != nil || len(pkts) == 0 {
		return nil
	}
	for i, p := range pkts {
		pkts[i] = p.WithStream(ss.id)
	}
	return pkts
}

// absorbComposed merges a reconstructed (composed) filter state for ss into
// the adopter's own filter instance, so suppression/accumulation semantics
// survive the failed level's disappearance.
func absorbComposed(reg *filter.Registry, ss *streamState, composed map[uint32][]byte) {
	blob := composed[ss.id]
	if len(blob) == 0 {
		return
	}
	m, ok := ss.tform.(stateMerger)
	if !ok {
		return
	}
	nt, err := reg.NewTransformation(ss.tformName)
	if err != nil {
		return
	}
	scratch, ok := nt.(filter.StatefulTransformation)
	if !ok {
		return
	}
	if err := scratch.SetState(blob); err != nil {
		return
	}
	_ = m.MergeState(scratch)
}

// tearingDown reports whether network teardown has begun.
func (nw *Network) tearingDown() bool {
	select {
	case <-nw.dying:
		return true
	default:
		return false
	}
}

// Transport returns the network's link substrate kind.
func (nw *Network) Transport() TransportKind { return nw.cfg.Transport }

// HeartbeatPeriod returns the configured failure-detection beacon period
// (zero when heartbeats are disabled).
func (nw *Network) HeartbeatPeriod() time.Duration { return nw.cfg.HeartbeatPeriod }

// Registry returns the filter registry the overlay instantiates from.
func (nw *Network) Registry() *filter.Registry { return nw.registry }

// cacheCheckpoint records a descendant's filter-state checkpoint observed
// at the front-end — the adopter when one of the root's own children dies.
func (nw *Network) cacheCheckpoint(p *packet.Packet) {
	origin, id, _, blob, err := parseCheckpoint(p)
	if err != nil {
		return
	}
	nw.ckptMu.Lock()
	if nw.ckpts == nil {
		nw.ckpts = map[Rank]map[uint32][]byte{}
	}
	m := nw.ckpts[origin]
	if m == nil {
		m = map[uint32][]byte{}
		nw.ckpts[origin] = m
	}
	m[id] = blob
	nw.ckptMu.Unlock()
}

// CheckpointNow asks every internal node to checkpoint its per-stream
// composable filter state toward its potential adopters, returning the
// number of (node, stream) checkpoints taken. internal/recovery drives
// this periodically (Config.CheckpointPeriod); tests call it directly.
func (nw *Network) CheckpointNow() int {
	nw.mu.Lock()
	nodes := make([]*node, 0, len(nw.byRank))
	for _, n := range nw.byRank {
		nodes = append(nodes, n)
	}
	nw.mu.Unlock()
	total := 0
	for _, n := range nodes {
		c := &cmdCheckpoint{reply: make(chan int, 1)}
		if err := nw.sendNodeCmd(n, c); err == nil {
			total += <-c.reply
		}
	}
	return total
}

// noteHeartbeat records a liveness beacon observed at the front-end.
func (nw *Network) noteHeartbeat(origin Rank) {
	nw.metrics.HeartbeatsSeen.Add(1)
	nw.hbMu.Lock()
	nw.lastHB[origin] = time.Now()
	nw.hbMu.Unlock()
}

// Heartbeats snapshots the last time each rank's beacon reached the
// front-end. Ranks that have never been heard from are absent.
func (nw *Network) Heartbeats() map[Rank]time.Time {
	nw.hbMu.Lock()
	defer nw.hbMu.Unlock()
	out := make(map[Rank]time.Time, len(nw.lastHB))
	for r, t := range nw.lastHB {
		out[r] = t
	}
	return out
}

// beaconLoop runs emit every period until the network tears down or stop
// closes: the one ticker loop behind heartbeats and load reports. Both are
// lossy-safe and order-free, so an emit that fails (a dead parent,
// pre-adoption) is simply retried on the next tick.
func (nw *Network) beaconLoop(period time.Duration, stop <-chan struct{}, emit func()) {
	t := time.NewTicker(period)
	defer t.Stop()
	for {
		select {
		case <-nw.dying:
			return
		case <-stop:
			return
		case <-t.C:
			emit()
		}
	}
}

// heartbeatLoop periodically emits this rank's liveness beacon on its
// current parent link, until network teardown or the rank is killed.
func (nw *Network) heartbeatLoop(origin Rank, link func() transport.Link, stop <-chan struct{}) {
	nw.beaconLoop(nw.cfg.HeartbeatPeriod, stop, func() {
		if l := link(); l != nil {
			if err := l.Send(heartbeatPacket(origin)); err == nil {
				nw.metrics.HeartbeatsSent.Add(1)
			}
		}
	})
}

// Kill injects a crash fault: the process at rank is terminated without
// warning and all its links are severed abruptly (in-flight packets lost),
// on both the chan and TCP fabrics. The overlay is left running with a
// hole; pair with Adopt (or internal/recovery's manager) to repair it.
func (nw *Network) Kill(r Rank) error {
	if r == 0 {
		return fmt.Errorf("%w: the front-end cannot be killed", ErrNotRecoverable)
	}
	nw.mu.Lock()
	if nw.shutdown {
		nw.mu.Unlock()
		return ErrShutdown
	}
	n := nw.byRank[r]
	be := nw.bes[r]
	nw.mu.Unlock()
	if n == nil && be == nil {
		return fmt.Errorf("core: no such rank %d", r)
	}
	nw.metrics.NodesFailed.Add(1)
	if be != nil {
		be.kill()
	} else {
		n.kill()
	}
	return nil
}

// sendNodeCmd delivers a command to a node's event loop, failing rather
// than deadlocking if the node is dead or the network is tearing down.
func (nw *Network) sendNodeCmd(n *node, c nodeCmd) error {
	select {
	case n.cmdCh <- c:
		return nil
	case <-n.killCh:
		return fmt.Errorf("core: rank %d is dead", n.rank)
	case <-nw.dying:
		return ErrShutdown
	case <-time.After(5 * time.Second):
		return fmt.Errorf("core: rank %d did not accept command", n.rank)
	}
}

// handReparent gives a child process — internal node n, or back-end be —
// the rendezvous of its replacement parent link and reports whether the
// child took it. A node redials from inside its own event loop before it
// replies. A back-end's old link is severed so that its Recv EOFs and it
// picks up the buffered rendezvous: a no-op after a real crash, the nudge
// a false-positive detection or an elective migration (SplitNode) needs.
func (nw *Network) handReparent(n *node, be *BackEnd, addr string) bool {
	if n != nil {
		c := &cmdReparent{rw: nw.rewirer, addr: addr, reply: make(chan error, 1)}
		return nw.sendNodeCmd(n, c) == nil && <-c.reply == nil
	}
	if be == nil || be.killed() {
		return false
	}
	old := be.parentLink()
	select {
	case be.reparentCh <- reparentReq{rw: nw.rewirer, addr: addr}:
		transport.DropLink(old)
		return true
	case <-be.killCh:
	case <-nw.dying:
	}
	return false
}

// handAttach gives a routing process — internal node parent, or the
// front-end when parent is nil — its end of a freshly minted child link,
// failing rather than blocking forever when the parent has crashed (killed
// but not yet recovered), the network is tearing down, or the loop is wedged.
func (nw *Network) handAttach(parent *node, msg attachMsg) error {
	ch, dead, who := nw.fe.attachCh, (<-chan struct{})(nil), "front-end"
	if parent != nil {
		ch, dead, who = parent.attachCh, parent.killCh, fmt.Sprintf("parent %d", parent.rank)
	}
	select {
	case ch <- msg:
		return nil
	case <-dead:
		return fmt.Errorf("core: %s has crashed", who)
	case <-nw.dying:
		return ErrShutdown
	case <-time.After(5 * time.Second):
		return fmt.Errorf("core: %s did not accept the attachment", who)
	}
}

// handAdopt delivers an adoption command to its adopter — internal node
// adopter, or the front-end when adopter is nil — and waits for it to be
// applied. The front-end loop may be wedged or already gone at teardown, so
// that hand-off is bounded like sendNodeCmd's.
func (nw *Network) handAdopt(adopter *node, c *cmdAdopt) error {
	if adopter != nil {
		if err := nw.sendNodeCmd(adopter, c); err != nil {
			return err
		}
	} else {
		select {
		case nw.fe.cmdCh <- c:
		case <-nw.dying:
			return ErrShutdown
		case <-time.After(5 * time.Second):
			return fmt.Errorf("core: front-end did not accept the adoption")
		}
	}
	<-c.reply
	return nil
}

// replacementAcceptTimeout bounds how long an adoption waits for an
// orphan's redial to land on its offer. An orphan that dies between the
// reparent handoff and its redial (an overlapping failure) must not wedge
// the recovery: its offer is abandoned and its slot stays empty until its
// own recovery, like any other dead child.
const replacementAcceptTimeout = 2 * time.Second

// acceptReplacement waits, bounded, for the orphan's redial to land on the
// offer and returns the adopter-side end of the replacement link.
func acceptReplacement(o transport.Offer) (transport.Link, error) {
	type res struct {
		l   transport.Link
		err error
	}
	ch := make(chan res, 1)
	go func() {
		l, err := o.Accept()
		ch <- res{l, err}
	}()
	timer := time.NewTimer(replacementAcceptTimeout)
	defer timer.Stop()
	select {
	case r := <-ch:
		return r.l, r.err
	case <-timer.C:
		_ = o.Close()
		r := <-ch // Accept fails (or delivers a raced redial) once closed
		if r.err != nil {
			return nil, fmt.Errorf("core: orphan never redialed: %w", r.err)
		}
		return r.l, nil
	}
}

// Adopt applies the zero-cost recovery rule to the running overlay after
// the process at failed has crashed: its parent adopts the orphans, every
// affected stream's routing and synchronization is rebuilt, streams are
// re-announced into the adopted subtrees, and — via compose — the lost
// node's composable filter state is reconstructed from the orphans'
// snapshots and absorbed by the adopter. compose may be nil to skip state
// reconstruction. Works on any fabric: replacement links are minted by
// the network's Rewirer (the adopter listens, each orphan redials).
func (nw *Network) Adopt(failed Rank, compose StateComposer) (*Adoption, error) {
	nw.recMu.Lock()
	defer nw.recMu.Unlock()
	start := time.Now()

	nw.mu.Lock()
	if nw.shutdown {
		nw.mu.Unlock()
		return nil, ErrShutdown
	}
	if failed == 0 {
		nw.mu.Unlock()
		return nil, fmt.Errorf("%w: the front-end is a single point of control", ErrNotRecoverable)
	}
	if !nw.view.valid(failed) {
		nw.mu.Unlock()
		return nil, fmt.Errorf("%w: no such rank %d", ErrNotRecoverable, failed)
	}
	if nw.view.dead[failed] {
		nw.mu.Unlock()
		return nil, fmt.Errorf("%w: rank %d already recovered", ErrNotRecoverable, failed)
	}
	parent := nw.view.parent[failed]
	if nw.view.dead[parent] {
		nw.mu.Unlock()
		return nil, fmt.Errorf("%w: parent %d of %d has also failed; recover it first", ErrNotRecoverable, parent, failed)
	}
	deadSlot := nw.view.slotOf(parent, failed)
	origFailedChildren := append([]Rank(nil), nw.view.children[failed]...)
	orphans, slots := nw.view.adopt(failed, parent)
	info := nw.view.slotInfoLocked(parent)
	orphanNodes := make([]*node, len(orphans))
	orphanBEs := make([]*BackEnd, len(orphans))
	for i, o := range orphans {
		orphanNodes[i] = nw.byRank[o]
		orphanBEs[i] = nw.bes[o]
	}
	adopterNode := nw.byRank[parent] // nil when the front-end adopts
	nw.mu.Unlock()

	// 1. Snapshot the orphans' composable filter state (internal orphans
	// only; back-ends carry no filter state).
	snaps := make([]map[uint32][]byte, len(orphans))
	for i, on := range orphanNodes {
		if on == nil {
			continue
		}
		c := &cmdSnapshot{reply: make(chan map[uint32][]byte, 1)}
		if err := nw.sendNodeCmd(on, c); err == nil {
			snaps[i] = <-c.reply
		}
	}

	// 1b. The adopter may hold the failed node's own last checkpoint
	// (opCheckpoint travels ckptHops levels up): fold it in as one more
	// composition input. Safe for mergeable, monotone filter states —
	// re-absorbing an older self is idempotent there — and it recovers
	// information that was already above the orphans, in flight with the
	// failed node, when it crashed.
	var ckpt map[uint32][]byte
	if adopterNode != nil {
		c := &cmdFetchCkpt{rank: failed, reply: make(chan map[uint32][]byte, 1)}
		if err := nw.sendNodeCmd(adopterNode, c); err == nil {
			ckpt = <-c.reply
		}
	} else {
		nw.ckptMu.Lock()
		if m := nw.ckpts[failed]; len(m) > 0 {
			ckpt = make(map[uint32][]byte, len(m))
			for id, b := range m {
				ckpt[id] = b
			}
		}
		nw.ckptMu.Unlock()
	}

	// 2. Reconstruct the failed node's state per stream by composition.
	composed := map[uint32][]byte{}
	if compose != nil {
		ids := map[uint32]bool{}
		for _, s := range snaps {
			for id := range s {
				ids[id] = true
			}
		}
		for id := range ckpt {
			ids[id] = true
		}
		for id := range ids {
			fss := nw.fe.state(id)
			if fss == nil {
				continue
			}
			blobs := make([][]byte, len(orphans), len(orphans)+1)
			for i, s := range snaps {
				blobs[i] = s[id]
			}
			if b := ckpt[id]; len(b) > 0 {
				blobs = append(blobs, b)
			}
			blob, err := compose(id, fss.tformName, blobs)
			if err != nil {
				nw.metrics.FilterErrors.Add(1)
				continue
			}
			if len(blob) > 0 {
				composed[id] = blob
			}
		}
	}

	// 3. Mint one replacement-link rendezvous per orphan and re-parent the
	// orphans first: each orphan redials its offer from inside its own
	// event loop, so its reader goroutine is live before the adopter sends
	// stream re-announcements (those sends could otherwise block on a full
	// link buffer with nobody draining it). Orphan data sent before the
	// adopter accepts its end just queues in the link — the chan buffer
	// in-process, the listen backlog's socket buffers on TCP.
	offers := make([]transport.Offer, len(orphans))
	links := make([]transport.Link, len(orphans)) // adopter-side ends
	reparented := make([]bool, len(orphans))
	// rollback undoes the view mutation, abandons open offers, and severs
	// the accepted links if the adopter cannot complete the installation
	// (e.g. it was killed while this recovery ran), so a later retry
	// starts from a consistent state and already-reparented orphans fall
	// back to waiting. The orphan slots are vacated, not removed: a
	// concurrent attach may have appended further slots whose indices
	// must not shift.
	rollback := func() {
		for i := range orphans {
			if offers[i] != nil {
				_ = offers[i].Close()
			}
			transport.DropLink(links[i])
		}
		nw.mu.Lock()
		nw.view.dead[failed] = false
		nw.view.children[failed] = origFailedChildren
		nw.view.vacate(parent, slots)
		for _, o := range orphans {
			nw.view.parent[o] = failed
		}
		nw.mu.Unlock()
	}
	for i := range orphans {
		o, err := nw.rewirer.Offer()
		if err != nil {
			continue // orphan stays orphaned; a later recovery retries
		}
		offers[i] = o
		reparented[i] = nw.handReparent(orphanNodes[i], orphanBEs[i], o.Addr())
	}
	// Accept the adopter-side end of every replacement link, concurrently
	// so the bounded waits overlap. Bounded: an orphan that died after the
	// handoff (an overlapping failure) never redials, and must not wedge
	// this adoption — after replacementAcceptTimeout (once, not per
	// orphan) its offer is abandoned and it is treated like any other
	// unreparented orphan.
	var acceptWG sync.WaitGroup
	for i := range orphans {
		if !reparented[i] {
			if offers[i] != nil {
				_ = offers[i].Close()
				offers[i] = nil
			}
			continue
		}
		acceptWG.Add(1)
		go func(i int) {
			defer acceptWG.Done()
			l, err := acceptReplacement(offers[i])
			if err != nil {
				reparented[i] = false
				return
			}
			// The adopter-side end of a replacement link gets fresh credit
			// accounting, mirroring the orphan's fresh window.
			links[i] = transport.NewFlowLink(l, nw.cfg.LinkWindow)
			nw.metrics.RewiredLinks.Add(1)
		}(i)
	}
	acceptWG.Wait()
	for i := range offers {
		offers[i] = nil // accepts consumed (or closed) every open offer
	}

	// 4. Install the adopter-side ends at the adopter: new child slots,
	// stream routing/synchronizer rebuild, re-announce, state repair. An
	// orphan that could not be reparented (itself dead — a cascading
	// failure) gets no link: its slot stays empty until its own recovery,
	// exactly like any other dead child awaiting adoption, instead of
	// wiring a reader-less link that would wedge the adopter.
	liveSlots := make([]int, 0, len(orphans))
	liveLinks := make([]transport.Link, 0, len(orphans))
	for i := range orphans {
		if reparented[i] {
			liveSlots = append(liveSlots, slots[i])
			liveLinks = append(liveLinks, links[i])
		}
	}
	adopt := &cmdAdopt{
		deadSlot: deadSlot,
		slots:    liveSlots,
		links:    liveLinks,
		slotInfo: info,
		composed: composed,
		reply:    make(chan error, 1),
	}
	if err := nw.handAdopt(adopterNode, adopt); err != nil {
		rollback()
		return nil, err
	}

	rewire := time.Since(start)
	nw.metrics.RecoveriesCompleted.Add(1)
	nw.metrics.OrphansAdopted.Add(int64(len(orphans)))
	nw.metrics.RecoveryNanos.Add(rewire.Nanoseconds())
	return &Adoption{
		Failed:          failed,
		NewParent:       parent,
		Orphans:         orphans,
		StreamsComposed: len(composed),
		Rewire:          rewire,
	}, nil
}
