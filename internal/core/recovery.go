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

// This file implements the engine side of the paper's companion reliability
// model (Arnold & Miller, "Zero-cost reliability for tree-based overlay
// networks") on a running Network:
//
//   - fault injection: Kill crashes any non-root process, severing its
//     links abruptly so neighbors observe the failure exactly as they
//     would a real crash;
//   - failure detection feed: every non-root process's upstream queue
//     clock emits periodic heartbeat control packets to its parent, whose
//     link readers record them (Network.Heartbeats merges the records),
//     and internal/recovery's detector watches for silence;
//   - live reconfiguration: Adopt applies the grandparent-adoption rule in
//     place — orphans are re-linked under the failed node's parent, stream
//     routing and synchronizer child counts are rebuilt, and streams are
//     re-announced into adopted subtrees.
//
// What the lost node held comes back from two sources, neither of which
// costs anything before a failure: each orphan's sender replay ring
// re-flushes its unacknowledged packets to the adopter (setLink), and the
// lost node's composable filter state is reconstructed from the orphans'
// snapshots (reference [2]'s state composition). For a composable filter
// the second covers what the first cannot: a run the lost node's
// synchronizer held was already retired and acknowledged, so it left its
// sender's ring.

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

// cmdInstall is the one command that changes a router's child slots, at
// internal nodes and the front-end alike: fence slots, install new child
// links and start their readers, rebuild every stream's routing from a
// fresh slot snapshot, re-announce streams into the new subtrees, and
// restore composed filter state. An attach is this command with one link;
// an adoption fences the dead child's slot and installs its orphans' links.
type cmdInstall struct {
	// fence lists child slots to cut off: a dead child's.
	fence    []int
	slots    []int            // child slot index per new link
	links    []transport.Link // router-side ends, index-aligned with slots
	slotInfo []slotInfo       // the router's full refreshed slot snapshot
	composed map[uint32][]byte
	done     chan struct{}
}

// cmdReparent hands an orphaned node its end of a replacement parent link,
// which the network minted whole (reparent); the node installs it and
// starts its reader inside its own event loop before it replies. A
// back-end takes its end on reparentCh instead.
type cmdReparent struct {
	link  transport.Link
	reply chan error
}

// cmdStream registers a stream NewStream opened in the root's table or,
// with drop set, removes one Stream.Close or CloseSession closed.
type cmdStream struct {
	ss   *streamState
	drop bool
}

func (*cmdSnapshot) isNodeCmd() {}
func (*cmdInstall) isNodeCmd()  {}
func (*cmdReparent) isNodeCmd() {}
func (*cmdStream) isNodeCmd()   {}

// handleCmd executes a recovery command inside the node's event loop.
// Commands that read or rebuild filter state park the pipeline
// first (quiesce): the snapshot must be a consistent cut, and the adoption
// rebuilds synchronizers the workers otherwise own single-writer.
func (n *node) handleCmd(c nodeCmd, inbox chan inMsg) {
	switch cmd := c.(type) {
	case *cmdSnapshot:
		cmd.reply <- n.snapshotFilterState()
	case *cmdInstall:
		// A fenced child's EOF may still be queued behind data: release any
		// worker waiting on its window NOW, or it never reaches the quiesce
		// barrier below.
		for _, s := range cmd.fence {
			if s >= 0 && s < len(n.childOut) {
				n.childOut[s].releaseWaiters()
			}
		}
		n.quiesceShards(func() {
			// The root's user goroutines read the slots and the routing
			// under the read lock; quiesceShards has already released any
			// of them waiting on a queue slot.
			n.epMu.Lock()
			defer n.epMu.Unlock()
			n.applyInstall(cmd, inbox)
			n.redispatchStash(cmd.slots)
		})
		n.liveChildren += len(cmd.links)
		n.nw.passShutdown(cmd.links, n.shuttingDown, n.rank)
		close(cmd.done)
	case *cmdReparent:
		if n.killed() {
			// A crashed process takes no link: the caller drops both ends.
			cmd.reply <- fmt.Errorf("core: rank %d is dead", n.rank)
			return
		}
		// Fresh link, fresh credit window on both sides: the retained egress
		// queue re-enters the bounded window from zero without
		// double-spending credits.
		link := transport.NewFlowLink(cmd.link, n.nw.cfg.LinkWindow)
		// The old parent is dead or being replaced, but its EOF may not
		// have been processed yet: release any worker waiting on its
		// window before quiescing, or the barrier never forms.
		n.parentOut.releaseWaiters()
		// Park the pipeline for the link swap: workers send on parentOut
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
		go n.readLink(link, -1, inbox)
		cmd.reply <- nil
	case *cmdStream:
		// A dropped stream's synchronizer drains behind the runs already
		// dispatched, into a receiver that is closed; later runs take
		// upRaw, which drops them at the root and returns their credits.
		if cmd.drop {
			delete(n.streams, cmd.ss.id)
			n.pipe.closeStreamUp(cmd.ss)
		} else {
			n.streams[cmd.ss.id] = cmd.ss
			n.pipe.register(cmd.ss)
		}
	}
}

// snapshotFilterState returns every stream's composable filter state, cut
// consistently with the pipeline quiesced.
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
// adopted slots. Runs under quiesce right after applyInstall; sends are
// router-context (non-blocking) so recovery never wedges on a full window,
// and leave at once, on the queues' own clocks.
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
				_ = n.childOut[slot].sendCtx(p, false)
			}
		}
	}
}

// applyInstall runs the install command: fence the listed slots (a
// declared-dead child — even a false positive, alive but silent, must not
// keep feeding this router), install the new child links, start their
// readers, and repair every stream. The readers start before stream
// repair so both link directions drain while announcements are sent —
// their packets are only processed after the command completes, once
// routing is rebuilt. Callers run this with the pipeline
// quiesced (it mutates child slots and synchronizer state the workers
// otherwise own) and keep the live-child count and the shutdown rule
// around it.
func (n *node) applyInstall(c *cmdInstall, inbox chan inMsg) {
	for _, s := range c.fence {
		if s >= 0 && s < len(n.ep.Children) {
			transport.DropLink(n.ep.Children[s])
			n.installChild(s, nil)
		}
	}
	for i, l := range c.links {
		n.installChild(c.slots[i], l)
	}
	for i, l := range c.links {
		go n.readLink(l, c.slots[i], inbox)
	}
	n.repairStreams(c)
}

// passShutdown is the install command's one shutdown rule: links installed
// after the router has seen opShutdown (seen), or
// after teardown began, may have missed the announcement sweep, so it is
// passed on to them here. A reparented orphan no longer watches teardown;
// without this it would wait for the announcement forever.
func (nw *Network) passShutdown(links []transport.Link, seen bool, from Rank) {
	if len(links) == 0 || !seen && !nw.tearingDown() {
		return
	}
	down := packet.MustNew(packet.TagControl, 0, from, ctrlShutdownFormat, int64(opShutdown))
	for _, l := range links {
		_ = l.Send(down)
	}
}

// repairStreams applies an install to every stream at the router: rebuild
// slot routing and synchronization, re-announce the stream into the newly
// installed subtrees, and restore the lost level's composable filter
// state by replay through the normal pipeline (also regenerating
// information lost in flight).
func (n *node) repairStreams(c *cmdInstall) {
	for _, ss := range n.streams {
		// Rounds that were only gated on the dead slot complete now and
		// go up first: they are the oldest data.
		ss.rebuildSlots(c.slotInfo)
		announceStream(ss, c.slots, c.links)
		if batch := replayComposed(ss, c.composed); batch != nil {
			ss.begin(false, pendRetire{})
			ss.round(batch)
			ss.end()
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
// through the adopter's pipeline, or nil when there is nothing to replay:
// no state, a filter that cannot replay it, or one that holds nothing.
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

// beacons is one router's liveness record: when each child's beacon last
// arrived, keyed by the child's rank. The router's link readers write it.
type beacons struct {
	mu   sync.Mutex
	last map[Rank]time.Time
}

// note records a beacon from origin arriving now.
func (b *beacons) note(origin Rank) {
	b.mu.Lock()
	if b.last == nil {
		b.last = map[Rank]time.Time{}
	}
	b.last[origin] = time.Now()
	b.mu.Unlock()
}

// mergeInto adds the record to out, keeping the later time for a rank that
// beaconed to more than one parent (it was adopted or moved).
func (b *beacons) mergeInto(out map[Rank]time.Time) {
	b.mu.Lock()
	defer b.mu.Unlock()
	for r, t := range b.last {
		if t.After(out[r]) {
			out[r] = t
		}
	}
}

// Heartbeats snapshots the last time each rank's beacon reached its
// parent, merged over every router's record. A crashed router's record
// stays in the merge, frozen at the crash: its children fall silent then,
// as their beacons can no longer reach a parent, until an adoption gives
// them a live one. Ranks that have never been heard from are absent.
func (nw *Network) Heartbeats() map[Rank]time.Time {
	nw.mu.Lock()
	defer nw.mu.Unlock()
	out := map[Rank]time.Time{}
	for _, n := range nw.byRank {
		n.heard.mergeInto(out)
	}
	return out
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
	down := nw.shutdown
	nw.mu.Unlock()
	if down {
		return ErrShutdown
	}
	if !nw.crash(r) {
		return fmt.Errorf("core: no such rank %d", r)
	}
	nw.metrics.NodesFailed.Add(1)
	return nil
}

// crash terminates the process at r abruptly, reporting false when no
// process runs there.
func (nw *Network) crash(r Rank) bool {
	nw.mu.Lock()
	n, be := nw.byRank[r], nw.bes[r]
	nw.mu.Unlock()
	switch {
	case be != nil:
		be.kill()
	case n != nil:
		n.kill()
	default:
		return false
	}
	return true
}

// sendNodeCmd delivers a command to a router's event loop, failing rather
// than deadlocking if the node is dead, the network is tearing down, or
// the loop is wedged.
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

// install hands router n the install command and waits until it has been
// applied.
func (nw *Network) install(n *node, c *cmdInstall) error {
	c.done = make(chan struct{})
	if err := nw.sendNodeCmd(n, c); err != nil {
		return err
	}
	<-c.done
	return nil
}

// handReparent gives a child process — internal node n, or back-end be —
// its end of a replacement parent link and reports whether the child took
// it. A node installs the link and starts its reader from inside its own
// event loop before it replies. A back-end's old link is severed so that
// its Recv EOFs and it picks up the buffered link: a no-op after a real
// crash, the nudge a false-positive detection needs. A child that did not
// take its end leaves both ends dropped: neither stays open.
func (nw *Network) handReparent(n *node, be *BackEnd, parentEnd, childEnd transport.Link) (took bool) {
	defer func() {
		if !took {
			transport.DropLink(parentEnd)
			transport.DropLink(childEnd)
		}
	}()
	if n != nil {
		c := &cmdReparent{link: childEnd, reply: make(chan error, 1)}
		return nw.sendNodeCmd(n, c) == nil && <-c.reply == nil
	}
	if be == nil || be.killed() {
		return false
	}
	old := be.parentLink()
	select {
	case be.reparentCh <- childEnd:
	case <-be.killCh:
		return false
	case <-nw.dying:
		return false
	}
	transport.DropLink(old)
	// A back-end whose loop has ended reads reparentCh no more: a link
	// deposited as it was killed, or as teardown began, is taken back.
	// Its loop's exit takes back one that landed before it ended.
	if be.killed() || nw.tearingDown() {
		select {
		case <-be.reparentCh:
		default:
		}
		return false
	}
	return true
}

// reparent is the one path that moves existing children between routers —
// the reconfiguration step of the zero-cost recovery model: the view moves
// a dead router's kids from `from` to its parent `to`; the network mints a
// fresh link to `to` per child and hands the child its end; `to` fences
// the dead router's slot and installs the other ends, carrying composed
// (the lost level's filter state). A child that does not take its end (it
// died, or teardown began) keeps its slot at `to` with no link, awaiting
// its own recovery like any dead child, and neither end of its link stays
// open. If `to` cannot take the install, everything is rolled back.
// Callers hold recMu.
func (nw *Network) reparent(kids []Rank, from, to Rank, composed map[uint32][]byte) error {
	nw.mu.Lock()
	fromSlots, toSlots := nw.view.move(kids, from, to)
	kidNodes := make([]*node, len(kids))
	kidBEs := make([]*BackEnd, len(kids))
	for i, c := range kids {
		kidNodes[i], kidBEs[i] = nw.byRank[c], nw.bes[c]
	}
	nw.mu.Unlock()

	// Hand every child its end first: a node installs it and starts its
	// reader before it replies, so its reader is live before `to` sends
	// stream re-announcements (those sends could otherwise block on a full
	// link buffer with nobody draining it). A back-end takes its end once
	// its old link has failed; what `to` sends it before then waits in the
	// new link's buffer.
	links := make([]transport.Link, len(kids))
	for i := range kids {
		parentEnd, childEnd, err := nw.newPair()
		if err != nil || !nw.handReparent(kidNodes[i], kidBEs[i], parentEnd, childEnd) {
			continue
		}
		// The router-side end gets fresh credit accounting, mirroring the
		// child's fresh window.
		links[i] = transport.NewFlowLink(parentEnd, nw.cfg.LinkWindow)
		nw.metrics.RewiredLinks.Add(1)
	}

	c := &cmdInstall{composed: composed}
	nw.mu.Lock()
	for i, l := range links {
		if l != nil {
			c.slots, c.links = append(c.slots, toSlots[i]), append(c.links, l)
		}
	}
	c.fence = []int{nw.view.slotOf(to, from)}
	c.slotInfo = nw.view.slotInfoLocked(to)
	toNode := nw.byRank[to]
	nw.mu.Unlock()

	if err := nw.install(toNode, c); err != nil {
		// `to` died or the network is tearing down: sever the new links so
		// the moved children fall back to waiting, and restore the view so
		// a later retry starts from a consistent state.
		for _, l := range c.links {
			transport.DropLink(l)
		}
		nw.mu.Lock()
		for i, k := range kids {
			nw.view.unmove(k, from, fromSlots[i], to, toSlots[i])
		}
		nw.mu.Unlock()
		return err
	}
	return nil
}

// Adopt applies the zero-cost recovery rule to the running overlay after
// the process at failed has crashed: its parent adopts the orphans, every
// affected stream's routing and synchronization is rebuilt, streams are
// re-announced into the adopted subtrees, and — via compose — the lost
// node's composable filter state is reconstructed from the orphans'
// snapshots and absorbed by the adopter. compose may be nil to skip state
// reconstruction. Works on any fabric: the network mints each replacement
// link whole and hands the orphan its end (reparent).
func (nw *Network) Adopt(failed Rank, compose StateComposer) (*Adoption, error) {
	nw.recMu.Lock()
	defer nw.recMu.Unlock()
	start := time.Now()

	nw.mu.Lock()
	parent, err := nw.target(failed, ErrNotRecoverable, true, false)
	var orphans []Rank
	if err == nil {
		orphans = nw.view.liveKids(failed)
		nw.view.dead[failed] = true
	}
	orphanNodes := make([]*node, len(orphans))
	for i, o := range orphans {
		orphanNodes[i] = nw.byRank[o]
	}
	nw.mu.Unlock()
	if err != nil {
		return nil, err
	}

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

	// 2. Reconstruct the failed node's state per stream by composition.
	composed := map[uint32][]byte{}
	if compose != nil {
		ids := map[uint32]bool{}
		for _, s := range snaps {
			for id := range s {
				ids[id] = true
			}
		}
		for id := range ids {
			st := nw.Stream(id)
			if st == nil {
				continue
			}
			blobs := make([][]byte, len(orphans))
			for i, s := range snaps {
				blobs[i] = s[id]
			}
			blob, err := compose(id, st.ss.tformName, blobs)
			if err != nil {
				nw.metrics.FilterErrors.Add(1)
				continue
			}
			if len(blob) > 0 {
				composed[id] = blob
			}
		}
	}

	// 3. Move the orphans under the adopter, which fences the dead child's
	// slot and absorbs the composed state. An adopter that cannot take them
	// (it was killed while this recovery ran) leaves failed alive in the
	// view, so shallowest-first recovery redoes this adoption later.
	if err := nw.reparent(orphans, failed, parent, composed); err != nil {
		nw.mu.Lock()
		nw.view.dead[failed] = false
		nw.mu.Unlock()
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
