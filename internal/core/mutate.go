package core

import (
	"errors"
	"fmt"
	"time"

	"repro/internal/packet"
	"repro/internal/topology"
	"repro/internal/transport"
)

// This file implements live, load-driven topology mutation — the elastic
// half of the overlay (DESIGN.md §13). Internal processes periodically
// sample their own pressure (opLoadReport control packets, relayed
// order-free to the front-end like heartbeats); internal/elastic turns the
// samples into per-subtree heat scores and drives two mutations over the
// PR 3 rewiring protocol:
//
//   - SplitNode spawns a sibling for a saturated process and migrates half
//     its children onto it, doubling the routing and uplink capacity of
//     the hot subtree. Each child moves by the same reparent handshake
//     recovery uses (Offer / redial / accept), so the migration is
//     lossless: the child's replay ring re-flushes on the new link and
//     receivers drop the duplicates.
//
//   - MergeNode removes a cold process by checkpointing its filter state
//     and folding its children into its parent via the standard adoption —
//     a controlled failure, by design reusing the proven recovery path.

// ErrNotMutable reports a SplitNode/MergeNode target the live engine
// cannot mutate.
var ErrNotMutable = errors.New("core: topology not mutable here")

// LoadSample is one internal process's most recent load report as observed
// at the front-end. UpPackets and Stalls are cumulative counters — readers
// rate-normalize by delta between samples, so reports lost on a congested
// path skew nothing.
type LoadSample struct {
	// Origin is the reporting process.
	Origin Rank
	// UpPackets is the cumulative count of upstream data packets the
	// process has routed.
	UpPackets int64
	// Queued is the parent-egress queue depth at sample time.
	Queued int64
	// Stalls is the cumulative count of credit stalls on the parent
	// egress.
	Stalls int64
	// At is when the report reached the front-end.
	At time.Time
}

// loadReportLoop periodically emits n's pressure sample on its current
// parent link, until network teardown or n is killed (see beaconLoop).
func (nw *Network) loadReportLoop(n *node) {
	nw.beaconLoop(nw.cfg.LoadReportPeriod, n.killCh, func() {
		q := n.outRef.Load() // nil until run publishes it: reads as idle
		if l := n.parentLink(); l != nil {
			if err := l.Send(loadReportPacket(n.rank, n.upCount.Load(), int64(q.pending()), q.stalls())); err == nil {
				nw.metrics.LoadReportsSent.Add(1)
			}
		}
	})
}

// noteLoadReport records a load report observed at the front-end.
func (nw *Network) noteLoadReport(p *packet.Packet) {
	origin, up, queued, stalls, err := parseLoadReport(p)
	if err != nil {
		return
	}
	nw.metrics.LoadReportsSeen.Add(1)
	nw.loadMu.Lock()
	if nw.loadRep == nil {
		nw.loadRep = map[Rank]LoadSample{}
	}
	nw.loadRep[origin] = LoadSample{
		Origin: origin, UpPackets: up, Queued: queued, Stalls: stalls, At: time.Now(),
	}
	nw.loadMu.Unlock()
}

// LoadReports snapshots the latest load sample per internal rank. Ranks
// that have never reported are absent; a dead rank's last sample lingers
// until overwritten (consumers should check liveness via LiveInternal).
func (nw *Network) LoadReports() map[Rank]LoadSample {
	nw.loadMu.Lock()
	defer nw.loadMu.Unlock()
	out := make(map[Rank]LoadSample, len(nw.loadRep))
	for r, s := range nw.loadRep {
		out[r] = s
	}
	return out
}

// LiveParent returns r's current parent in the live shape (original
// numbering, reflecting adoptions and mutations), or topology.NoRank when
// r is the root, unknown, or dead.
func (nw *Network) LiveParent(r Rank) Rank {
	nw.mu.Lock()
	defer nw.mu.Unlock()
	if r == 0 || !nw.view.valid(r) || nw.view.dead[r] {
		return topology.NoRank
	}
	return nw.view.parent[r]
}

// LiveChildren returns r's live children in slot order.
func (nw *Network) LiveChildren(r Rank) []Rank {
	nw.mu.Lock()
	defer nw.mu.Unlock()
	if !nw.view.valid(r) || nw.view.dead[r] {
		return nil
	}
	var out []Rank
	for _, c := range nw.view.children[r] {
		if c != topology.NoRank && !nw.view.dead[c] {
			out = append(out, c)
		}
	}
	return out
}

// LiveInternal returns the live internal (non-root, non-back-end) ranks in
// ascending order, including split siblings spawned at runtime.
func (nw *Network) LiveInternal() []Rank {
	nw.mu.Lock()
	defer nw.mu.Unlock()
	var out []Rank
	for r := 1; r < len(nw.view.parent); r++ {
		if !nw.view.dead[r] && !nw.view.backend[r] {
			out = append(out, Rank(r))
		}
	}
	return out
}

// SplitNode splits a saturated internal process: a fresh sibling process
// is spawned under the same parent and the later half of hot's live
// children are migrated onto it, so the hot subtree gets a second router
// and a second parent-link credit window. Migration reuses the recovery
// reparent protocol per child and is lossless (replay rings re-deliver,
// receivers deduplicate). Returns the sibling's rank.
//
// Serialized against recoveries by the same lock Adopt holds, so a
// mutation never interleaves with an adoption's rewiring.
func (nw *Network) SplitNode(hot Rank) (Rank, error) {
	nw.recMu.Lock()
	defer nw.recMu.Unlock()

	nw.mu.Lock()
	if nw.shutdown {
		nw.mu.Unlock()
		return topology.NoRank, ErrShutdown
	}
	if hot == 0 {
		nw.mu.Unlock()
		return topology.NoRank, fmt.Errorf("%w: the front-end cannot split", ErrNotMutable)
	}
	if !nw.view.valid(hot) {
		nw.mu.Unlock()
		return topology.NoRank, fmt.Errorf("%w: no such rank %d", ErrNotMutable, hot)
	}
	if nw.view.dead[hot] {
		nw.mu.Unlock()
		return topology.NoRank, fmt.Errorf("%w: rank %d has failed", ErrNotMutable, hot)
	}
	if nw.view.backend[hot] {
		nw.mu.Unlock()
		return topology.NoRank, fmt.Errorf("%w: rank %d is a back-end", ErrNotMutable, hot)
	}
	parent := nw.view.parent[hot]
	if parent != 0 && nw.view.dead[parent] {
		nw.mu.Unlock()
		return topology.NoRank, fmt.Errorf("%w: parent %d of %d has failed; recover it first", ErrNotMutable, parent, hot)
	}
	var liveSlots []int
	var liveKids []Rank
	for i, c := range nw.view.children[hot] {
		if c != topology.NoRank && !nw.view.dead[c] {
			liveSlots = append(liveSlots, i)
			liveKids = append(liveKids, c)
		}
	}
	if len(liveKids) < 2 {
		nw.mu.Unlock()
		return topology.NoRank, fmt.Errorf("%w: rank %d has %d live children, need at least 2", ErrNotMutable, hot, len(liveKids))
	}
	hotNode := nw.byRank[hot]
	gNode := nw.byRank[parent] // nil when the parent is the front-end
	// A killed-but-undetected process is a recovery problem, not a split
	// target (the view marks it dead only once adopted).
	select {
	case <-hotNode.killCh:
		nw.mu.Unlock()
		return topology.NoRank, fmt.Errorf("%w: rank %d has failed", ErrNotMutable, hot)
	default:
	}
	q, qSlot := nw.view.addInternal(parent)
	nw.mu.Unlock()

	stillborn := func(err error) (Rank, error) {
		nw.mu.Lock()
		nw.view.dead[q] = true
		nw.mu.Unlock()
		return topology.NoRank, err
	}

	// Mint the sibling's parent link through the fabric's rewiring
	// protocol (both halves run here, like AttachBackEnd).
	off, err := nw.rewirer.Offer()
	if err != nil {
		return stillborn(fmt.Errorf("core: splitting %d: %w", hot, err))
	}
	childEnd, err := nw.rewirer.Redial(off.Addr())
	if err != nil {
		_ = off.Close()
		return stillborn(fmt.Errorf("core: splitting %d: %w", hot, err))
	}
	parentEnd, err := off.Accept()
	if err != nil {
		transport.DropLink(childEnd)
		return stillborn(fmt.Errorf("core: splitting %d: %w", hot, err))
	}
	parentEnd = transport.NewFlowLink(parentEnd, nw.cfg.LinkWindow)
	childEnd = transport.NewFlowLink(childEnd, nw.cfg.LinkWindow)
	nw.metrics.RewiredLinks.Add(1)

	// Spawn the sibling process exactly as NewNetwork spawns internal
	// nodes, reader-first so the pre-announcements below cannot wedge on a
	// full link buffer.
	n := &node{
		nw:       nw,
		rank:     q,
		ep:       &transport.Endpoint{Rank: q, Parent: childEnd},
		attachCh: make(chan attachMsg),
		cmdCh:    make(chan nodeCmd),
		killCh:   make(chan struct{}),
	}
	nw.mu.Lock()
	nw.byRank[q] = n
	nw.nodes = append(nw.nodes, n)
	nw.mu.Unlock()
	nw.wg.Add(1)
	go func() {
		defer nw.wg.Done()
		n.run()
	}()
	if nw.cfg.HeartbeatPeriod > 0 {
		go nw.heartbeatLoop(q, n.parentLink, n.killCh)
	}
	if nw.cfg.LoadReportPeriod > 0 {
		go nw.loadReportLoop(n)
	}

	// Pre-announce every live stream on the sibling's link before the
	// parent learns of it: the announcements are the first packets Q ever
	// receives, so its stream table exists before any data can arrive.
	// (Data racing ahead would still be safe — unknown streams pass
	// through or flood — this just shortens the pass-through window.)
	for _, ss := range nw.fe.snapshotStates() {
		_ = parentEnd.Send(ss.announcePacket())
	}

	// Hand the parent its side of the link (a routine attach: the slot is
	// non-participating until the route refresh at the end).
	abort := func(err error) (Rank, error) {
		n.kill()
		transport.DropLink(parentEnd)
		return stillborn(err)
	}
	if err := nw.handAttach(gNode, attachMsg{link: parentEnd, slot: qSlot}); err != nil {
		return abort(fmt.Errorf("core: splitting %d: %w", hot, err))
	}

	// Migrate the later half of hot's live children onto the sibling, one
	// recovery-style reparent each: offer, child redials from inside its
	// own loop, bounded accept. A child that fails the handshake (it died,
	// or its redial never landed) simply stays where it is — the split
	// degrades, never wedges.
	count := len(liveKids) / 2
	sel := liveKids[len(liveKids)-count:]
	selSlots := liveSlots[len(liveSlots)-count:]
	var movedKids []Rank
	var movedSlots []int // vacated at hot
	var newLinks []transport.Link
	for i, c := range sel {
		nw.mu.Lock()
		cNode := nw.byRank[c]
		cBE := nw.bes[c]
		nw.mu.Unlock()
		o, err := nw.rewirer.Offer()
		if err != nil {
			continue
		}
		if !nw.handReparent(cNode, cBE, o.Addr()) {
			_ = o.Close()
			continue
		}
		l, err := acceptReplacement(o)
		if err != nil {
			continue
		}
		nw.metrics.RewiredLinks.Add(1)
		movedKids = append(movedKids, c)
		movedSlots = append(movedSlots, selSlots[i])
		newLinks = append(newLinks, transport.NewFlowLink(l, nw.cfg.LinkWindow))
	}
	if len(movedKids) == 0 {
		return abort(fmt.Errorf("core: split of %d migrated no children", hot))
	}

	// Commit the new shape and snapshot the three affected slot layouts.
	nw.mu.Lock()
	newSlots := make([]int, 0, len(movedKids))
	for _, c := range movedKids {
		nw.view.children[q] = append(nw.view.children[q], c)
		newSlots = append(newSlots, len(nw.view.children[q])-1)
		nw.view.parent[c] = q
	}
	nw.view.vacate(hot, movedSlots)
	infoQ := nw.view.slotInfoLocked(q)
	infoHot := nw.view.slotInfoLocked(hot)
	infoG := nw.view.slotInfoLocked(parent)
	parents := append([]Rank(nil), nw.view.parent...)
	nw.mu.Unlock()

	// Install the migrated links at the sibling: child slots, readers,
	// routing rebuild, stream re-announcement into the moved subtrees
	// (children that already carry a stream ignore the replay).
	adoptQ := &cmdAdopt{deadSlot: -1, slots: newSlots, links: newLinks, slotInfo: infoQ, reply: make(chan error, 1)}
	if err := nw.handAdopt(n, adoptQ); err != nil {
		return topology.NoRank, fmt.Errorf("core: splitting %d: sibling %d: %w", hot, q, err)
	}

	// Fence the vacated slots at the donor and rebuild its routing. If hot
	// died mid-split its own recovery rebuilds everything anyway.
	adoptHot := &cmdAdopt{deadSlot: -1, vacated: movedSlots, slotInfo: infoHot, reply: make(chan error, 1)}
	_ = nw.handAdopt(hotNode, adoptHot)

	// Refresh the parent's routing so the sibling's slot starts
	// participating in member streams (synchronizer slots remap; rounds
	// gated only on stale routing release).
	adoptG := &cmdAdopt{deadSlot: -1, slotInfo: infoG, reply: make(chan error, 1)}
	// A parent node that died meanwhile is likewise left to its recovery;
	// the front-end cannot die, so failing there is teardown or a wedge.
	if err := nw.handAdopt(gNode, adoptG); err != nil && gNode == nil {
		return topology.NoRank, fmt.Errorf("core: splitting %d: refreshing routes: %w", hot, err)
	}

	// Publish the successor topology snapshot (original numbering; dead
	// ranks keep their last parent, exactly like recovery leaves them).
	if t, terr := topology.FromParents(parents); terr == nil {
		nw.mu.Lock()
		nw.tree = t
		nw.mu.Unlock()
	}

	nw.metrics.NodesSplit.Add(1)
	nw.metrics.TopologyMutations.Add(1)
	return q, nil
}

// MergeNode removes a cold internal process from the aggregation path,
// shortening its subtree by one level: its composable filter state is
// checkpointed toward its potential adopters, the process is terminated,
// and the standard adoption folds its children into its parent. A merge is
// a controlled failure on purpose — it reuses the proven recovery path end
// to end, so it is lossless. The elective kill
// is counted in NodesFailed like any crash. compose may be nil to skip
// filter-state reconstruction (the checkpoint still covers stateful
// mergeable filters via the adopter's cache).
func (nw *Network) MergeNode(cold Rank, compose StateComposer) (*Adoption, error) {
	nw.mu.Lock()
	if nw.shutdown {
		nw.mu.Unlock()
		return nil, ErrShutdown
	}
	if cold == 0 || !nw.view.valid(cold) {
		nw.mu.Unlock()
		return nil, fmt.Errorf("%w: no such internal rank %d", ErrNotMutable, cold)
	}
	if nw.view.dead[cold] {
		nw.mu.Unlock()
		return nil, fmt.Errorf("%w: rank %d has already failed", ErrNotMutable, cold)
	}
	if nw.view.backend[cold] {
		nw.mu.Unlock()
		return nil, fmt.Errorf("%w: rank %d is a back-end", ErrNotMutable, cold)
	}
	parent := nw.view.parent[cold]
	if parent != 0 && nw.view.dead[parent] {
		nw.mu.Unlock()
		return nil, fmt.Errorf("%w: parent %d of %d has failed; recover it first", ErrNotMutable, parent, cold)
	}
	coldNode := nw.byRank[cold]
	nw.mu.Unlock()

	// Checkpoint the victim's filter state toward its adopters before the
	// kill, so the adoption can fold in what was in flight above its
	// children. Best-effort: composition from the children's own
	// snapshots remains the primary source.
	if coldNode != nil {
		c := &cmdCheckpoint{reply: make(chan int, 1)}
		if err := nw.sendNodeCmd(coldNode, c); err == nil {
			<-c.reply
		}
	}
	if err := nw.Kill(cold); err != nil {
		return nil, err
	}
	ad, err := nw.Adopt(cold, compose)
	if err != nil {
		return nil, err
	}
	nw.metrics.NodesMerged.Add(1)
	nw.metrics.TopologyMutations.Add(1)
	return ad, nil
}
