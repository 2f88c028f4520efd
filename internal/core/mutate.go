package core

import (
	"errors"
	"fmt"
	"time"

	"repro/internal/packet"
	"repro/internal/topology"
)

// This file implements live, load-driven topology mutation — the elastic
// half of the overlay (DESIGN.md §13). Internal processes periodically
// sample their own pressure (opLoadReport control packets, relayed
// order-free to the front-end like heartbeats); internal/elastic turns the
// samples into per-subtree heat scores and drives two mutations over the
// PR 3 rewiring protocol:
//
//   - SplitNode attaches a sibling for a saturated process and reparents
//     half its children onto it, doubling the routing and uplink capacity
//     of the hot subtree. The children move by the one reparent path
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
	return nw.view.liveKids(r)
}

// LiveInternal returns the live internal (non-root, non-back-end) ranks in
// ascending order, including split siblings spawned at runtime.
func (nw *Network) LiveInternal() []Rank {
	nw.mu.Lock()
	defer nw.mu.Unlock()
	return nw.view.internal()
}

// SplitNode splits a saturated internal process: a fresh sibling process
// is spawned under the same parent and the later half of hot's live
// children are migrated onto it, so the hot subtree gets a second router
// and a second parent-link credit window. The sibling joins by the attach
// path and the children move by the reparent path recovery uses, so the
// migration is lossless (replay rings re-deliver, receivers deduplicate).
// Returns the sibling's rank.
//
// Serialized against recoveries by the same lock Adopt holds, so a
// mutation never interleaves with an adoption's rewiring.
func (nw *Network) SplitNode(hot Rank) (Rank, error) {
	nw.recMu.Lock()
	defer nw.recMu.Unlock()

	nw.mu.Lock()
	parent, err := nw.target(hot, ErrNotMutable, false, false)
	var kids []Rank
	if err == nil {
		kids = nw.view.liveKids(hot)
	}
	hotNode := nw.byRank[hot]
	nw.mu.Unlock()
	if err != nil {
		return topology.NoRank, err
	}
	if len(kids) < 2 {
		return topology.NoRank, fmt.Errorf("%w: rank %d has %d live children, need at least 2", ErrNotMutable, hot, len(kids))
	}
	// A killed-but-undetected process is a recovery problem, not a split
	// target (the view marks it dead only once adopted).
	select {
	case <-hotNode.killCh:
		return topology.NoRank, fmt.Errorf("%w: rank %d has failed", ErrNotMutable, hot)
	default:
	}

	q, err := nw.attach(parent, false)
	if err != nil {
		return topology.NoRank, fmt.Errorf("core: splitting %d: %w", hot, err)
	}
	// A child whose hand-off fails (it died, or its redial never landed)
	// stays where it is: the split degrades, never wedges.
	moved, err := nw.reparent(kids[len(kids)-len(kids)/2:], hot, q, nil)
	if err == nil && moved == 0 {
		err = fmt.Errorf("core: split of %d migrated no children", hot)
	}
	if err != nil {
		nw.stillborn(q)
		return topology.NoRank, err
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
	_, err := nw.target(cold, ErrNotMutable, false, false)
	coldNode := nw.byRank[cold]
	nw.mu.Unlock()
	if err != nil {
		return nil, err
	}

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
