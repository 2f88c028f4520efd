package core

import (
	"errors"
	"fmt"
	"time"

	"repro/internal/topology"
	"repro/internal/transport"
)

// ErrBadAttachParent reports an AttachBackEnd target that cannot accept a
// new child: a back-end (leaves have no routing loop), or the front-end
// of a tree that has internal communication processes (attach under one
// of those instead). The front-end itself is a valid parent only on flat
// (depth-1) topologies, where it is the sole routing process.
var ErrBadAttachParent = errors.New("core: attach parent cannot accept children")

// AttachBackEnd implements the paper's dynamic topology model: "back-end
// processes may join after the internal tree has been instantiated." It
// creates a new back-end as a child of the given communication process on
// a running network and starts its handler.
//
// The new back-end participates in streams created *after* it attaches
// (existing streams' membership was fixed at creation, as in MRNet).
// The parent must be an internal communication process — or the
// front-end itself on a flat (depth-1) topology, which has no internal
// processes. Attachments to back-ends, and to the front-end of a deeper
// tree, fail with ErrBadAttachParent. Works on any fabric: the new link
// is minted by the network's Rewirer (the parent side listens, the
// newcomer redials).
func (nw *Network) AttachBackEnd(parent Rank) (Rank, error) {
	nw.mu.Lock()
	if nw.shutdown {
		nw.mu.Unlock()
		return topology.NoRank, ErrShutdown
	}
	old := nw.tree
	pn := old.Node(parent)
	if pn == nil || !nw.view.valid(parent) {
		nw.mu.Unlock()
		return topology.NoRank, fmt.Errorf("core: no such parent %d", parent)
	}
	if nw.view.backend[parent] {
		nw.mu.Unlock()
		return topology.NoRank, fmt.Errorf("%w: %d is a back-end", ErrBadAttachParent, parent)
	}
	if pn.IsRoot() && len(old.InternalNodes()) > 0 {
		nw.mu.Unlock()
		return topology.NoRank, fmt.Errorf("%w: %d is the front-end of a non-flat tree", ErrBadAttachParent, parent)
	}
	if nw.view.dead[parent] {
		nw.mu.Unlock()
		return topology.NoRank, fmt.Errorf("core: parent %d has failed", parent)
	}
	// Build the successor topology as a fresh immutable tree; running
	// nodes read the network's tree pointer, never mutate it.
	parents := make([]Rank, old.Len()+1)
	for r := 0; r < old.Len(); r++ {
		parents[r] = old.Parent(Rank(r))
	}
	parents[old.Len()] = parent
	newTree, err := topology.FromParents(parents)
	if err != nil {
		nw.mu.Unlock()
		return topology.NoRank, fmt.Errorf("core: attaching back-end: %w", err)
	}
	newRank, slot := nw.view.addLeaf(parent)
	nw.tree = newTree
	n := nw.byRank[parent] // nil when the parent is the front-end
	nw.mu.Unlock()

	// Mint the link through the fabric's rewiring protocol. Both halves
	// run here — the network process owns the parent's rendezvous and the
	// newcomer's redial alike — but the split keeps the code path the one
	// a distributed joiner would use.
	stillborn := func(err error) (Rank, error) {
		nw.mu.Lock()
		nw.view.dead[newRank] = true
		nw.mu.Unlock()
		return topology.NoRank, err
	}
	off, err := nw.rewirer.Offer()
	if err != nil {
		return stillborn(fmt.Errorf("core: attaching back-end: %w", err))
	}
	childEnd, err := nw.rewirer.Redial(off.Addr())
	if err != nil {
		_ = off.Close()
		return stillborn(fmt.Errorf("core: attaching back-end: %w", err))
	}
	parentEnd, err := off.Accept()
	if err != nil {
		transport.DropLink(childEnd)
		return stillborn(fmt.Errorf("core: attaching back-end: %w", err))
	}
	// Both ends of the new edge get credit accounting from birth (the
	// child end is wrapped by newBackEnd below).
	parentEnd = transport.NewFlowLink(parentEnd, nw.cfg.LinkWindow)
	nw.metrics.RewiredLinks.Add(1)

	// Hand the new link to the parent's event loop; the send completes
	// only once the loop is servicing attachments, so a stream created
	// after this call observes the new topology end to end. The parent
	// may have crashed (killed but not yet recovered) — fail rather than
	// block forever, and mark the stillborn leaf dead so stream
	// membership never includes it.
	if err := nw.handAttach(n, attachMsg{link: parentEnd, slot: slot}); err != nil {
		transport.DropLink(parentEnd)
		transport.DropLink(childEnd)
		return stillborn(err)
	}

	be := newBackEnd(nw, newRank, &transport.Endpoint{Rank: newRank, Parent: childEnd})
	nw.mu.Lock()
	nw.bes[newRank] = be
	nw.mu.Unlock()
	nw.wg.Add(1)
	go func() {
		defer nw.wg.Done()
		be.run()
	}()
	if nw.cfg.HeartbeatPeriod > 0 {
		go nw.heartbeatLoop(newRank, be.parentLink, be.killCh)
	}
	return newRank, nil
}

// ErrNoEligibleParent reports that PlaceBackEnd found no live internal
// process (or, on a flat tree, front-end) with a free child slot under the
// requested fan-out cap.
var ErrNoEligibleParent = errors.New("core: no eligible parent for placement")

// Placement parameterizes load-aware back-end placement. The zero value
// means "no load information, no fan-out cap" and degrades to first-fit.
type Placement struct {
	// Scores maps internal ranks to heat scores (higher = hotter), as
	// produced by the elastic controller. Ranks absent from the map score
	// zero (coldest). Nil means no load information.
	Scores map[Rank]float64
	// ScoresAt is when Scores was computed. Zero means unknown.
	ScoresAt time.Time
	// Staleness bounds how old Scores may be before placement falls back
	// to first-fit. Zero means scores never go stale.
	Staleness time.Duration
	// MaxFanOut caps live children per parent. Zero or negative means
	// uncapped.
	MaxFanOut int
}

// fresh reports whether the heat scores are usable for placement.
func (pl Placement) fresh() bool {
	if pl.Scores == nil {
		return false
	}
	if pl.Staleness <= 0 || pl.ScoresAt.IsZero() {
		return pl.Scores != nil
	}
	return time.Since(pl.ScoresAt) <= pl.Staleness
}

// PlaceBackEnd attaches a new back-end under the least-loaded eligible
// parent: the live internal process with the lowest heat score whose live
// child count is under the fan-out cap (ties break toward the lower rank).
// With no usable scores — nil, or older than pl.Staleness — it falls back
// to first-fit (lowest-rank eligible parent). On a flat tree the front-end
// is the only eligible parent. Returns ErrNoEligibleParent when every
// candidate is at the cap.
func (nw *Network) PlaceBackEnd(pl Placement) (Rank, error) {
	nw.mu.Lock()
	if nw.shutdown {
		nw.mu.Unlock()
		return topology.NoRank, ErrShutdown
	}
	// Candidates in rank order: live internal processes, or the front-end
	// alone on a flat tree (mirrors AttachBackEnd's validity rules).
	var cands []Rank
	for r := 1; r < len(nw.view.parent); r++ {
		if !nw.view.dead[r] && !nw.view.backend[r] {
			cands = append(cands, Rank(r))
		}
	}
	if len(cands) == 0 {
		cands = append(cands, 0)
	}
	if pl.MaxFanOut > 0 {
		kept := cands[:0]
		for _, r := range cands {
			if nw.view.liveChildCount(r) < pl.MaxFanOut {
				kept = append(kept, r)
			}
		}
		cands = kept
	}
	nw.mu.Unlock()
	if len(cands) == 0 {
		return topology.NoRank, ErrNoEligibleParent
	}

	best := cands[0]
	if pl.fresh() {
		for _, r := range cands[1:] {
			if pl.Scores[r] < pl.Scores[best] {
				best = r
			}
		}
		nw.metrics.PlacementsLoadAware.Add(1)
	} else {
		nw.metrics.PlacementsFirstFit.Add(1)
	}
	return nw.AttachBackEnd(best)
}

// treeNow returns the topology snapshot from network creation (plus
// attachments). Recovery does not rewrite this tree — the live shape in
// original numbering is tracked by the view; see Adopt.
func (nw *Network) treeNow() *topology.Tree {
	nw.mu.Lock()
	defer nw.mu.Unlock()
	return nw.tree
}
