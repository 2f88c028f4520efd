package core

import (
	"errors"
	"fmt"

	"repro/internal/topology"
)

// This file implements live tree mutation (DESIGN.md §13): two elective
// changes to a running overlay's shape, each built from the paths recovery
// already uses, so neither has a loss path of its own.
//
//   - SplitNode attaches a sibling for an internal process and reparents
//     the later half of its children onto it, giving that subtree a second
//     router and a second parent-link credit window. The children move by
//     the one reparent path recovery uses (Offer / redial / accept), so the
//     migration is lossless: the child's replay ring re-flushes on the new
//     link and receivers drop the duplicates.
//
//   - MergeNode removes an internal process by killing it and letting the
//     standard adoption fold its children into its parent: a controlled
//     failure, recovered by sender replay and state composition like any
//     crash.
//
// The engine never calls either on its own; the chaos harness
// (internal/eqclass/chaos) and the recovery detector's tests drive them.

// ErrNotMutable reports a SplitNode/MergeNode target the live engine
// cannot mutate.
var ErrNotMutable = errors.New("core: topology not mutable here")

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

// MergeNode removes an internal process from the aggregation path,
// shortening its subtree by one level: the process is terminated and the
// standard adoption folds its children into its parent. A merge is a
// controlled failure on purpose — it reuses the proven recovery path end
// to end, so it is lossless. The elective kill is counted in NodesFailed
// like any crash. compose is Adopt's: nil skips filter-state
// reconstruction.
func (nw *Network) MergeNode(cold Rank, compose StateComposer) (*Adoption, error) {
	nw.mu.Lock()
	_, err := nw.target(cold, ErrNotMutable, false, false)
	nw.mu.Unlock()
	if err != nil {
		return nil, err
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
