package core

import (
	"errors"
	"fmt"

	"repro/internal/topology"
	"repro/internal/transport"
)

// ErrBadAttachParent reports an AttachBackEnd target that cannot accept a
// new child: one that is unknown or dead, a back-end (leaves have no
// routing loop), or the front-end of a tree that has internal
// communication processes (attach under one of those instead). The
// front-end itself is a valid parent only on flat (depth-1) topologies,
// where it is the sole routing process.
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
// tree, fail with ErrBadAttachParent. Works on any fabric: the network
// mints both ends of the new link and hands each to its owner.
func (nw *Network) AttachBackEnd(parent Rank) (Rank, error) {
	nw.recMu.Lock()
	defer nw.recMu.Unlock()
	nw.mu.Lock()
	_, err := nw.target(parent, ErrBadAttachParent, false, true)
	if err == nil && parent == 0 && len(nw.view.internal()) > 0 {
		err = fmt.Errorf("%w: %d is the front-end of a non-flat tree", ErrBadAttachParent, parent)
	}
	nw.mu.Unlock()
	if err != nil {
		return topology.NoRank, err
	}
	return nw.attach(parent)
}

// attach is the one path that adds a process to the running tree: a
// back-end. It registers the rank as parent's next child in the view,
// mints both ends of the edge (newPair), spawns the process on the child
// end, and installs the parent's end through the install command, which completes only once the parent routes with it: a
// stream created afterwards sees the new shape end to end. On failure —
// the parent crashed (killed but not yet recovered), or teardown — the
// rank is stillborn. Callers hold recMu.
func (nw *Network) attach(parent Rank) (Rank, error) {
	nw.mu.Lock()
	r, slot := nw.view.add(parent)
	pn := nw.byRank[parent]
	nw.mu.Unlock()
	// A failed attach leaves r stillborn: dead in the view, so it never
	// joins a stream (its slot at the parent stays, routing nothing), and
	// its process, if one was spawned, crashes.
	fail := func(err error) (Rank, error) {
		nw.mu.Lock()
		nw.view.dead[r] = true
		nw.mu.Unlock()
		nw.crash(r)
		return topology.NoRank, fmt.Errorf("core: attaching under %d: %w", parent, err)
	}

	parentEnd, childEnd, err := nw.newPair()
	if err != nil {
		return fail(err)
	}
	// Both ends of the new edge get credit accounting from birth (the
	// child end is wrapped by the process spawn starts).
	parentEnd = transport.NewFlowLink(parentEnd, nw.cfg.LinkWindow)
	nw.metrics.RewiredLinks.Add(1)

	nw.spawn(r, &transport.Endpoint{Rank: r, Parent: childEnd}, true)
	c := &cmdInstall{slots: []int{slot}, links: []transport.Link{parentEnd}, slotInfo: nw.slotInfoAt(parent)}
	if err := nw.install(pn, c); err != nil {
		transport.DropLink(parentEnd)
		return fail(err)
	}
	return r, nil
}
