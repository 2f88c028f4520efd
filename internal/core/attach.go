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
// tree, fail with ErrBadAttachParent. Works on any fabric: the new link
// is minted by the network's Rewirer (the parent side listens, the
// newcomer redials).
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
	return nw.attach(parent, true)
}

// attach is the one path that adds a process to the running tree — a
// back-end, or (for a split) an internal router that starts with no
// children. It registers the rank as parent's next child in the view,
// mints both halves of the edge through the fabric's rewiring protocol
// (the network process owns the parent's rendezvous and the newcomer's
// redial alike, but the split keeps the code path the one a distributed
// joiner would use), spawns the process, and installs the parent's end
// through the install command, which completes only once the parent
// routes with it: a stream created afterwards sees the new shape end to
// end. On failure — the parent crashed (killed but not yet recovered), or
// teardown — the rank is stillborn. Callers hold recMu.
func (nw *Network) attach(parent Rank, backend bool) (Rank, error) {
	nw.mu.Lock()
	r, slot := nw.view.add(parent, backend)
	pn := nw.byRank[parent]
	var streams []*streamState
	if !backend {
		for _, st := range nw.streams {
			streams = append(streams, st.ss)
		}
	}
	nw.mu.Unlock()
	fail := func(err error) (Rank, error) {
		nw.stillborn(r)
		return topology.NoRank, fmt.Errorf("core: attaching under %d: %w", parent, err)
	}

	off, err := nw.rewirer.Offer()
	if err != nil {
		return fail(err)
	}
	childEnd, err := nw.rewirer.Redial(off.Addr())
	if err != nil {
		_ = off.Close()
		return fail(err)
	}
	parentEnd, err := off.Accept()
	if err != nil {
		transport.DropLink(childEnd)
		return fail(err)
	}
	// Both ends of the new edge get credit accounting from birth (the
	// child end is wrapped by the process spawn starts).
	parentEnd = transport.NewFlowLink(parentEnd, nw.cfg.LinkWindow)
	nw.metrics.RewiredLinks.Add(1)

	// Spawn reader-first, so the pre-announcements below cannot wedge on a
	// full link buffer.
	nw.spawn(r, &transport.Endpoint{Rank: r, Parent: childEnd}, backend)
	// Pre-announce every live stream to a new router before the parent
	// learns of it: the announcements are the first packets it receives,
	// so its stream table exists before any data can arrive. (Data racing
	// ahead would still be safe — unknown streams pass through or flood —
	// this just shortens the pass-through window.)
	for _, ss := range streams {
		_ = parentEnd.Send(ss.announcePacket())
	}
	c := &cmdInstall{slots: []int{slot}, links: []transport.Link{parentEnd}, slotInfo: nw.slotInfoAt(parent)}
	if err := nw.install(pn, c); err != nil {
		transport.DropLink(parentEnd)
		return fail(err)
	}
	return r, nil
}

// stillborn retires rank r, whose attach or split could not complete: the
// view marks it dead, so it never joins a stream (its slot at the parent
// stays, routing nothing), and its process, if one was spawned, crashes.
func (nw *Network) stillborn(r Rank) {
	nw.mu.Lock()
	nw.view.dead[r] = true
	nw.mu.Unlock()
	nw.crash(r)
}
