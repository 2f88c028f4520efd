// Fixture for the mutationquiesce analyzer: topology-mutation primitives
// must run under the quiesce barrier.
package mutationquiesce

type link struct{}

type node struct{}

func (n *node) quiesceShards(f func()) { f() }
func (n *node) quiesce(f func())       { f() }
func (n *node) installChild(l *link)   {}
func (n *node) setLink(l *link)        {}
func (n *node) applyInstall()          {}
func (n *node) rebuildSlots(k int)     {}

func cond() bool { return false }

// wrapped mutates inside the barrier's func literal: the compliant shape.
func wrapped(n *node, l *link) {
	n.quiesceShards(func() {
		n.installChild(l)
		n.setLink(l)
	})
}

// wrappedNested reaches the primitive through a closure nested inside the
// barrier literal; span containment still covers it.
func wrappedNested(n *node, l *link) {
	n.quiesce(func() {
		fix := func() { n.applyInstall() }
		fix()
	})
}

// bare mutates with the data plane still running.
func bare(n *node, l *link) {
	n.installChild(l) // want `installChild mutates routing state outside the quiesce barrier`
}

// dominated parks the plane with an empty barrier first (the shutdown
// shape): every path to the mutation passes the quiesce.
func dominated(n *node, l *link) {
	n.quiesceShards(func() {})
	n.setLink(l)
}

// dominatedInBranch quiesces unconditionally before branching; the
// mutation inside the branch is still dominated.
func dominatedInBranch(n *node, l *link) {
	n.quiesceShards(func() {})
	if cond() {
		n.installChild(l)
	}
}

// conditionalBarrier only quiesces on one arm, so the mutation after the
// if is reachable with the plane live.
func conditionalBarrier(n *node, l *link) {
	if cond() {
		n.quiesceShards(func() {})
	}
	n.setLink(l) // want `setLink mutates routing state outside the quiesce barrier`
}

// barrierTooLate quiesces after the mutation; first execution races.
func barrierTooLate(n *node, l *link) {
	n.installChild(l) // want `installChild mutates routing state outside the quiesce barrier`
	n.quiesceShards(func() {})
}

// escapedClosure hands the primitive to a goroutine outside any barrier.
func escapedClosure(n *node, l *link) {
	go func() {
		n.setLink(l) // want `setLink mutates routing state outside the quiesce barrier`
	}()
}

// waived is deliberate pre-publication setup, suppressed by annotation.
func waived(n *node, l *link) {
	n.rebuildSlots(0) //tbon:allow mutationquiesce state not yet published to any shard
}
