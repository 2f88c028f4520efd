package core

import (
	"sync"
	"sync/atomic"

	"repro/internal/filter"
	"repro/internal/packet"
	"repro/internal/topology"
	"repro/internal/transport"
)

// streamRoutes is one immutable routing snapshot: which child slots the
// stream multicasts to, each slot's dense synchronizer index, and the
// participating-children count. Swapped atomically as a whole so the hot
// dispatch paths read routing with a single atomic load, no lock.
type streamRoutes struct {
	// down holds, for each of the node's child link slots, whether the
	// stream has members in that child's subtree (multicast routing).
	down []bool
	// up maps a child link slot to its dense index among participating
	// children (the synchronizer's child-slot space), or -1.
	up []int
	// numUp is the count of participating children.
	numUp int
}

// routeSnapshot returns the stream's participating-children flags, safe
// for any goroutine.
func (ss *streamState) routeSnapshot() []bool {
	return ss.routes.Load().down
}

// slotInfo describes one child-link slot of a node for stream routing: the
// child's rank, whether it is dead, and the live back-ends in its subtree.
// Snapshots are taken from the network's liveView under Network.mu.
type slotInfo struct {
	child  Rank
	dead   bool
	leaves []Rank
}

// slotInfoAt snapshots the slot layout of rank's children from the live
// view. The result aligns index-for-index with the node's ep.Children.
func (nw *Network) slotInfoAt(rank Rank) []slotInfo {
	nw.mu.Lock()
	defer nw.mu.Unlock()
	return nw.view.slotInfoLocked(rank)
}

func (v *liveView) slotInfoLocked(rank Rank) []slotInfo {
	children := v.children[rank]
	out := make([]slotInfo, len(children))
	for i, c := range children {
		if c == topology.NoRank { // vacated slot (rolled-back adoption)
			out[i] = slotInfo{child: c, dead: true}
			continue
		}
		out[i] = slotInfo{child: c, dead: v.dead[c], leaves: v.subtreeLeaves(c)}
	}
	return out
}

// streamState is the per-node, per-stream routing and filtering state
// established by an opNewStream control message.
type streamState struct {
	id    uint32
	tform filter.Transformation
	sync  filter.Synchronizer
	// downTform, if non-nil, transforms each downstream packet at this
	// node before it fans out toward the members — the bidirectional
	// filtering extension the paper proposes as future work.
	downTform filter.Transformation

	// The full stream spec is retained so recovery can re-announce the
	// stream to adopted subtrees (repairing control messages lost with the
	// failed node).
	tformName, syncName, downName string
	memberList                    []Rank
	members                       map[Rank]bool
	// prio is the stream's egress scheduling priority (StreamSpec.Priority,
	// carried by the announcement so every level schedules consistently).
	prio int

	// st is the stream's receiver at the root (rank 0), where the stream
	// was opened, and nil at every other rank. budget and tc are set only
	// at the root for streams opened inside a tenant session: budget is the
	// tenant's one-window credit budget (front-end sends acquire through
	// it) and tc the tenant's traffic counters. All immutable for the
	// stream's lifetime; budget and tc are nil for legacy namespace-0
	// streams.
	st     *Stream
	budget *transport.Budget
	tc     *TenantCounters

	// pipeMu serializes access to the stream's filter state — synchronizer,
	// transformation, down-transformation, dedup windows — between the
	// stream's up-lane and down-lane workers. It is uncontended in steady
	// state; the filters themselves need no locks of their own.
	pipeMu sync.Mutex

	// Exactly-once per-stream state, guarded by pipeMu like the filters:
	// dedup holds one duplicate-detection window per packet origin, and
	// seqCtr stamps this node's fresh transform outputs on the stream.
	dedup  map[Rank]*seqWin
	seqCtr uint64

	// The stream is its own upward sink at node n (see begin and Emit),
	// bound once: rounds is round's method value. held is the release's
	// latest output, sent when the next comes or the release ends.
	n      *node
	rounds filter.RoundFunc
	block  bool
	ret    pendRetire
	held   *packet.Packet

	// The down lane's reused down-transform input and outputs.
	downIn  [1]*packet.Packet
	downOut filter.Outputs

	// routes is the current immutable routing snapshot, read lock-free by
	// user-goroutine multicasts and pipeline workers; writers (stream
	// creation, the install command under quiesce) swap in a fresh
	// snapshot. The filters themselves (sync, tform, downTform) take no
	// lock: they are driven only by the router's pipeline workers under
	// pipeMu, or by the router alone while the pipeline is quiesced.
	routes atomic.Pointer[streamRoutes]
}

// newStreamState instantiates filters, routing and the upward sink for a
// stream at node n. members must be back-end ranks.
func newStreamState(n *node, id uint32, tformName, syncName, downTformName string,
	prio int, members []Rank) (*streamState, error) {

	reg := n.nw.registry
	tf, err := reg.NewTransformation(tformName)
	if err != nil {
		return nil, err
	}
	sy, err := reg.NewSynchronizer(syncName)
	if err != nil {
		return nil, err
	}
	var dtf filter.Transformation
	if downTformName != "" {
		dtf, err = reg.NewTransformation(downTformName)
		if err != nil {
			return nil, err
		}
	}
	memberSet := make(map[Rank]bool, len(members))
	for _, m := range members {
		memberSet[m] = true
	}
	ss := &streamState{
		id:         id,
		tform:      tf,
		sync:       sy,
		downTform:  dtf,
		tformName:  tformName,
		syncName:   syncName,
		downName:   downTformName,
		memberList: append([]Rank(nil), members...),
		members:    memberSet,
		prio:       prio,
	}
	ss.n, ss.rounds = n, ss.round
	r := routesFor(n.nw.slotInfoAt(n.rank), memberSet)
	ss.routes.Store(r)
	setNumChildren(sy, r.numUp)
	setNumChildren(tf, r.numUp)
	return ss, nil
}

// routesFor computes a stream's routing from a slot snapshot: a slot
// routes when it is alive and its subtree holds a member (a new slot whose
// subtree holds none routes nothing), and participating slots take dense
// synchronizer indices in slot order.
func routesFor(slots []slotInfo, members map[Rank]bool) *streamRoutes {
	r := &streamRoutes{down: make([]bool, len(slots)), up: make([]int, len(slots))}
	for i, sl := range slots {
		r.up[i] = -1
		if sl.dead {
			continue
		}
		for _, leaf := range sl.leaves {
			if members[leaf] {
				r.down[i] = true
				break
			}
		}
		if r.down[i] {
			r.up[i] = r.numUp
			r.numUp++
		}
	}
	return r
}

// setNumChildren tells a child-aware filter how many children feed it.
func setNumChildren(f any, n int) {
	if ca, ok := f.(filter.ChildAware); ok {
		ca.SetNumChildren(n)
	}
}

// rebuildSlots swaps in the routing of a fresh slot snapshot and rewires
// the synchronizer accordingly, for every install command that changes the
// node's child set: packets already queued per surviving slot are
// preserved when the synchronizer supports remapping, and rounds
// completed by the removal of a dead slot go up at once, from router
// context.
func (ss *streamState) rebuildSlots(slots []slotInfo) {
	old := ss.routes.Load()
	r := routesFor(slots, ss.members)
	ss.routes.Store(r)
	if rm, ok := ss.sync.(filter.SlotRemapper); ok {
		// remap[old dense index] = new dense index, or -1 for a slot that
		// no longer participates.
		remap := make([]int, old.numUp)
		for i := range remap {
			remap[i] = -1
		}
		for i, u := range old.up {
			if u >= 0 && i < len(r.up) {
				remap[u] = r.up[i]
			}
		}
		rm.RemapSlots(remap, r.numUp, ss.begin(false, pendRetire{}))
		ss.end()
	} else {
		setNumChildren(ss.sync, r.numUp)
	}
	setNumChildren(ss.tform, r.numUp)
}

// announcePacket rebuilds the opNewStream control message for this stream,
// used to (re-)establish it in adopted subtrees during recovery.
func (ss *streamState) announcePacket() *packet.Packet {
	return newStreamPacket(ss.id, ss.tformName, ss.syncName, ss.downName, ss.prio, ss.memberList)
}

// syncSlot maps a child link slot to the synchronizer's dense slot space
// via the lock-free routing snapshot.
func (ss *streamState) syncSlot(childIdx int) int {
	r := ss.routes.Load()
	if childIdx >= 0 && childIdx < len(r.up) {
		return r.up[childIdx]
	}
	return -1
}

// drain force-releases everything the synchronizer holds.
func (ss *streamState) drain(block bool) {
	if d, ok := ss.sync.(filter.Drainer); ok {
		d.Drain(ss.begin(block, pendRetire{}))
		ss.end()
	}
}

// begin starts a release, under pipeMu or with the pipeline quiesced, and
// returns the round receiver. block selects between the pipeline workers'
// hard window bound and the router's overflow mode; ret is the deferred
// retirement of the run that caused the release, if any.
func (ss *streamState) begin(block bool, ret pendRetire) filter.RoundFunc {
	ss.block, ss.ret = block, ret
	return ss.rounds
}

// round runs the transformation over one released round into the stream.
func (ss *streamState) round(batch []*packet.Packet) {
	if len(batch) == 0 {
		return
	}
	ss.n.m.Batches.Add(1)
	if err := ss.tform.Apply(batch, ss); err != nil {
		ss.n.m.FilterErrors.Add(1)
	}
}

// Emit takes one output. The root delivers it. Elsewhere an output the
// filter built (Seq == 0), which nobody else holds, is stamped in place
// with the stream, this node's rank and its next origin sequence; a
// forwarded one goes on as it is: its stream is already ss.id, and its
// SrcRank and origin Seq name its creator — how the front-end recognizes
// a replayed copy.
func (ss *streamState) Emit(p *packet.Packet) {
	n := ss.n
	if n.rank == 0 {
		ss.st.deliverUp(p)
		return
	}
	if p.Seq == 0 {
		ss.seqCtr++
		p.StreamID, p.SrcRank, p.Seq = ss.id, n.rank, packet.MakeSeq(n.rank, ss.seqCtr)
	}
	if ss.held != nil {
		_ = n.parentOut.sendCtx(ss.held, ss.prio, ss.block)
	}
	ss.held = p
}

// end sends the held output with the retirement attached, and reports
// whether it attached it: false when the release produced no output (the
// synchronizer holding, every packet a duplicate), and the caller retires
// at once. A held run is thus acknowledged before its round completes: if
// this node dies it is in no sender's ring, and only state composition of
// a composable filter restores it (DESIGN.md §10).
func (ss *streamState) end() bool {
	p, ret := ss.held, ss.ret
	ss.held, ss.ret = nil, pendRetire{}
	if p == nil {
		return false
	}
	if ret.src == nil {
		_ = ss.n.parentOut.sendCtx(p, ss.prio, ss.block)
		return false
	}
	_ = ss.n.parentOut.sendAck(p, ss.prio, ss.block, ret)
	return true
}

// dropDups filters replay duplicates out of an inbound run by origin
// sequence (callers hold pipeMu). The filtered slice is
// freshly allocated, never a compaction of run: on the in-process fabric
// run shares its backing array with the slice the sender passed to
// SendBatch, which the sender still reads after the send to append the
// sent prefix to its replay ring. When nothing is dropped, run is returned
// as-is so the common case stays zero-copy. The caller's retirement keeps
// counting the original run length either way: the peer spent credits and
// ring slots on the duplicate copies too.
func (ss *streamState) dropDups(run []*packet.Packet, m *Metrics) []*packet.Packet {
	kept := run
	alloc := false
	for i, p := range run {
		if p.Seq != 0 && ss.seenSeq(p) {
			m.DupsDropped.Add(1)
			if !alloc {
				kept = append(make([]*packet.Packet, 0, len(run)-1), run[:i]...)
				alloc = true
			}
			continue
		}
		if alloc {
			kept = append(kept, p)
		}
	}
	return kept
}

// seenSeq records p's origin sequence in the stream's dedup window and
// reports whether it was already delivered here. Callers hold pipeMu.
func (ss *streamState) seenSeq(p *packet.Packet) bool {
	o := packet.SeqOrigin(p.Seq)
	w := ss.dedup[o]
	if w == nil {
		if ss.dedup == nil {
			ss.dedup = map[Rank]*seqWin{}
		}
		w = &seqWin{}
		ss.dedup[o] = w
	}
	return w.seen(packet.SeqCounter(p.Seq))
}
