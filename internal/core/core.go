// Package core implements the TBON computational model that is the paper's
// primary contribution: a tree of communication processes connecting an
// application front-end (the tree root) to application back-ends (the
// leaves) via FIFO channels, with stateful filters executing at every level
// to synchronize and transform application-level packets in flight.
//
// The engine instantiates one goroutine-driven node per topology rank.
// Links between nodes come from a pluggable transport fabric: in-process
// channels (the default, suitable for simulating overlays of thousands of
// nodes on one machine) or real TCP sockets.
//
// Usage mirrors MRNet: the front-end owns a Network, opens Streams over
// subsets of back-ends naming a transformation filter and a synchronization
// filter, multicasts requests downstream, and receives reduced results
// upstream. Back-end application code runs in a per-leaf handler.
//
//	nw, _ := core.NewNetwork(core.Config{
//	    Topology: tree,
//	    OnBackEnd: func(be *core.BackEnd) error {
//	        for {
//	            p, err := be.Recv()
//	            if err != nil { return nil }
//	            be.Send(p.StreamID, p.Tag, "%f", localValue)
//	        }
//	    },
//	})
//	st, _ := nw.NewStream(core.StreamSpec{Transformation: "sum", Synchronization: "waitforall"})
//	st.Multicast(tag, "%d", int64(1))
//	result, _ := st.Recv()
package core

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/filter"
	"repro/internal/packet"
	"repro/internal/topology"
	"repro/internal/transport"
)

// Rank aliases the overlay rank type.
type Rank = packet.Rank

// TagFirstApplication re-exports the first packet tag available to
// applications; lower tags are reserved for control traffic.
const TagFirstApplication = packet.TagFirstApplication

// TransportKind selects the link substrate for a Network.
type TransportKind int

const (
	// ChanTransport wires nodes with in-process channels (default).
	ChanTransport TransportKind = iota
	// TCPTransport wires nodes with loopback TCP sockets.
	TCPTransport
)

// Config describes a Network. The data plane and the recovery semantics
// are not configurable: a subtree orphaned by a crashed parent survives and
// awaits grandparent adoption (Adopt / internal/recovery), and upstream
// delivery across the failure is exactly-once (DESIGN.md §10) — senders
// stamp per-origin sequence numbers and keep flushed-but-unacknowledged
// packets in a replay ring bounded by LinkWindow; receivers acknowledge
// cumulatively on the credit grants and retire inbound credits only when
// their own outputs are acknowledged, so a grant means "delivered at the
// front-end"; on reparent the ring replays and receivers drop the
// duplicates by sequence number.
type Config struct {
	// Topology is the process tree; required.
	Topology *topology.Tree
	// Registry supplies filters by name. Nil means filter.NewRegistry().
	Registry *filter.Registry
	// Transport selects the link substrate; default ChanTransport.
	Transport TransportKind
	// ChanBuf overrides the per-direction channel buffer (0 = default).
	ChanBuf int
	// WrapFabric, if non-nil, is applied to the fabric before nodes start;
	// used to interpose the simnet cost model on every link.
	WrapFabric func([]*transport.Endpoint)
	// OnBackEnd runs application code at each back-end in its own
	// goroutine. May be nil for networks driven purely by multicast tests.
	OnBackEnd func(be *BackEnd) error
	// Batch tunes per-link egress batching (see BatchPolicy): every link's
	// outbound packets queue and flush as multi-packet frames by size, age
	// or control. Unset fields take DefaultBatchPolicy's values, so the
	// zero value is that policy; MaxBatch 1 flushes every packet.
	Batch BatchPolicy
	// LinkWindow is the per-link, per-direction credit window, in data
	// packets, of the end-to-end flow control every link runs. Each link's
	// egress queue is hard-bounded at the window, senders may have at most
	// one window of un-retired packets in flight toward a peer, and
	// receivers grant credits back only as their pipelines actually retire
	// packets — so a slow consumer throttles its producers losslessly, with
	// per-node queued-data memory bounded by links × window packets (see
	// DESIGN.md §8). Within the window, egress is scheduled control >
	// StreamSpec.Priority > round-robin across streams. 0 selects
	// DefaultLinkWindow; NewNetwork rejects negative values.
	LinkWindow int
	// Shards is ignored: every routing process runs one pipeline, an up
	// lane and a down lane; retained only until the benchmark stops
	// assigning it (ROADMAP item 1, first bullet).
	Shards int
	// Recoverable is ignored: always on; retained only until the benchmark
	// stops assigning it (ROADMAP item 1, first bullet).
	Recoverable bool
	// HeartbeatPeriod, when positive, makes every non-root process emit
	// periodic liveness beacons to its parent, from its upstream queue's
	// clock; the parent's record feeds the failure detector in
	// internal/recovery (Network.Heartbeats).
	HeartbeatPeriod time.Duration
	// ExactlyOnce is ignored: always on; retained only until the benchmark
	// stops assigning it (ROADMAP item 1, first bullet).
	ExactlyOnce bool
}

// DefaultLinkWindow is the credit window of a zero Config.LinkWindow.
const DefaultLinkWindow = 64

// Metrics exposes cheap global counters for tests and benchmarks.
type Metrics struct {
	PacketsUp    atomic.Int64 // upstream data packets entering nodes
	PacketsDown  atomic.Int64 // downstream data packets entering nodes
	Batches      atomic.Int64 // synchronizer batches transformed
	FilterErrors atomic.Int64 // transformation errors (packets dropped)

	// Pipeline observability.
	ShardDispatches     atomic.Int64 // work items routed to the routers' pipeline lanes
	ShardQueueHighWater atomic.Int64 // deepest pipeline lane observed (items)

	// Egress batching observability.
	PacketsQueued   atomic.Int64 // packets accepted by egress queues
	FramesSent      atomic.Int64 // frames flushed to links by egress queues
	FlushSize       atomic.Int64 // flushes triggered by a full window
	FlushAge        atomic.Int64 // retries after the MaxDelay back-off (failed flush, replacement link)
	FlushIdle       atomic.Int64 // flushes once the producer yields: the queue's clock or an on-caller idle point
	FlushGrant      atomic.Int64 // flushes resumed by a credit grant after a stall
	FlushControl    atomic.Int64 // flushes forced by control packets
	FlushDrain      atomic.Int64 // flushes at shutdown/reparent drains
	EgressHighWater atomic.Int64 // deepest egress queue observed (packets)
	EgressDrops     atomic.Int64 // packets dropped at a dead or fenced link

	// Credit-based flow control observability.
	CreditStalls atomic.Int64 // flushes cut short by an exhausted peer window
	CreditGrants atomic.Int64 // credit grants returned to peers, alone or inside a data write
	GrantsRidden atomic.Int64 // credit grants that left inside a data write

	// Multi-tenant session fabric observability.
	SessionsOpened   atomic.Int64 // tenant sessions admitted (OpenSession)
	SessionsClosed   atomic.Int64 // tenant sessions torn down (CloseSession)
	SessionsRejected atomic.Int64 // sessions refused by admission control

	// Failure detection and recovery observability.
	HeartbeatsSent       atomic.Int64 // liveness beacons emitted
	HeartbeatsSeen       atomic.Int64 // beacons heard by parents
	NodesFailed          atomic.Int64 // processes crashed (Kill injections)
	RecoveriesCompleted  atomic.Int64 // successful live adoptions
	OrphansAdopted       atomic.Int64 // subtrees re-parented by recovery
	RewiredLinks         atomic.Int64 // replacement links minted (adopt/attach)
	RecoveryNanos        atomic.Int64 // total time spent rewiring (ns)
	ShutdownSendFailures atomic.Int64 // shutdown announcements to dead links

	// Exactly-once recovery observability.
	ReplayRingHighWater atomic.Int64 // deepest sender replay ring observed (packets)
	PacketsReplayed     atomic.Int64 // ring packets re-flushed after a reparent
	DupsDropped         atomic.Int64 // replay duplicates dropped by receivers

	// Live tree-mutation observability.
	TopologyMutations atomic.Int64 // live tree mutations applied (splits + merges)
	NodesSplit        atomic.Int64 // nodes split into a sibling pair (SplitNode)
	NodesMerged       atomic.Int64 // nodes merged away into their parent (MergeNode)
}

// Network is a running TBON instance. The front-end API (NewStream,
// Shutdown) is safe for concurrent use.
type Network struct {
	cfg      Config
	registry *filter.Registry
	metrics  Metrics
	// rewirer mints replacement links for live topology mutation (recovery
	// reparenting, AttachBackEnd): in-process pairs on ChanTransport,
	// loopback listen+redial on TCPTransport.
	rewirer transport.Rewirer

	// root is the front-end's router, the node at rank 0 (also byRank[0]).
	root *node
	wg   sync.WaitGroup

	// dying closes when Shutdown begins; orphaned processes, which no
	// shutdown announcement can reach, watch it.
	dying chan struct{}
	// recMu serializes live tree mutations (Adopt, SplitNode,
	// AttachBackEnd), so the slot snapshots one of them installs are never
	// interleaved with another's.
	recMu sync.Mutex

	mu      sync.Mutex
	view    *liveView // current shape in original numbering; Tree() reads it
	byRank  map[Rank]*node
	bes     map[Rank]*BackEnd
	streams map[uint32]*Stream
	// nextSeq allocates per-namespace stream sequence numbers (stream id =
	// ns<<20 | seq); namespace 0 is the legacy single-tenant space.
	nextSeq map[uint32]uint32
	// sessions holds the open tenant sessions by namespace; tenantStats
	// retains per-tenant counters past session close so final stats survive.
	sessions    map[uint32]*sessionState
	tenantStats map[string]*TenantCounters
	shutdown    bool
	beErrs      []error
}

// ErrShutdown is returned by front-end operations on a stopped network.
var ErrShutdown = errors.New("core: network is shut down")

// NewNetwork builds the fabric, starts every overlay node, and launches
// back-end handlers. The caller must eventually call Shutdown.
func NewNetwork(cfg Config) (*Network, error) {
	if cfg.Topology == nil {
		return nil, errors.New("core: Config.Topology is required")
	}
	if cfg.Topology.Len() < 2 {
		return nil, errors.New("core: topology needs at least one back-end")
	}
	reg := cfg.Registry
	if reg == nil {
		reg = filter.NewRegistry()
	}
	if cfg.Batch.MaxBatch < 0 || cfg.LinkWindow < 0 {
		return nil, fmt.Errorf("core: Config.Batch.MaxBatch (%d) and Config.LinkWindow (%d) must not be negative", cfg.Batch.MaxBatch, cfg.LinkWindow)
	}
	cfg.Batch = cfg.Batch.normalized()
	if cfg.LinkWindow == 0 {
		cfg.LinkWindow = DefaultLinkWindow
	}
	var eps []*transport.Endpoint
	switch cfg.Transport {
	case ChanTransport:
		eps = transport.NewChanFabric(cfg.Topology, cfg.ChanBuf)
	case TCPTransport:
		var err error
		eps, err = transport.NewTCPFabric(cfg.Topology)
		if err != nil {
			return nil, fmt.Errorf("core: building TCP fabric: %w", err)
		}
	default:
		return nil, fmt.Errorf("core: unknown transport %d", cfg.Transport)
	}
	if cfg.WrapFabric != nil {
		cfg.WrapFabric(eps)
	}

	var rewirer transport.Rewirer
	switch cfg.Transport {
	case ChanTransport:
		rewirer = transport.NewChanRewirer(cfg.ChanBuf)
	case TCPTransport:
		rewirer = &transport.TCPRewirer{}
	}

	nw := &Network{
		cfg:      cfg,
		rewirer:  rewirer,
		registry: reg,
		streams:  map[uint32]*Stream{},
		nextSeq:  map[uint32]uint32{},
		dying:    make(chan struct{}),
		view:     newLiveView(cfg.Topology),
		byRank:   map[Rank]*node{},
		bes:      map[Rank]*BackEnd{},
	}
	// Start the front-end's router, then every communication process and
	// back-end.
	nw.root = nw.spawn(0, eps[0], false)
	for r := 1; r < cfg.Topology.Len(); r++ {
		nw.spawn(Rank(r), eps[r], cfg.Topology.Node(Rank(r)).IsLeaf())
	}
	return nw, nil
}

// wrapEnds threads credit accounting through a routing process's own link
// ends.
func wrapEnds(ep *transport.Endpoint, window int) {
	if ep.Parent != nil {
		ep.Parent = transport.NewFlowLink(ep.Parent, window)
	}
	for i, c := range ep.Children {
		if c != nil {
			ep.Children[i] = transport.NewFlowLink(c, window)
		}
	}
}

// spawn starts the process at rank r on its endpoint — a back-end when
// backend is set, else a router. Every process wraps its own link ends
// with credit accounting before it starts (wrapEnds, newBackEnd), so both
// directions of every edge are governed independently. NewNetwork starts
// every process through it, and so does the attach path. It returns the
// router, nil for a back-end.
func (nw *Network) spawn(r Rank, ep *transport.Endpoint, backend bool) *node {
	var run func()
	var n *node
	nw.mu.Lock()
	if backend {
		be := newBackEnd(nw, r, ep)
		nw.bes[r] = be
		run = be.run
	} else {
		wrapEnds(ep, nw.cfg.LinkWindow)
		n = newNode(nw, r, ep)
		nw.byRank[r] = n
		run = n.run
	}
	nw.mu.Unlock()
	nw.wg.Add(1)
	go func() {
		defer nw.wg.Done()
		run()
	}()
	return n
}

// upstreamQueue builds rank r's queue on its parent link l, its blocked
// senders released by kill or the network's teardown. With heartbeats on,
// its clock also sends the rank's beacon every period; the root has no
// parent and beacons to nobody.
func (nw *Network) upstreamQueue(r Rank, l transport.Link, kill <-chan struct{}) *egressQueue {
	q := newUpstreamQueue(l, nw.cfg.Batch, &nw.metrics)
	q.bindStops(kill, nw.dying)
	if nw.cfg.HeartbeatPeriod > 0 {
		q.beacon(r, nw.cfg.HeartbeatPeriod)
	}
	return q
}

// Tree returns the overlay's shape as a topology in original numbering,
// built from the live view on each call: every rank ever assigned is in it,
// attached back-ends and split siblings included. A dead rank keeps its
// last parent, so a failed router whose orphans were adopted, or a
// stillborn attach or split sibling, appears as a childless node that
// Leaves lists. LiveParent and LiveChildren give the live shape.
func (nw *Network) Tree() *topology.Tree {
	nw.mu.Lock()
	parents := append([]Rank(nil), nw.view.parent...)
	nw.mu.Unlock()
	t, err := topology.FromParents(parents)
	if err != nil {
		panic("core: the live view is not a tree: " + err.Error())
	}
	return t
}

// Metrics returns the network's counters.
func (nw *Network) Metrics() *Metrics { return &nw.metrics }

// Snapshot renders every counter as a name -> value map: the stable,
// tooling-friendly view used by tbon-query -stats and the experiment
// harness. Values are read individually (not atomically as a set), which
// is fine for observability.
func (m *Metrics) Snapshot() map[string]int64 {
	return map[string]int64{
		"packets_up":             m.PacketsUp.Load(),
		"packets_down":           m.PacketsDown.Load(),
		"batches":                m.Batches.Load(),
		"filter_errors":          m.FilterErrors.Load(),
		"shard_dispatches":       m.ShardDispatches.Load(),
		"shard_queue_high_water": m.ShardQueueHighWater.Load(),
		"packets_queued":         m.PacketsQueued.Load(),
		"frames_sent":            m.FramesSent.Load(),
		"flush_size":             m.FlushSize.Load(),
		"flush_age":              m.FlushAge.Load(),
		"flush_idle":             m.FlushIdle.Load(),
		"flush_grant":            m.FlushGrant.Load(),
		"flush_control":          m.FlushControl.Load(),
		"flush_drain":            m.FlushDrain.Load(),
		"egress_high_water":      m.EgressHighWater.Load(),
		"egress_drops":           m.EgressDrops.Load(),
		"credit_stalls":          m.CreditStalls.Load(),
		"credit_grants":          m.CreditGrants.Load(),
		"grants_ridden":          m.GrantsRidden.Load(),
		"sessions_opened":        m.SessionsOpened.Load(),
		"sessions_closed":        m.SessionsClosed.Load(),
		"sessions_rejected":      m.SessionsRejected.Load(),
		"heartbeats_sent":        m.HeartbeatsSent.Load(),
		"heartbeats_seen":        m.HeartbeatsSeen.Load(),
		"nodes_failed":           m.NodesFailed.Load(),
		"recoveries_completed":   m.RecoveriesCompleted.Load(),
		"orphans_adopted":        m.OrphansAdopted.Load(),
		"rewired_links":          m.RewiredLinks.Load(),
		"recovery_nanos":         m.RecoveryNanos.Load(),
		"shutdown_send_failures": m.ShutdownSendFailures.Load(),
		"replay_ring_high_water": m.ReplayRingHighWater.Load(),
		"packets_replayed":       m.PacketsReplayed.Load(),
		"dups_dropped":           m.DupsDropped.Load(),
		"topology_mutations":     m.TopologyMutations.Load(),
		"nodes_split":            m.NodesSplit.Load(),
		"nodes_merged":           m.NodesMerged.Load(),
	}
}

// Shutdown gracefully stops the overlay: it announces shutdown downstream,
// waits for every node to drain and exit, and closes all streams. It
// returns the first back-end handler error, if any.
func (nw *Network) Shutdown() error {
	nw.mu.Lock()
	if nw.shutdown {
		nw.mu.Unlock()
		return nil
	}
	nw.shutdown = true
	nw.mu.Unlock()
	// Wake orphaned processes, which no downstream announcement can
	// reach.
	close(nw.dying)

	// Announce shutdown to every child subtree. A dead child is already
	// gone; count the failure so dead links are observable, and keep going.
	down := packet.MustNew(packet.TagControl, 0, 0, ctrlShutdownFormat, int64(opShutdown))
	nw.metrics.ShutdownSendFailures.Add(int64(nw.root.floodNow(down)))
	nw.wg.Wait()

	nw.mu.Lock()
	defer nw.mu.Unlock()
	for _, st := range nw.streams {
		st.closeRecv()
	}
	if len(nw.beErrs) > 0 {
		return nw.beErrs[0]
	}
	return nil
}

func (nw *Network) recordBackEndErr(err error) {
	nw.mu.Lock()
	defer nw.mu.Unlock()
	nw.beErrs = append(nw.beErrs, err)
}
