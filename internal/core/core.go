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
	"reflect"
	"strings"
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
	// DESIGN.md §8). Within the window, each link's queue is one FIFO:
	// data and control leave in the order they were sent. 0 selects
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

// Metrics is one set of the engine's counters. Each rank's queues,
// pipeline and link readers count into the rank's own set, so no two ranks
// write one cache line; recovery, attaches, sessions and shutdown count
// into the network's. A field's snap tag is its Snapshot name; ",max"
// marks a high-water gauge, which sets combine by maximum, not by sum.
type Metrics struct {
	PacketsUp    atomic.Int64 `snap:"packets_up"`    // upstream data packets entering nodes
	PacketsDown  atomic.Int64 `snap:"packets_down"`  // downstream data packets entering nodes
	Batches      atomic.Int64 `snap:"batches"`       // synchronizer batches transformed
	FilterErrors atomic.Int64 `snap:"filter_errors"` // transformation errors (packets dropped)

	// Pipeline observability.
	ShardDispatches     atomic.Int64 `snap:"shard_dispatches"`           // work items routed to the routers' pipeline lanes
	ShardQueueHighWater atomic.Int64 `snap:"shard_queue_high_water,max"` // deepest pipeline lane observed (items)

	// Egress batching observability.
	PacketsQueued   atomic.Int64 `snap:"packets_queued"`        // packets accepted by egress queues
	FramesSent      atomic.Int64 `snap:"frames_sent"`           // frames flushed to links by egress queues
	FlushSize       atomic.Int64 `snap:"flush_size"`            // flushes triggered by a full window
	FlushAge        atomic.Int64 `snap:"flush_age"`             // retries after the MaxDelay back-off (failed flush, replacement link)
	FlushIdle       atomic.Int64 `snap:"flush_idle"`            // flushes at a producer's own idle point: a lane drained, BackEnd.Recv, a root send
	FlushClock      atomic.Int64 `snap:"flush_clock"`           // idle flushes the queue's clock ran, armed at zero: no producer idle point, a hand-off
	FlushGrant      atomic.Int64 `snap:"flush_grant"`           // flushes resumed by a credit grant after a stall
	FlushControl    atomic.Int64 `snap:"flush_control"`         // flushes forced by control packets
	FlushDrain      atomic.Int64 `snap:"flush_drain"`           // flushes at shutdown/reparent drains
	EgressHighWater atomic.Int64 `snap:"egress_high_water,max"` // deepest egress queue observed (packets)
	EgressDrops     atomic.Int64 `snap:"egress_drops"`          // packets dropped at a dead or fenced link

	// Credit-based flow control observability.
	CreditStalls atomic.Int64 `snap:"credit_stalls"` // flushes cut short by an exhausted peer window
	CreditGrants atomic.Int64 `snap:"credit_grants"` // credit grants returned to peers, alone or inside a data write
	GrantsRidden atomic.Int64 `snap:"grants_ridden"` // credit grants that left inside a data write

	// Multi-tenant session fabric observability.
	SessionsOpened   atomic.Int64 `snap:"sessions_opened"`   // tenant sessions admitted (OpenSession)
	SessionsClosed   atomic.Int64 `snap:"sessions_closed"`   // tenant sessions torn down (CloseSession)
	SessionsRejected atomic.Int64 `snap:"sessions_rejected"` // sessions refused by admission control

	// Failure detection and recovery observability.
	HeartbeatsSent       atomic.Int64 `snap:"heartbeats_sent"`        // liveness beacons emitted
	HeartbeatsSeen       atomic.Int64 `snap:"heartbeats_seen"`        // beacons heard by parents
	NodesFailed          atomic.Int64 `snap:"nodes_failed"`           // processes crashed (Kill injections)
	RecoveriesCompleted  atomic.Int64 `snap:"recoveries_completed"`   // successful live adoptions
	OrphansAdopted       atomic.Int64 `snap:"orphans_adopted"`        // subtrees re-parented by recovery
	RewiredLinks         atomic.Int64 `snap:"rewired_links"`          // replacement links minted (adopt/attach)
	RecoveryNanos        atomic.Int64 `snap:"recovery_nanos"`         // total time spent rewiring (ns)
	ShutdownSendFailures atomic.Int64 `snap:"shutdown_send_failures"` // shutdown announcements to dead links

	// Exactly-once recovery observability.
	ReplayRingHighWater atomic.Int64 `snap:"replay_ring_high_water,max"` // deepest sender replay ring observed (packets)
	PacketsReplayed     atomic.Int64 `snap:"packets_replayed"`           // ring packets re-flushed after a reparent
	DupsDropped         atomic.Int64 `snap:"dups_dropped"`               // replay duplicates dropped by receivers
}

// Network is a running TBON instance. The front-end API (NewStream,
// Shutdown) is safe for concurrent use.
type Network struct {
	cfg      Config
	registry *filter.Registry
	// metrics is the network-level set; shards holds every rank's own set
	// (guarded by mu), dead ranks' included, so totals never go back.
	metrics Metrics
	shards  map[Rank]*Metrics
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
	// recMu serializes live tree mutations (Adopt, AttachBackEnd), so the
	// slot snapshots one of them installs are never interleaved with
	// another's.
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
		eps = transport.NewChanFabric(cfg.Topology)
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
		rewirer = transport.NewChanRewirer()
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
		shards:   map[Rank]*Metrics{},
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

// shard allocates rank r's own counter set (callers hold mu), behind a
// cache line of padding so that no two ranks' sets share a line.
func (nw *Network) shard(r Rank) *Metrics {
	s := &struct {
		_ [64]byte
		m Metrics
	}{}
	nw.shards[r] = &s.m
	return &s.m
}

// upstreamQueue builds rank r's queue on its parent link l, counting into
// r's set m, its blocked senders released by kill or the network's
// teardown. With heartbeats on, its clock also sends the rank's beacon
// every period; the root has no parent and beacons to nobody.
func (nw *Network) upstreamQueue(r Rank, l transport.Link, m *Metrics, kill <-chan struct{}) *egressQueue {
	q := newUpstreamQueue(l, nw.cfg.Batch, m)
	q.bindStops(kill, nw.dying)
	if nw.cfg.HeartbeatPeriod > 0 {
		q.beacon(r, nw.cfg.HeartbeatPeriod)
	}
	return q
}

// Tree returns the overlay's shape as a topology in original numbering,
// built from the live view on each call: every rank ever assigned is in it,
// attached back-ends included. A dead rank keeps its last parent, so a
// failed router whose orphans were adopted appears as a childless node
// that Leaves lists, and a stillborn attach as a leaf. LiveParent and
// LiveChildren give the live shape.
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

// Metrics returns a snapshot of the network's counters: the network-level
// set plus every rank's set ever spawned, dead ranks included, read now.
func (nw *Network) Metrics() *Metrics {
	nw.mu.Lock()
	defer nw.mu.Unlock()
	sum := &Metrics{}
	sum.add(&nw.metrics)
	for _, m := range nw.shards {
		sum.add(m)
	}
	return sum
}

// RankMetrics returns a snapshot of rank r's own counters, alive or dead:
// what its queues, pipeline and link readers counted. It returns a zero
// set and false for a rank the network never spawned.
func (nw *Network) RankMetrics(r Rank) (*Metrics, bool) {
	nw.mu.Lock()
	defer nw.mu.Unlock()
	snap, m := &Metrics{}, nw.shards[r]
	if m != nil {
		snap.add(m)
	}
	return snap, m != nil
}

// snapTags holds every Metrics field's snap tag, in field order.
var snapTags = func() []string {
	t := reflect.TypeOf((*Metrics)(nil)).Elem()
	tags := make([]string, t.NumField())
	for i := range tags {
		tags[i] = t.Field(i).Tag.Get("snap")
	}
	return tags
}()

// field returns m's i-th counter.
func (m *Metrics) field(i int) *atomic.Int64 {
	return reflect.ValueOf(m).Elem().Field(i).Addr().Interface().(*atomic.Int64)
}

// add folds o into m: counters sum, and high-water gauges take the larger.
func (m *Metrics) add(o *Metrics) {
	for i, tag := range snapTags {
		dst, v := m.field(i), o.field(i).Load()
		if !strings.HasSuffix(tag, ",max") {
			dst.Add(v)
		} else if v > dst.Load() {
			dst.Store(v)
		}
	}
}

// Snapshot renders every counter as a name -> value map: the stable,
// tooling-friendly view used by tbon-query -stats and the experiment
// harness. Values are read individually (not atomically as a set), which
// is fine for observability.
func (m *Metrics) Snapshot() map[string]int64 {
	out := make(map[string]int64, len(snapTags))
	for i, tag := range snapTags {
		name, _, _ := strings.Cut(tag, ",")
		out[name] = m.field(i).Load()
	}
	return out
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
