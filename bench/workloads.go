package main

import (
	"time"

	"repro/internal/core"
	"repro/internal/topology"
	"repro/internal/transport"
)

// shippingConfig is the one configuration this benchmark measures: the
// data plane we would ship. A PR that shrinks core.Config edits this
// function and nothing else here. Heartbeats and load reports stay off
// (zero periods), pooling stays on (packet.SetPooling is never called),
// and GOMAXPROCS is whatever the host gives.
func shippingConfig(tree *topology.Tree, fabric core.TransportKind, onBackEnd func(*core.BackEnd) error, wrap func([]*transport.Endpoint)) core.Config {
	return core.Config{
		Topology:    tree,
		Transport:   fabric,
		OnBackEnd:   onBackEnd,
		WrapFabric:  wrap,
		Batch:       core.DefaultBatchPolicy(), // 32 packets / 2 ms
		LinkWindow:  linkWindow,
		Recoverable: true,
		ExactlyOnce: true,
		Shards:      0,
	}
}

type kind int

const (
	reduceSat kind = iota
	passthruSat
	reducePaced
	commandRounds
)

// workload is one set of inputs the benchmark runs.
type workload struct {
	name   string
	topo   string
	fabric core.TransportKind
	kind   kind
	// ageFlushes is how many links an operation crosses in an egress queue
	// that is flushed by age, not by size: every hop of a workload that
	// runs below saturation, none of one that fills its queues.
	ageFlushes int
	why        string
}

// The four workloads. BENCHMARK.json repeats each name with its why.
var workloads = []workload{
	{
		name: "reduce_sat_chan", topo: "kary:8^2", fabric: core.ChanTransport, kind: reduceSat,
		why: "saturated sum/waitforall over chan links: core and filter do the work, codec and TCP none, so codec/TCP changes must show no change here",
	},
	{
		name: "passthru_sat_tcp", topo: "kary:8^2", fabric: core.TCPTransport, kind: passthruSat,
		why: "saturated 1 KiB identity/nullsync over TCP loopback: packet codec and transport do the work at every hop and credit round trips set the rate; filter changes must show no change",
	},
	{
		name: "reduce_paced_tcp", topo: "kary:8^2", fabric: core.TCPTransport, kind: reducePaced, ageFlushes: 2,
		why: "open loop at 1000 rounds/s (about 1/6 of capacity): egress flushes by age, not size, so a batching change that buys throughput with latency shows here",
	},
	{
		name: "command_rounds_tcp", topo: "kary:4^3", fabric: core.TCPTransport, kind: commandRounds, ageFlushes: 6,
		why: "two session tenants in closed loop on a 3-level tree: the only workload with downstream multicast, sessions, two concurrent streams and per-level latency",
	},
}

func findWorkload(name string) *workload {
	for i := range workloads {
		if workloads[i].name == name {
			return &workloads[i]
		}
	}
	return nil
}

// Load model constants.
const (
	dataTag = core.TagFirstApplication

	linkWindow = 64 // the shipping credit window, packets per link and direction

	// reduce_sat_chan: every leaf sends as fast as Send admits, but keeps
	// at most one credit window of rounds in flight beyond what the
	// front-end has delivered, and is woken every quarter window of
	// deliveries (the engine's own grant batching). Without the bound the
	// front-end's waitforall queues grow without limit — it acknowledges
	// what it has merely queued — so leaves run hundreds of thousands of
	// rounds apart, throughput becomes a matter of which subtree the
	// scheduler favoured (run-to-run spread 27 %), and about one run in ten
	// wedges; see README.md, "First recording".
	reduceInFlight = linkWindow
	gateEvery      = linkWindow / 4

	// Open loop: every leaf sends pacedBurst packets every pacedPeriod on
	// an absolute schedule — 1 000 rounds/s, 64 000 leaf packets/s.
	pacedBurst  = 10
	pacedPeriod = 10 * time.Millisecond
	// The schedule starts this long after the start command is sent, so
	// that every leaf has it before the first round is due.
	pacedLead = 50 * time.Millisecond

	// Saturated streams time one operation in satLatEvery from the Send
	// call of its last contributor to its delivery at the front-end.
	reduceLatEvery = 16
	passLatEvery   = 64

	// Send calls slower than this count as blocked (core.send_blocked_share).
	sendBlockedNs = 100_000
)

// tenants of command_rounds_tcp: one closed-loop client each.
var tenants = []struct{ name, tform string }{
	{"tenant-sum", "sum"},
	{"tenant-max", "max"},
}

// leafPktsPerOp is how many back-end packets one front-end result stands
// for: a reduced round counts every contributor.
func (w *workload) leafPktsPerOp(leaves int) int64 {
	if w.kind == passthruSat {
		return 1
	}
	return int64(leaves)
}

func (w *workload) streaming() bool { return w.kind != commandRounds }

func (w *workload) saturated() bool { return w.kind == reduceSat || w.kind == passthruSat }

// timerFloorMs is the part of an operation's latency that the age flush
// sets and the host's speed cannot change: two links up the 2-level tree
// of reduce_paced_tcp, three down and three up on command_rounds_tcp.
func (w *workload) timerFloorMs() float64 {
	age := shippingConfig(nil, w.fabric, nil, nil).Batch.MaxDelay
	return float64(w.ageFlushes) * age.Seconds() * 1e3
}
