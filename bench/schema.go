package main

// The metric names, units and directions fixed by this benchmark. Later
// PRs cite these names; BENCHMARK.json at the repo root lists the same
// set (TestBenchmarkFileMatchesSchema keeps the two in step) and holds the regression
// bound of every end-to-end metric.

type metricDef struct {
	Name   string
	Unit   string
	Better string // "lower" or "higher"
}

// Value is one reported metric.
type Value struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// endToEnd is what a user of the overlay sees. Every workload reports
// every one of them, what the host's speed bounds scaled to the reference
// host (host.go). A gated metric has to hold on every workload, and two
// the issue asked for do not on this host; they are per-layer diagnostics.
// cpu_ns_per_pkt is, below saturation, the Go scheduler's idle spinning
// and timer wake-ups, 20–40 % apart between runs of the same code whatever
// it is scaled by; on the saturated workloads pkts_per_s gates the same
// cost. lat_p99_ms of the open loop is where the host's own stalls land
// (ten-run spreads of 12–47 %); the gated tail is lat_p95_ms, which the
// same runs hold to 3 % and which is the highest percentile with ten
// samples beyond it in a window of command_rounds_tcp.
//
// delivered_ratio is 1 − failed_ratio: the benchmark contract gates a
// metric by a share of its median, which a ratio that is normally 0
// cannot carry, so the gated form counts what arrived. failed_ratio is
// still printed beside it.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower"},
	{"pkts_per_s", "1/s", "higher"},
	{"lat_p50_ms", "ms", "lower"},
	{"lat_p95_ms", "ms", "lower"},
	{"allocs_per_pkt", "1", "lower"},
	{"live_heap_mb", "MB", "lower"},
	{"delivered_ratio", "1", "higher"},
}

// perLayer holds the numbers of single layers; the layers are the repo's
// modules. Source of each: L = ladder, C = counter deltas, T = traced pass
// (see README.md for which end-to-end metric each should move).
var perLayer = []metricDef{
	// packet (L, C)
	{"packet.new_ns", "ns", "lower"},
	{"packet.new_allocs", "1", "lower"},
	{"packet.encode_ns", "ns", "lower"},
	{"packet.decode_ns", "ns", "lower"},
	{"packet.decode_allocs", "1", "lower"},
	{"packet.frame_append_ns", "ns", "lower"},
	{"packet.frame_decode_ns", "ns", "lower"},
	{"packet.wire_bytes", "B", "lower"},
	{"packet.arena_miss_share", "1", "lower"},
	// transport (L, T)
	{"transport.tcp_send_ns", "ns", "lower"},
	{"transport.tcp_recv_ns", "ns", "lower"},
	{"transport.tcp_allocs", "1", "lower"},
	{"transport.tcp_rtt_us", "us", "lower"},
	{"transport.chan_send_ns", "ns", "lower"},
	{"transport.flow_credit_ns", "ns", "lower"},
	{"transport.sendbatch_ns_per_pkt.leaf", "ns", "lower"},
	{"transport.sendbatch_ns_per_pkt.root", "ns", "lower"},
	{"transport.frames_per_kpkt.leaf", "1", "lower"},
	{"transport.frames_per_kpkt.root", "1", "lower"},
	{"transport.wire_bytes_per_pkt.leaf", "B", "lower"},
	{"transport.wire_bytes_per_pkt.root", "B", "lower"},
	{"transport.ctrl_pkt_share.leaf", "1", "lower"},
	{"transport.ctrl_pkt_share.root", "1", "lower"},
	// filter (L)
	{"filter.waitforall_ns", "ns", "lower"},
	{"filter.sum_ns", "ns", "lower"},
	{"filter.sum_allocs", "1", "lower"},
	{"filter.nullsync_ns", "ns", "lower"},
	// core (C, T)
	{"core.pkts_per_frame", "1", "higher"},
	{"core.flush_size_share", "1", "higher"},
	{"core.flush_age_share", "1", "lower"},
	{"core.credit_stalls_per_kpkt", "1", "lower"},
	{"core.credit_grants_per_kpkt", "1", "lower"},
	{"core.shard_inline_share", "1", "higher"},
	{"core.shard_queue_highwater", "count", "lower"},
	{"core.egress_highwater", "count", "lower"},
	{"core.replay_ring_highwater", "count", "lower"},
	{"core.dups_dropped", "count", "lower"},
	{"core.filter_errors", "count", "lower"},
	{"core.send_ns", "ns", "lower"},
	{"core.send_blocked_share", "1", "lower"},
	{"core.recv_wait_share", "1", "lower"},
	{"core.multicast_ns", "ns", "lower"},
	{"core.new_network_ms", "ms", "lower"},
	{"core.new_stream_ms", "ms", "lower"},
	{"core.first_result_ms", "ms", "lower"},
	{"core.shutdown_ms", "ms", "lower"},
	{"core.wedges", "count", "lower"},
	{"core.restarts", "count", "lower"},
	// session, topology (T, L)
	{"session.open_ms", "ms", "lower"},
	{"topology.parse_us", "us", "lower"},
	// runtime (C)
	{"runtime.gc_cpu_share", "1", "lower"},
	{"runtime.gc_cycles", "count", "lower"},
	{"runtime.heap_growth_mb_per_Mpkt", "MB", "lower"},
	{"runtime.peak_rss_mb", "MB", "lower"},
	{"runtime.goroutines", "count", "lower"},
	// the host (host.go), read round the untraced reference windows
	{"host.slowdown", "1", "lower"},
	// diagnostics, not gated (T; cpu_ns_per_pkt: the untraced reference windows)
	{"gen.late_p99_ms", "ms", "lower"},
	{"lat_p99_ms", "ms", "lower"},
	{"lat_p999_ms", "ms", "lower"},
	{"cpu_ns_per_pkt", "ns", "lower"},
	// ledger (L+T)
	{"ledger.explained_ns", "ns", "lower"},
	{"ledger.unexplained_ns", "ns", "lower"},
	{"trace.overhead_pct", "%", "lower"},
}

// complete fills every metric of defs that vals lacks with 0 and its unit,
// so a workload a metric does not apply to (session.open_ms on a
// streaming workload, say) still reports the whole schema.
func complete(defs []metricDef, vals map[string]float64) map[string]Value {
	out := make(map[string]Value, len(defs))
	for _, d := range defs {
		out[d.Name] = Value{Value: vals[d.Name], Unit: d.Unit}
	}
	return out
}
